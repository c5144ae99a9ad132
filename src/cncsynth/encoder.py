"""CNF encoding of bounded synthesis.

A Boolean specification over views is compiled to propositional CNF whose
satisfying assignments correspond one-to-one to the well-formed models,
within a finite :class:`Scope`, that satisfy the specification.

The scope fixes the component-name universe and bounds the number of port
slots and the pools of port names and types.  Structural variables (which
component exists, who contains whom, what each port slot holds, which
connectors are present) are allocated before all auxiliary variables, so a
solver that branches on the lowest-indexed unassigned variable explores the
structural core and derives everything else by propagation.  Slot symmetry
breaking (used slots form a prefix, ordered by owner and then port name)
makes the structural assignment of any model unique, so blocking clauses
projected onto the structural variables enumerate distinct models.

Transitive containment and port reachability are encoded as fixpoint
biconditionals.  These are exact here: containment antisymmetry rules out
circular justification of containment, and the connector direction rules
make the port graph acyclic (a chain ascends through output forwarding,
crosses between siblings at most once, then descends through input
forwarding), which rules out circular justification of reachability.
"""

from __future__ import annotations

from dataclasses import dataclass

from cncsynth.model import (
    CncModel,
    CncView,
    Component,
    Connector,
    Direction,
    Port,
    PortRef,
)
from cncsynth.sat import CnfInstance
from cncsynth.speclang import And, Formula, Not, ResolvedSpec, StyleKind, Var

FRESH_PORT_PREFIX = "_p"
FRESH_TYPE_PREFIX = "_T"


class EncodingError(Exception):
    pass


@dataclass(frozen=True)
class Scope:
    """The finite search space: a fixed component universe, a number of port
    slots, and pools of admissible port names and types."""

    components: tuple[str, ...]
    ports: int
    port_names: tuple[str, ...]
    types: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "port_names", tuple(self.port_names))
        object.__setattr__(self, "types", tuple(self.types))


def compute_scope(spec: ResolvedSpec) -> Scope:
    """Default scope: every named component, one slot per declared port plus
    slack, declared port names and types plus fresh ones.  Spec scope hints
    override the counts."""
    hints = spec.scope_hints
    declared: set[tuple[str, str]] = set()
    names: set[str] = set()
    types: set[str] = set()
    for v in spec.views.values():
        types |= v.types
        for c in v.components:
            for p in c.ports:
                declared.add((c.name, p.name))
                names.add(p.name)
    for d in spec.library:
        for n, _, t in d.interface:
            declared.add((d.component, n))
            names.add(n)
            types.add(t)

    ports = hints.ports if hints.ports is not None else len(declared) + 2
    extra_names = hints.extra_names if hints.extra_names is not None else 2
    extra_types = hints.extra_types if hints.extra_types is not None else (0 if types else 1)
    name_pool = sorted(names) + [f"{FRESH_PORT_PREFIX}{i}" for i in range(1, extra_names + 1)]
    type_pool = sorted(types) + [f"{FRESH_TYPE_PREFIX}{i}" for i in range(1, extra_types + 1)]
    return Scope(tuple(spec.component_names), ports, tuple(name_pool), tuple(type_pool))


class VarMap:
    """Bijection between symbolic variable keys and DIMACS variable indices,
    in allocation order."""

    def __init__(self) -> None:
        self._index: dict[tuple, int] = {}
        self._keys: list[tuple | None] = [None]

    def var(self, *key) -> int:
        v = self._index.get(key)
        if v is None:
            v = len(self._keys)
            self._keys.append(key)
            self._index[key] = v
        return v

    def get(self, *key) -> int | None:
        return self._index.get(key)

    def describe(self, v: int) -> str:
        key = self._keys[v]
        return " ".join(str(k) for k in key)

    @property
    def num_vars(self) -> int:
        return len(self._keys) - 1


@dataclass
class Encoding:
    cnf: CnfInstance
    varmap: VarMap
    scope: Scope
    spec: ResolvedSpec
    structural_vars: tuple[int, ...]


def encode(spec: ResolvedSpec, scope: Scope | None = None) -> Encoding:
    if scope is None:
        scope = compute_scope(spec)
    return _Encoder(spec, scope).run()


class _Encoder:
    def __init__(self, spec: ResolvedSpec, scope: Scope):
        self.spec = spec
        self.scope = scope
        self.vm = VarMap()
        self.clauses: list[tuple[int, ...]] = []
        self.groups: list[tuple[str, int, int]] = []
        self._group_start = 0
        self._group_label: str | None = None
        self._true_var: int | None = None
        self.comps = list(scope.components)
        self.slots = list(range(scope.ports))
        self.names = list(scope.port_names)
        self.types = list(scope.types)
        self._validate_scope()

    def _validate_scope(self) -> None:
        comps = set(self.comps)
        names = set(self.names)
        types = set(self.types)
        errors = []
        for c in self.spec.component_names:
            if c not in comps:
                errors.append(f"component {c!r} missing from the scope")
        for v in self.spec.views.values():
            for t in v.types:
                if t not in types:
                    errors.append(f"type {t!r} (view {v.name}) missing from the scope")
            for c in v.components:
                for p in c.ports:
                    if p.name not in names:
                        errors.append(f"port name {p.name!r} (view {v.name}) missing from the scope")
        for d in self.spec.library:
            for n, _, t in d.interface:
                if n not in names:
                    errors.append(f"port name {n!r} (library {d.component}) missing from the scope")
                if t not in types:
                    errors.append(f"type {t!r} (library {d.component}) missing from the scope")
        if errors:
            raise EncodingError("; ".join(sorted(set(errors))))

    # -- clause plumbing -------------------------------------------------------

    def add(self, *lits: int) -> None:
        self.clauses.append(lits)

    def begin(self, label: str) -> None:
        self.end()
        self._group_label = label
        self._group_start = len(self.clauses)

    def end(self) -> None:
        if self._group_label is not None and len(self.clauses) > self._group_start:
            self.groups.append((self._group_label, self._group_start, len(self.clauses)))
        self._group_label = None

    def true_lit(self) -> int:
        if self._true_var is None:
            self._true_var = self.vm.var("const", "true")
            self.add(self._true_var)
        return self._true_var

    def _amo(self, lits: list[int]) -> None:
        for i in range(len(lits)):
            for j in range(i + 1, len(lits)):
                self.add(-lits[i], -lits[j])

    def and_var(self, key: tuple, lits: list[int]) -> int:
        """Auxiliary variable equivalent to the conjunction of ``lits``."""
        if len(lits) == 1:
            return lits[0]
        if not lits:
            return self.true_lit()
        v = self.vm.get(*key)
        if v is not None:
            return v
        v = self.vm.var(*key)
        for l in lits:
            self.add(-v, l)
        self.add(v, *(-l for l in lits))
        return v

    def or_var(self, key: tuple, lits: list[int]) -> int:
        """Auxiliary variable equivalent to the disjunction of ``lits``."""
        if len(lits) == 1:
            return lits[0]
        if not lits:
            return -self.true_lit()
        v = self.vm.get(*key)
        if v is not None:
            return v
        v = self.vm.var(*key)
        for l in lits:
            self.add(-l, v)
        self.add(-v, *lits)
        return v

    # -- variable accessors ----------------------------------------------------

    def ex(self, c: str) -> int:
        return self.vm.var("exists", c)

    def par(self, c: str, d: str) -> int:
        return self.vm.var("parent", c, d)

    def top(self, c: str) -> int:
        return self.vm.var("top", c)

    def used(self, p: int) -> int:
        return self.vm.var("used", p)

    def owner(self, p: int, c: str) -> int:
        return self.vm.var("owner", p, c)

    def pname(self, p: int, n: str) -> int:
        return self.vm.var("pname", p, n)

    def pin(self, p: int) -> int:
        return self.vm.var("pin", p)

    def ptype(self, p: int, t: str) -> int:
        return self.vm.var("ptype", p, t)

    def conn(self, p: int, q: int) -> int:
        return self.vm.var("conn", p, q)

    def subt(self, c: str, d: str) -> int:
        return self.vm.var("subt", c, d)

    def reach(self, p: int, q: int) -> int:
        return self.vm.var("reach", p, q)

    def viewvar(self, name: str) -> int:
        return self.vm.var("view", name)

    # -- top level -------------------------------------------------------------

    def run(self) -> Encoding:
        # Structural variables first, in a fixed order.
        for c in self.comps:
            self.ex(c)
        for c in self.comps:
            for d in self.comps:
                if c != d:
                    self.par(c, d)
        for c in self.comps:
            self.top(c)
        for p in self.slots:
            self.used(p)
        for p in self.slots:
            for c in self.comps:
                self.owner(p, c)
        for p in self.slots:
            for n in self.names:
                self.pname(p, n)
        for p in self.slots:
            self.pin(p)
        for p in self.slots:
            for t in self.types:
                self.ptype(p, t)
        for p in self.slots:
            for q in self.slots:
                if p != q:
                    self.conn(p, q)
        structural = tuple(range(1, self.vm.num_vars + 1))

        self._containment()
        self._transitive_containment()
        self._ports()
        self._symmetry()
        self._connectors()
        self._reachability()
        self._views()
        self._formula()
        self._library()
        self._interface_complete()
        self._style()
        self.end()

        comments = [f"var {v} {self.vm.describe(v)}" for v in structural]
        cnf = CnfInstance(self.vm.num_vars, tuple(self.clauses), tuple(comments), tuple(self.groups))
        return Encoding(cnf, self.vm, self.scope, self.spec, structural)

    # -- core well-formedness --------------------------------------------------

    def _containment(self) -> None:
        self.begin("containment")
        for c in self.comps:
            for d in self.comps:
                if c == d:
                    continue
                self.add(-self.par(c, d), self.ex(c))
                self.add(-self.par(c, d), self.ex(d))
        for d in self.comps:
            self._amo([self.par(c, d) for c in self.comps if c != d])
        # top(c) <-> exists(c) and no parent.
        for c in self.comps:
            self.add(-self.top(c), self.ex(c))
            for d in self.comps:
                if d != c:
                    self.add(-self.top(c), -self.par(d, c))
            self.add(-self.ex(c), self.top(c), *(self.par(d, c) for d in self.comps if d != c))
        members = self._style_top_members()
        if members is None:
            tops = [self.top(c) for c in self.comps]
            self.add(*tops)
            self._amo(tops)
        else:
            for c in self.comps:
                if c in members:
                    self.add(self.ex(c))
                    self.add(self.top(c))
                else:
                    self.add(-self.top(c))

    def _style_top_members(self) -> set[str] | None:
        style = self.spec.style
        if style.kind is StyleKind.CLIENT_SERVER:
            return {style.server, *style.clients}
        if style.kind is StyleKind.LAYERED:
            return {c for layer in style.layers for c in layer}
        return None

    def _transitive_containment(self) -> None:
        self.begin("transitive-containment")
        for c in self.comps:
            for d in self.comps:
                if c != d:
                    self.add(-self.par(c, d), self.subt(c, d))
        for c in self.comps:
            for e in self.comps:
                for d in self.comps:
                    if len({c, e, d}) == 3:
                        self.add(-self.subt(c, e), -self.par(e, d), self.subt(c, d))
        # Upper bound: containment must be justified by a parent path.
        for c in self.comps:
            for d in self.comps:
                if c == d:
                    continue
                witnesses = [self.par(c, d)]
                for e in self.comps:
                    if e in (c, d):
                        continue
                    w = self.vm.var("subtstep", c, e, d)
                    self.add(-w, self.subt(c, e))
                    self.add(-w, self.par(e, d))
                    witnesses.append(w)
                self.add(-self.subt(c, d), *witnesses)
        for i, c in enumerate(self.comps):
            for d in self.comps[i + 1:]:
                self.add(-self.subt(c, d), -self.subt(d, c))

    def _ports(self) -> None:
        self.begin("ports")
        for p in self.slots:
            if p + 1 in self.slots:
                self.add(-self.used(p + 1), self.used(p))
            owners = [self.owner(p, c) for c in self.comps]
            names = [self.pname(p, n) for n in self.names]
            ptypes = [self.ptype(p, t) for t in self.types]
            self.add(-self.used(p), *owners)
            self.add(-self.used(p), *names)
            self.add(-self.used(p), *ptypes)
            for group in (owners, names, ptypes):
                for l in group:
                    self.add(-l, self.used(p))
                self._amo(group)
            for c in self.comps:
                self.add(-self.owner(p, c), self.ex(c))
            self.add(-self.pin(p), self.used(p))

    def _symmetry(self) -> None:
        self.begin("symmetry")
        for p in self.slots[:-1]:
            # Owner index never decreases along the slot prefix.
            for i, ci in enumerate(self.comps):
                for cj in self.comps[:i]:
                    self.add(-self.owner(p, ci), -self.owner(p + 1, cj))
            # Within a same-owner block, port-name index strictly increases.
            sb = self.vm.var("sameowner", p)
            for c in self.comps:
                self.add(-self.owner(p, c), -self.owner(p + 1, c), sb)
            for i, ni in enumerate(self.names):
                for nj in self.names[: i + 1]:
                    self.add(-sb, -self.pname(p, ni), -self.pname(p + 1, nj))

    # -- connectors ------------------------------------------------------------

    def pparent(self, p: int, c: str) -> int:
        return self.vm.var("pparent", p, c)

    def ptop(self, p: int) -> int:
        return self.vm.var("ptop", p)

    def _connectors(self) -> None:
        self.begin("connectors")
        # pparent(p, c): the parent of slot p's owner is c.
        for p in self.slots:
            for c in self.comps:
                for d in self.comps:
                    if c == d:
                        continue
                    self.add(-self.owner(p, d), -self.par(c, d), self.pparent(p, c))
                    self.add(-self.pparent(p, c), -self.owner(p, d), self.par(c, d))
            for d in self.comps:
                self.add(-self.owner(p, d), -self.top(d), self.ptop(p))
                self.add(-self.ptop(p), -self.owner(p, d), self.top(d))

        for p in self.slots:
            for q in self.slots:
                if p == q:
                    continue
                cn = self.conn(p, q)
                self.add(-cn, self.used(p))
                self.add(-cn, self.used(q))
                for t in self.types:
                    self.add(-cn, -self.ptype(p, t), self.ptype(q, t))
                for c in self.comps:
                    self.add(-cn, -self.owner(p, c), -self.owner(q, c))
                # Directions: IN -> OUT never occurs.
                self.add(-cn, -self.pin(p), self.pin(q))
                # OUT -> IN: the owners are siblings (same parent, or both top).
                for c in self.comps:
                    self.add(-cn, self.pin(p), -self.pin(q), -self.pparent(p, c), self.pparent(q, c))
                    self.add(-cn, self.pin(p), -self.pin(q), -self.pparent(q, c), self.pparent(p, c))
                self.add(-cn, self.pin(p), -self.pin(q), -self.ptop(p), self.ptop(q))
                self.add(-cn, self.pin(p), -self.pin(q), -self.ptop(q), self.ptop(p))
                # IN -> IN: input forwarding, p's owner is the parent of q's.
                for c in self.comps:
                    self.add(-cn, -self.pin(p), -self.pin(q), -self.owner(p, c), self.pparent(q, c))
                # OUT -> OUT: output forwarding, q's owner is the parent of p's.
                for c in self.comps:
                    self.add(-cn, self.pin(p), self.pin(q), -self.owner(q, c), self.pparent(p, c))
        # At most one incoming connector per port.
        for q in self.slots:
            self._amo([self.conn(p, q) for p in self.slots if p != q])

    def _reachability(self) -> None:
        self.begin("reachability")
        for p in self.slots:
            for q in self.slots:
                if p == q:
                    continue
                self.add(-self.conn(p, q), self.reach(p, q))
                # Each step witness is a full biconditional: a true reach
                # literal must be justified by an edge or a witness, and
                # since connector graphs are acyclic the justification
                # chains ground out, making the decoded relation exactly
                # the transitive closure.
                witnesses = [self.conn(p, q)]
                for r in self.slots:
                    if r in (p, q):
                        continue
                    s = self.vm.var("reachstep", p, r, q)
                    self.add(-s, self.reach(p, r))
                    self.add(-s, self.conn(r, q))
                    self.add(-self.reach(p, r), -self.conn(r, q), s)
                    self.add(-s, self.reach(p, q))
                    witnesses.append(s)
                self.add(-self.reach(p, q), *witnesses)

    # -- views and the specification formula -----------------------------------

    def _type_present(self, t: str) -> int:
        return self.or_var(("typepresent", t), [self.ptype(p, t) for p in self.slots])

    def _port_ok(self, c: str, port: Port) -> int:
        """Some slot realizes this declared view/library port."""
        key = ("portok", c, port.name, port.direction.value, port.type)
        lits = []
        for p in self.slots:
            conj = [self.owner(p, c), self.pname(p, port.name)]
            conj.append(self.pin(p) if port.direction is Direction.IN else -self.pin(p))
            if port.type is not None:
                conj.append(self.ptype(p, port.type))
            lits.append(self.and_var(("portsel", c, port.name, port.direction.value, port.type, p), conj))
        return self.or_var(key, lits)

    def _endpoint_sel(self, p: int, c: str, n: str | None, t: str | None) -> int:
        conj = [self.owner(p, c)]
        if n is not None:
            conj.append(self.pname(p, n))
        if t is not None:
            conj.append(self.ptype(p, t))
        return self.and_var(("endsel", c, n, t, p), conj)

    def _abs_conn_ok(self, view: CncView, idx: int) -> int:
        ac = view.abs_connectors[idx]
        key = ("acok", ac.src_cmp, ac.src_port, ac.src_type, ac.tgt_cmp, ac.tgt_port, ac.tgt_type)
        if (v := self.vm.get(*key)) is not None:
            return v
        lits = []
        for p in self.slots:
            for q in self.slots:
                if p == q:
                    continue
                src = self._endpoint_sel(p, ac.src_cmp, ac.src_port, ac.src_type)
                tgt = self._endpoint_sel(q, ac.tgt_cmp, ac.tgt_port, ac.tgt_type)
                lits.append(self.and_var(key + ("pair", p, q), [src, tgt, self.reach(p, q)]))
        return self.or_var(key, lits)

    def _views(self) -> None:
        self.begin("views")
        for name in sorted(self.spec.views):
            view = self.spec.views[name]
            conjuncts: list[int] = []
            for t in sorted(view.types):
                conjuncts.append(self._type_present(t))
            for c in view.components:
                conjuncts.append(self.ex(c.name))
                for port in c.ports:
                    conjuncts.append(self._port_ok(c.name, port))
            cnames = [c.name for c in view.components]
            for a in cnames:
                for b in cnames:
                    if a == b:
                        continue
                    lit = self.subt(a, b)
                    conjuncts.append(lit if (a, b) in view.contains else -lit)
            for i in range(len(view.abs_connectors)):
                conjuncts.append(self._abs_conn_ok(view, i))
            v = self.viewvar(name)
            for l in conjuncts:
                self.add(-v, l)
            self.add(v, *(-l for l in conjuncts))

    def _formula_lit(self, f: Formula) -> int:
        if isinstance(f, Var):
            return self.viewvar(f.name)
        if isinstance(f, Not):
            return -self._formula_lit(f.arg)
        lits = [self._formula_lit(a) for a in f.args]
        self._tseitin_n = getattr(self, "_tseitin_n", 0) + 1
        key = ("faux", self._tseitin_n)
        if isinstance(f, And):
            return self.and_var(key, lits) if lits else self.true_lit()
        return self.or_var(key, lits) if lits else -self.true_lit()

    def _formula(self) -> None:
        self.begin("formula")
        self.add(self._formula_lit(self.spec.expanded_formula))

    # -- global constraints ----------------------------------------------------

    def _library(self) -> None:
        self.begin("library")
        for decl in self.spec.library:
            c = decl.component
            for d in self.comps:
                if d != c:
                    self.add(-self.ex(c), -self.par(c, d))
            allowed = {n for n, _, _ in decl.interface}
            for n, direction, t in decl.interface:
                self.add(-self.ex(c), self._port_ok(c, Port(n, direction, t)))
                pin_lit = 1 if direction is Direction.IN else -1
                for p in self.slots:
                    self.add(-self.owner(p, c), -self.pname(p, n), pin_lit * self.pin(p))
                    self.add(-self.owner(p, c), -self.pname(p, n), self.ptype(p, t))
            for p in self.slots:
                self.add(-self.owner(p, c), *(self.pname(p, n) for n in sorted(allowed) if n in self.names))

    def _interface_complete(self) -> None:
        self.begin("interface-complete")
        for vname, cname in sorted(self.spec.interface_complete):
            declared = self.spec.views[vname].by_name[cname].ports
            allowed = {port.name for port in declared}
            for port in declared:
                self.add(-self.ex(cname), self._port_ok(cname, port))
                pin_lit = 1 if port.direction is Direction.IN else -1
                for p in self.slots:
                    self.add(-self.owner(p, cname), -self.pname(p, port.name), pin_lit * self.pin(p))
                    if port.type is not None:
                        self.add(-self.owner(p, cname), -self.pname(p, port.name), self.ptype(p, port.type))
            for p in self.slots:
                self.add(-self.owner(p, cname), *(self.pname(p, n) for n in sorted(allowed)))

    # -- styles ----------------------------------------------------------------

    def _conn_to_comp(self, p: int, b: str) -> int:
        """Lower-bound aux: slot p has an outgoing connector into component b."""
        if not hasattr(self, "_conncomp_defined"):
            self._conncomp_defined: set[tuple[int, str]] = set()
        v = self.vm.var("conncomp", p, b)
        if (p, b) not in self._conncomp_defined:
            self._conncomp_defined.add((p, b))
            for q in self.slots:
                if q != p:
                    self.add(-self.conn(p, q), -self.owner(q, b), v)
        return v

    def _style(self) -> None:
        style = self.spec.style
        if style.kind is StyleKind.HIERARCHICAL:
            self._style_hierarchical()
        elif style.kind is StyleKind.CLIENT_SERVER:
            self._style_client_server(style.server, style.clients)
        elif style.kind is StyleKind.LAYERED:
            self._style_layered(style.layers)

    def _style_hierarchical(self) -> None:
        """Forbid end-to-end communication cycles.  All auxiliaries here are
        lower bounds: they are forced true by real witnesses, and only appear
        in prohibitions, so exact-valued assignments always remain."""
        self.begin("style-hierarchical")
        noinc, noout = {}, {}
        for p in self.slots:
            noinc[p] = self.vm.var("noinc", p)
            self.add(noinc[p], *(self.conn(r, p) for r in self.slots if r != p))
            noout[p] = self.vm.var("noout", p)
            self.add(noout[p], *(self.conn(p, r) for r in self.slots if r != p))
        ee = {(a, b): self.vm.var("ee", a, b)
              for a in self.comps for b in self.comps if a != b}
        snk = {}
        for q in self.slots:
            for b in self.comps:
                snk[(q, b)] = self.vm.var("eesnk", q, b)
                self.add(-noout[q], -self.owner(q, b), snk[(q, b)])
        for p in self.slots:
            for b in self.comps:
                er = self.vm.var("eereach", p, b)
                for q in self.slots:
                    if q != p:
                        self.add(-self.reach(p, q), -snk[(q, b)], er)
                for a in self.comps:
                    if a != b:
                        self.add(-noinc[p], -self.owner(p, a), -er, ee[(a, b)])
        eet = {(a, b): self.vm.var("eet", a, b)
               for a in self.comps for b in self.comps if a != b}
        for (a, b), v in ee.items():
            self.add(-v, eet[(a, b)])
        for a in self.comps:
            for b in self.comps:
                for c in self.comps:
                    if len({a, b, c}) == 3:
                        self.add(-eet[(a, b)], -ee[(b, c)], eet[(a, c)])
        for a in self.comps:
            for b in self.comps:
                if a != b:
                    self.add(-eet[(a, b)], -ee[(b, a)])

    def _direct_link(self, a: str, b: str) -> int:
        """Aux that implies a direct connector from a port of a to a port of b
        (one-sided, for positive requirements)."""
        key = ("directlink", a, b)
        lits = []
        for p in self.slots:
            for q in self.slots:
                if p == q:
                    continue
                w = self.and_var(key + (p, q), [self.owner(p, a), self.owner(q, b), self.conn(p, q)])
                lits.append(w)
        return self.or_var(key, lits)

    def _style_client_server(self, server: str, clients: tuple[str, ...]) -> None:
        self.begin("style-client-server")
        for client in clients:
            self.add(self._direct_link(client, server), self._direct_link(server, client))
            for other in clients:
                if other != client:
                    for p in self.slots:
                        self.add(-self.owner(p, client), -self._conn_to_comp(p, other))

    def _style_layered(self, layers: tuple[tuple[str, ...], ...]) -> None:
        self.begin("style-layered")
        layer_of = {c: i for i, layer in enumerate(layers) for c in layer}
        members = list(layer_of)
        # Component-level connector presence (lower bound only).
        cconn = {}
        for a in self.comps:
            for b in self.comps:
                if a == b:
                    continue
                cconn[(a, b)] = self.vm.var("cconn", a, b)
                for p in self.slots:
                    self.add(-self.owner(p, a), -self._conn_to_comp(p, b), cconn[(a, b)])
        for t1 in members:
            for t2 in members:
                if abs(layer_of[t1] - layer_of[t2]) <= 1:
                    continue
                for a in self.comps:
                    for b in self.comps:
                        if a == b:
                            continue
                        clause = [-cconn[(a, b)]]
                        if t1 != a:
                            clause.append(-self.subt(t1, a))
                        if t2 != b:
                            clause.append(-self.subt(t2, b))
                        self.add(*clause)


# --- Decoding -----------------------------------------------------------------

def decode(enc: Encoding, assignment: dict[int, bool]) -> CncModel:
    """Read a model back from a satisfying assignment of the encoding."""
    vm, scope = enc.varmap, enc.scope

    def truth(*key) -> bool:
        v = vm.get(*key)
        return v is not None and assignment.get(v, False)

    existing = [c for c in scope.components if truth("exists", c)]
    children: dict[str, set[str]] = {c: set() for c in existing}
    for c in existing:
        for d in existing:
            if c != d and truth("parent", c, d):
                children[c].add(d)

    slot_ref: dict[int, PortRef] = {}
    ports: dict[str, list[Port]] = {c: [] for c in existing}
    for p in range(scope.ports):
        if not truth("used", p):
            continue
        owner = next(c for c in existing if truth("owner", p, c))
        name = next(n for n in scope.port_names if truth("pname", p, n))
        ptype = next(t for t in scope.types if truth("ptype", p, t))
        direction = Direction.IN if truth("pin", p) else Direction.OUT
        ports[owner].append(Port(name, direction, ptype))
        slot_ref[p] = PortRef(owner, name)

    connectors = [
        Connector(slot_ref[p], slot_ref[q])
        for p in slot_ref for q in slot_ref
        if p != q and truth("conn", p, q)
    ]
    components = [Component(c, tuple(ports[c]), frozenset(children[c])) for c in existing]
    return CncModel.build(components, connectors)
