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

Every variable is numbered once, by ``VarMap.new``.  A variable read from
several places is shared through a table that numbers it on its first
lookup, so the order of first lookups fixes the numbering.

Transitive containment and port reachability are encoded as fixpoint
biconditionals.  These are exact here: containment antisymmetry rules out
circular justification of containment, and the connector direction rules
make the port graph acyclic (a chain ascends through output forwarding,
crosses between siblings at most once, then descends through input
forwarding), which rules out circular justification of reachability.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial

from cncsynth.model import (
    AbstractConnector,
    CncModel,
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
    slots, and pools of admissible port names and types, each listed once."""

    components: tuple[str, ...]
    ports: int
    port_names: tuple[str, ...]
    types: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.ports < 0:
            raise ValueError(f"scope count ports must not be negative, got {self.ports}")
        for field, kind in (("components", "component"), ("port_names", "port name"), ("types", "type")):
            values = tuple(getattr(self, field))
            object.__setattr__(self, field, values)
            if repeated := [v for i, v in enumerate(values) if v in values[:i]]:
                raise ValueError(f"scope {kind} {repeated[0]!r} is listed twice")


def compute_scope(spec: ResolvedSpec) -> Scope:
    """Default scope: every named component, one slot per declared port plus
    slack, declared port names and types plus fresh ones.  A port that an
    abstract connector names counts as declared.  Spec scope hints override
    the counts."""
    hints, types = spec.scope_hints, spec.types
    names = {n for _, n in spec.declared_ports}
    ports = hints.ports if hints.ports is not None else len(spec.declared_ports) + 2
    extra_names = hints.extra_names if hints.extra_names is not None else 2
    extra_types = hints.extra_types if hints.extra_types is not None else (0 if types else 1)
    name_pool = sorted(names) + _fresh(FRESH_PORT_PREFIX, extra_names, names)
    type_pool = sorted(types) + _fresh(FRESH_TYPE_PREFIX, extra_types, types)
    return Scope(tuple(spec.component_names), ports, tuple(name_pool), tuple(type_pool))


def _fresh(prefix: str, count: int, taken: set[str] | frozenset[str]) -> list[str]:
    """``count`` names ``prefix1``, ``prefix2``, ... that are not in ``taken``."""
    numbered = (f"{prefix}{i}" for i in itertools.count(1))
    return list(itertools.islice((n for n in numbered if n not in taken), count))


class VarMap:
    """Bijection between symbolic variable keys and DIMACS variable indices,
    in numbering order.  ``new`` numbers each variable once; a variable read
    from several places is shared through a table."""

    def __init__(self) -> None:
        self._index: dict[tuple, int] = {}
        self._keys: list[tuple | None] = [None]

    def new(self, *key) -> int:
        """Number ``key`` with one dictionary operation.  A key that already
        has a variable raises ValueError and numbers nothing."""
        v = len(self._keys)
        if self._index.setdefault(key, v) != v:
            raise ValueError(f"variable {' '.join(map(str, key))} is already numbered")
        self._keys.append(key)
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
    """The CNF of a spec within a scope, with the variables that decoding
    reads.

    Besides the ``varmap``, the encoding keeps the encoder's own variable
    tables for the structural kinds and the two closures, keyed as the
    variables are: ``exists[c]``, ``parent[c][d]`` (c is d's parent),
    ``used[p]``, ``owner[p][c]``, ``pname[p][n]``, ``ptype[p][t]``,
    ``pin[p]``, ``conn[p][q]``, ``subt[c][d]`` (d is inside c) and
    ``reach[p][q]``, for slots ``p``, ``q``.  Each table holds exactly the
    variables of its kind, in numbering order.  They are handed over, not
    copied, and closed: looking up a key that has no variable raises
    KeyError, so reading them numbers nothing."""

    cnf: CnfInstance
    varmap: VarMap
    scope: Scope
    structural_vars: tuple[int, ...]
    exists: dict[str, int]
    parent: dict[str, dict[str, int]]
    used: dict[int, int]
    owner: list[dict[str, int]]
    pname: list[dict[str, int]]
    ptype: list[dict[str, int]]
    pin: dict[int, int]
    conn: list[dict[int, int]]
    subt: dict[str, dict[str, int]]
    reach: list[dict[int, int]]


def encode(spec: ResolvedSpec, scope: Scope | None = None) -> Encoding:
    if scope is None:
        scope = compute_scope(spec)
    return _Encoder(spec, scope).run()


class _Table(dict):
    """A dict that maps a missing key ``k`` to ``new(k)`` on its first
    lookup and keeps it.  The entries for ``keys`` are made up front, in
    order.  ``close`` ends the numbering: a missing key then raises KeyError."""

    __slots__ = ("new",)

    def __init__(self, new, keys=()):
        super().__init__()
        self.new = new
        for k in keys:
            self[k] = new(k)

    def __missing__(self, key):
        v = self[key] = self.new(key)
        return v

    def close(self) -> None:
        self.new = _no_variable


def _no_variable(key):
    raise KeyError(key)


class _Encoder:
    """Builds one encoding.

    Every variable is numbered once, by ``VarMap.new``.  A variable read
    from several places lives in a table (``par[c][d]``, ``portok[c, port]``,
    ...) that numbers it, and emits an auxiliary's defining clauses, on its
    first lookup.  The structural tables are filled when the encoder is
    made, in the structural order; every other table fills in the order the
    clauses first need its variables.  The clause groups append literal
    tuples to ``clauses`` directly, with no call per literal.
    ``tests/test_encoder.py`` pins the resulting CNF, numbering included.
    """

    def __init__(self, spec: ResolvedSpec, scope: Scope):
        self.spec = spec
        self.scope = scope
        self.vm = VarMap()
        self.clauses: list[tuple[int, ...]] = []
        self.groups: list[tuple[str, int, int]] = []
        self._group_start = 0
        self._group_label: str | None = None
        self._tseitin_n = 0
        self.comps = list(scope.components)
        self.slots = list(range(scope.ports))
        self.names = list(scope.port_names)
        self.types = list(scope.types)
        self._validate_scope()

        # Structural variables first, in a fixed order.
        comps, slots, new = self.comps, self.slots, self.vm.new
        self.ex = _Table(partial(new, "exists"), comps)
        self.par = {c: _Table(partial(new, "parent", c), [d for d in comps if d != c]) for c in comps}
        self.top = _Table(partial(new, "top"), comps)
        self.used = _Table(partial(new, "used"), slots)
        self.owner = [_Table(partial(new, "owner", p), comps) for p in slots]
        self.pname = [_Table(partial(new, "pname", p), self.names) for p in slots]
        self.pin = _Table(partial(new, "pin"), slots)
        self.ptype = [_Table(partial(new, "ptype", p), self.types) for p in slots]
        self.conn = [_Table(partial(new, "conn", p), [q for q in slots if q != p]) for p in slots]
        self.structural = tuple(range(1, self.vm.num_vars + 1))
        self.subt = {c: _Table(partial(new, "subt", c)) for c in comps}
        self.reach = [_Table(partial(new, "reach", p)) for p in slots]
        self.view = _Table(partial(new, "view"))
        # Shared auxiliaries, each defined where it is first needed.
        self.const = _Table(self._const)
        self.portok = _Table(self._port_ok)
        self.endsel = _Table(lambda end: _Table(partial(self._endpoint_sel, *end)))
        self.acok = _Table(self._abs_conn_ok)
        self.conncomp = _Table(self._conn_to_comp)

    def _validate_scope(self) -> None:
        spec = self.spec
        missing = [f"component {c!r}" for c in spec.component_names if c not in self.scope.components]
        missing += [f"port name {n!r}" for n in sorted({n for _, n in spec.declared_ports}.difference(self.names))]
        missing += [f"type {t!r}" for t in sorted(spec.types.difference(self.types))]
        if missing:
            raise EncodingError("; ".join(f"{m} missing from the scope" for m in missing))

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

    def _const(self, value: str) -> int:
        """The literal fixed to ``value`` ("true") by a unit clause."""
        v = self.vm.new("const", value)
        self.add(v)
        return v

    def _amo(self, lits: list[int]) -> None:
        self.clauses.extend((-a, -b) for i, a in enumerate(lits) for b in lits[i + 1:])

    def and_var(self, key: tuple, lits: list[int]) -> int:
        """A literal equivalent to the conjunction of ``lits``: a new ``key`` if two or more."""
        if len(lits) == 1:
            return lits[0]
        if not lits:
            return self.const["true"]
        v = self.vm.new(*key)
        self.clauses.extend((-v, l) for l in lits)
        self.clauses.append((v, *(-l for l in lits)))
        return v

    def or_var(self, key: tuple, lits: list[int]) -> int:
        """A literal equivalent to the disjunction of ``lits``: a new ``key`` if two or more."""
        if len(lits) == 1:
            return lits[0]
        if not lits:
            return -self.const["true"]
        v = self.vm.new(*key)
        self.clauses.extend((-l, v) for l in lits)
        self.clauses.append((-v, *lits))
        return v

    # -- top level -------------------------------------------------------------

    def run(self) -> Encoding:
        self._containment()
        self._transitive_containment()
        self._ports()
        self._symmetry()
        self._connectors()
        self._reachability()
        self._views()
        self._formula()
        self._closed_interfaces()
        self._style()
        self._port_identity()
        self.end()

        comments = [f"var {v} {self.vm.describe(v)}" for v in self.structural]
        cnf = CnfInstance(self.vm.num_vars, tuple(self.clauses), tuple(comments), tuple(self.groups))
        tables = (self.ex, self.used, self.pin, *self.par.values(), *self.owner, *self.pname,
                  *self.ptype, *self.conn, *self.subt.values(), *self.reach)
        # A closed table drops its definer, and with it any reference back to the encoder.
        for table in (*tables, self.const, self.portok, self.endsel, *self.endsel.values(), self.acok, self.conncomp):
            table.close()
        return Encoding(cnf, self.vm, self.scope, self.structural, self.ex, self.par, self.used,
                        self.owner, self.pname, self.ptype, self.pin, self.conn, self.subt, self.reach)

    # -- core well-formedness --------------------------------------------------

    def _containment(self) -> None:
        self.begin("containment")
        comps, ex, par, top = self.comps, self.ex, self.par, self.top
        emit = self.clauses.append
        for c in comps:
            pc = par[c]
            for d in comps:
                if c != d:
                    emit((-pc[d], ex[c]))
                    emit((-pc[d], ex[d]))
        parents = {d: [par[c][d] for c in comps if c != d] for d in comps}
        for d in comps:
            self._amo(parents[d])
        # top(c) <-> exists(c) and no parent.
        for c in comps:
            t = top[c]
            emit((-t, ex[c]))
            self.clauses.extend((-t, -v) for v in parents[c])
            emit((-ex[c], t, *parents[c]))
        members = self.spec.style.tops
        if not members:
            tops = [top[c] for c in comps]
            emit(tuple(tops))
            self._amo(tops)
        else:
            for c in comps:
                if c in members:
                    emit((ex[c],))
                    emit((top[c],))
                else:
                    emit((-top[c],))

    def _transitive_containment(self) -> None:
        self.begin("transitive-containment")
        comps, par, new = self.comps, self.par, self.vm.new
        emit = self.clauses.append
        subt = self.subt
        for c in comps:
            pc, sc = par[c], subt[c]
            for d in comps:
                if c != d:
                    emit((-pc[d], sc[d]))
        for c in comps:
            sc = subt[c]
            for e in comps:
                if e == c:
                    continue
                not_ce, pe = -sc[e], par[e]
                for d in comps:
                    if d != c and d != e:
                        emit((not_ce, -pe[d], sc[d]))
        # Upper bound: containment must be justified by a parent path.
        for c in comps:
            pc, sc = par[c], subt[c]
            for d in comps:
                if c == d:
                    continue
                witnesses = [pc[d]]
                for e in comps:
                    if e == c or e == d:
                        continue
                    w = new("subtstep", c, e, d)
                    emit((-w, sc[e]))
                    emit((-w, par[e][d]))
                    witnesses.append(w)
                emit((-sc[d], *witnesses))
        for i, c in enumerate(comps):
            sc = subt[c]
            for d in comps[i + 1:]:
                emit((-sc[d], -subt[d][c]))

    def _ports(self) -> None:
        self.begin("ports")
        ex, used, pin = self.ex, self.used, self.pin
        emit = self.clauses.append
        for p in self.slots:
            u = used[p]
            if p + 1 < len(self.slots):
                emit((-used[p + 1], u))
            owners = [self.owner[p][c] for c in self.comps]
            names = [self.pname[p][n] for n in self.names]
            ptypes = [self.ptype[p][t] for t in self.types]
            emit((-u, *owners))
            emit((-u, *names))
            emit((-u, *ptypes))
            for group in (owners, names, ptypes):
                self.clauses.extend((-l, u) for l in group)
                self._amo(group)
            self.clauses.extend((-o, ex[c]) for o, c in zip(owners, self.comps))
            emit((-pin[p], u))

    def _symmetry(self) -> None:
        self.begin("symmetry")
        comps, names, owner, pname = self.comps, self.names, self.owner, self.pname
        emit = self.clauses.append
        for p in self.slots[:-1]:
            o0, o1, n0, n1 = owner[p], owner[p + 1], pname[p], pname[p + 1]
            # Owner index never decreases along the slot prefix.
            for i, ci in enumerate(comps):
                for cj in comps[:i]:
                    emit((-o0[ci], -o1[cj]))
            # Within a same-owner block, port-name index strictly increases.
            sb = self.vm.new("sameowner", p)
            for c in comps:
                emit((-o0[c], -o1[c], sb))
            for i, ni in enumerate(names):
                for nj in names[: i + 1]:
                    emit((-sb, -n0[ni], -n1[nj]))

    # -- connectors ------------------------------------------------------------

    def _connectors(self) -> None:
        self.begin("connectors")
        comps, slots, types = self.comps, self.slots, self.types
        par, top, used, owner, pin, ptype, conn = (
            self.par, self.top, self.used, self.owner, self.pin, self.ptype, self.conn)
        pparent = [_Table(partial(self.vm.new, "pparent", p)) for p in slots]
        ptop = _Table(partial(self.vm.new, "ptop"))
        emit = self.clauses.append
        # pparent(p, c): the parent of slot p's owner is c.
        for p in slots:
            op, pp = owner[p], pparent[p]
            for c in comps:
                pc = par[c]
                for d in comps:
                    if c == d:
                        continue
                    emit((-op[d], -pc[d], pp[c]))
                    emit((-pp[c], -op[d], pc[d]))
            for d in comps:
                emit((-op[d], -top[d], ptop[p]))
                emit((-ptop[p], -op[d], top[d]))

        for p in slots:
            op, pp, ptype_p, ip = owner[p], pparent[p], ptype[p], pin[p]
            for q in slots:
                if p == q:
                    continue
                oq, pq, ptype_q, iq = owner[q], pparent[q], ptype[q], pin[q]
                cn = conn[p][q]
                emit((-cn, used[p]))
                emit((-cn, used[q]))
                for t in types:
                    emit((-cn, -ptype_p[t], ptype_q[t]))
                for c in comps:
                    emit((-cn, -op[c], -oq[c]))
                # Directions: IN -> OUT never occurs.
                emit((-cn, -ip, iq))
                # OUT -> IN: the owners are siblings (same parent, or both top).
                for c in comps:
                    emit((-cn, ip, -iq, -pp[c], pq[c]))
                    emit((-cn, ip, -iq, -pq[c], pp[c]))
                emit((-cn, ip, -iq, -ptop[p], ptop[q]))
                emit((-cn, ip, -iq, -ptop[q], ptop[p]))
                # IN -> IN: input forwarding, p's owner is the parent of q's.
                for c in comps:
                    emit((-cn, -ip, -iq, -op[c], pq[c]))
                # OUT -> OUT: output forwarding, q's owner is the parent of p's.
                for c in comps:
                    emit((-cn, ip, iq, -oq[c], pp[c]))
        # At most one incoming connector per port.
        for q in slots:
            self._amo([conn[p][q] for p in slots if p != q])

    def _reachability(self) -> None:
        self.begin("reachability")
        slots, conn, new = self.slots, self.conn, self.vm.new
        reach = self.reach
        emit = self.clauses.append
        for p in slots:
            rp, cp = reach[p], conn[p]
            for q in slots:
                if p == q:
                    continue
                emit((-cp[q], rp[q]))
                # Each step witness is a full biconditional: a true reach
                # literal must be justified by an edge or a witness, and
                # since connector graphs are acyclic the justification
                # chains ground out, making the decoded relation exactly
                # the transitive closure.
                witnesses = [cp[q]]
                for r in slots:
                    if r == p or r == q:
                        continue
                    s = new("reachstep", p, r, q)
                    crq = conn[r][q]
                    emit((-s, rp[r]))
                    emit((-s, crq))
                    emit((-rp[r], -crq, s))
                    emit((-s, rp[q]))
                    witnesses.append(s)
                emit((-rp[q], *witnesses))

    # -- views and the specification formula -----------------------------------

    def _port_ok(self, key: tuple[str, Port]) -> int:
        """``portok[c, port]``: some slot realizes c's declared port."""
        c, port = key
        n, d, t = port.name, port.direction.value, port.type
        sign = 1 if port.direction is Direction.IN else -1
        lits = []
        for p in self.slots:
            conj = [self.owner[p][c], self.pname[p][n], sign * self.pin[p]]
            if t is not None:
                conj.append(self.ptype[p][t])
            lits.append(self.and_var(("portsel", c, n, d, t, p), conj))
        return self.or_var(("portok", c, n, d, t), lits)

    def _endpoint_sel(self, c: str, n: str | None, t: str | None, p: int) -> int:
        """``endsel[c, n, t][p]``: slot p is c's, named n and typed t if given."""
        conj = [self.owner[p][c]]
        if n is not None:
            conj.append(self.pname[p][n])
        if t is not None:
            conj.append(self.ptype[p][t])
        return self.and_var(("endsel", c, n, t, p), conj)

    def _abs_conn_ok(self, ac: AbstractConnector) -> int:
        """``acok[ac]``: a chain joins a slot pair of ac's endpoints; each pair
        auxiliary is the conjunction of its three literals."""
        key = ("acok", ac.src_cmp, ac.src_port, ac.src_type, ac.tgt_cmp, ac.tgt_port, ac.tgt_type)
        src = self.endsel[ac.src_cmp, ac.src_port, ac.src_type]
        tgt = self.endsel[ac.tgt_cmp, ac.tgt_port, ac.tgt_type]
        reach, new, define = self.reach, self.vm.new, self.clauses.extend
        lits = []
        for p in self.slots:
            for q in self.slots:
                if p != q:
                    s, t, r = src[p], tgt[q], reach[p][q]
                    v = new(*key, "pair", p, q)
                    define(((-v, s), (-v, t), (-v, r), (v, -s, -t, -r)))
                    lits.append(v)
        return self.or_var(key, lits)

    def _element_lit(self, e: tuple) -> int:
        """The literal that holds iff the model has view element ``e``."""
        match e:
            case ("component", c):
                return self.ex[c]
            case ("port", c, port):
                return self.portok[c, port]
            case ("nested", a, b):
                return self.subt[a][b]
            case ("independent", a, b):
                return -self.subt[a][b]
            case ("connector", ac):
                return self.acok[ac]
        raise ValueError(f"unknown view element {e!r}")

    def _views(self) -> None:
        self.begin("views")
        for name in sorted(self.spec.views):
            # A view type is the type of one of its ports or connector ends, whose literal needs it.
            conjuncts = [self._element_lit(e) for e in self.spec.views[name].elements if e[0] != "type"]
            v = self.view[name]
            for l in conjuncts:
                self.add(-v, l)
            self.add(v, *(-l for l in conjuncts))

    def _formula_lit(self, f: Formula) -> int:
        if isinstance(f, Var):
            return self.view[f.name]
        if isinstance(f, Not):
            return -self._formula_lit(f.arg)
        lits = [self._formula_lit(a) for a in f.args]
        self._tseitin_n += 1
        key = ("faux", self._tseitin_n)
        if isinstance(f, And):
            return self.and_var(key, lits)
        return self.or_var(key, lits)

    def _formula(self) -> None:
        self.begin("formula")
        self.add(self._formula_lit(self.spec.formula))

    # -- global constraints ----------------------------------------------------

    def _closed_interface(self, c: str, ports: tuple[Port, ...]) -> None:
        """Component c, if present, has exactly ``ports``: each is realized,
        and a slot c owns carries one of their names, with that port's
        direction and (unless it is untyped) type."""
        for port in ports:
            n = port.name
            self.add(-self.ex[c], self.portok[c, port])
            pin_lit = 1 if port.direction is Direction.IN else -1
            for p in self.slots:
                self.add(-self.owner[p][c], -self.pname[p][n], pin_lit * self.pin[p])
                if port.type is not None:
                    self.add(-self.owner[p][c], -self.pname[p][n], self.ptype[p][port.type])
        names = sorted({port.name for port in ports})
        for p in self.slots:
            self.add(-self.owner[p][c], *(self.pname[p][n] for n in names))

    def _closed_interfaces(self) -> None:
        """Each closed interface, library declarations first: its component
        has exactly its ports, and a library component is also a leaf."""
        for c, ports, source in self.spec.closed_interfaces:
            label = "library" if source is None else "interface-complete"
            if label != self._group_label:
                self.begin(label)
            if source is None:
                for d in self.comps:
                    if d != c:
                        self.add(-self.ex[c], -self.par[c][d])
            self._closed_interface(c, ports)

    def _port_identity(self) -> None:
        """Implied clauses for the ports whose declarations disagree
        (``ResolvedSpec.port_clashes``), so that propagation refutes them.
        Names are unique per component, so every declaration of ``c.n``
        names one port, with one direction ``portin(c,n)`` and one type
        ``porttype(c,n,t)``; a closed interface that lacks ``n`` leaves no
        such port.  The new variables take their value from the port itself,
        so every model extends to them and no model is lost."""
        self.begin("port-identity")
        for clash in self.spec.port_clashes:
            c, n = clash.component, clash.name
            oks = {port: self.portok[c, port] for _, port in clash.declarations}
            if clash.lacking:
                self.clauses.extend((-ok,) for ok in oks.values())
                continue
            if len(clash.directions) > 1:
                pin = self.vm.new("portin", c, n)
                self.clauses.extend((-ok, pin if port.direction is Direction.IN else -pin)
                                    for port, ok in oks.items())
            if len(clash.types) > 1:
                ptype = {t: self.vm.new("porttype", c, n, t) for t in clash.types}
                self.clauses.extend((-ok, ptype[port.type]) for port, ok in oks.items()
                                    if port.type is not None)
                self._amo(list(ptype.values()))

    # -- styles ----------------------------------------------------------------

    def _conn_to_comp(self, key: tuple[int, str]) -> int:
        """``conncomp[p, b]``, a lower bound: slot p has a connector into b."""
        p, b = key
        v = self.vm.new("conncomp", p, b)
        for q in self.slots:
            if q != p:
                self.add(-self.conn[p][q], -self.owner[q][b], v)
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
            noinc[p] = self.vm.new("noinc", p)
            self.add(noinc[p], *(self.conn[r][p] for r in self.slots if r != p))
            noout[p] = self.vm.new("noout", p)
            self.add(noout[p], *(self.conn[p][r] for r in self.slots if r != p))
        ee = {(a, b): self.vm.new("ee", a, b)
              for a in self.comps for b in self.comps if a != b}
        snk = {}
        for q in self.slots:
            for b in self.comps:
                snk[(q, b)] = self.vm.new("eesnk", q, b)
                self.add(-noout[q], -self.owner[q][b], snk[(q, b)])
        for p in self.slots:
            for b in self.comps:
                er = self.vm.new("eereach", p, b)
                for q in self.slots:
                    if q != p:
                        self.add(-self.reach[p][q], -snk[(q, b)], er)
                for a in self.comps:
                    if a != b:
                        self.add(-noinc[p], -self.owner[p][a], -er, ee[(a, b)])
        eet = {(a, b): self.vm.new("eet", a, b)
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
                w = self.and_var(key + (p, q), [self.owner[p][a], self.owner[q][b], self.conn[p][q]])
                lits.append(w)
        return self.or_var(key, lits)

    def _style_client_server(self, server: str, clients: tuple[str, ...]) -> None:
        self.begin("style-client-server")
        for client in clients:
            self.add(self._direct_link(client, server), self._direct_link(server, client))
            for other in clients:
                if other != client:
                    for p in self.slots:
                        self.add(-self.owner[p][client], -self.conncomp[p, other])

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
                cconn[(a, b)] = self.vm.new("cconn", a, b)
                for p in self.slots:
                    self.add(-self.owner[p][a], -self.conncomp[p, b], cconn[(a, b)])
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
                            clause.append(-self.subt[t1][a])
                        if t2 != b:
                            clause.append(-self.subt[t2][b])
                        self.add(*clause)


# --- Decoding -----------------------------------------------------------------

def decode(enc: Encoding, literals: frozenset[int]) -> CncModel:
    """Read a model back from the true ``literals`` of a satisfying
    assignment of the encoding, through its structural tables (``exists``,
    ``parent``, ``used``, ``owner``, ``pname``, ``ptype``, ``pin`` and
    ``conn``); a variable with neither literal there reads False.  A used
    port slot with no owner, name or type raises ValueError naming the slot:
    no model of the encoding leaves one out."""
    existing = [c for c, v in enc.exists.items() if v in literals]
    alive = set(existing)
    children = {c: frozenset(d for d, v in enc.parent[c].items() if v in literals and d in alive)
                for c in existing}

    def first(p: int, kind: str, table: dict, among=None) -> str:
        for x, v in table.items():
            if v in literals and (among is None or x in among):
                return x
        raise ValueError(f"used port slot {p} has no {kind}")

    slot_ref: dict[int, PortRef] = {}
    ports: dict[str, list[Port]] = {c: [] for c in existing}
    for p, u in enc.used.items():
        if u not in literals:
            continue
        owner = first(p, "owner", enc.owner[p], alive)
        name = first(p, "pname", enc.pname[p])
        ptype = first(p, "ptype", enc.ptype[p])
        direction = Direction.IN if enc.pin[p] in literals else Direction.OUT
        ports[owner].append(Port(name, direction, ptype))
        slot_ref[p] = PortRef(owner, name)

    connectors = [Connector(slot_ref[p], slot_ref[q])
                  for p in slot_ref for q, v in enc.conn[p].items() if v in literals and q in slot_ref]
    components = [Component(c, tuple(ports[c]), children[c]) for c in existing]
    return CncModel(tuple(components), tuple(connectors))
