"""Specification layer: Boolean formulas over views, patterns, library
components, and architectural styles."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from cncsynth.model import CncView, Component, Direction, Port, port_types


# --- Boolean formulas over view names ---------------------------------------

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Not:
    arg: "Formula"


@dataclass(frozen=True)
class And:
    args: tuple["Formula", ...]

    def __init__(self, args) -> None:
        object.__setattr__(self, "args", tuple(args))


@dataclass(frozen=True)
class Or:
    args: tuple["Formula", ...]

    def __init__(self, args) -> None:
        object.__setattr__(self, "args", tuple(args))


Formula = Var | Not | And | Or


def formula_vars(f: Formula) -> set[str]:
    if isinstance(f, Var):
        return {f.name}
    if isinstance(f, Not):
        return formula_vars(f.arg)
    out: set[str] = set()
    for a in f.args:
        out |= formula_vars(a)
    return out


def evaluate_formula(f: Formula, valuation: dict[str, bool]) -> bool:
    if isinstance(f, Var):
        return valuation[f.name]
    if isinstance(f, Not):
        return not evaluate_formula(f.arg, valuation)
    if isinstance(f, And):
        return all(evaluate_formula(a, valuation) for a in f.args)
    return any(evaluate_formula(a, valuation) for a in f.args)


def format_formula(f: Formula) -> str:
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Not):
        return f"!{format_formula(f.arg)}" if isinstance(f.arg, Var) else f"!({format_formula(f.arg)})"
    op = " && " if isinstance(f, And) else " || "
    parts = []
    for a in f.args:
        s = format_formula(a)
        if isinstance(a, (And, Or)) and type(a) is not type(f):
            s = f"({s})"
        parts.append(s)
    return op.join(parts) if parts else ("1" if isinstance(f, And) else "0")


# --- Patterns and styles -----------------------------------------------------

class PatternKind(Enum):
    ALT = "alt"
    XALT = "xalt"
    IMP = "imp"
    NOCOMP = "nocomp"


@dataclass(frozen=True)
class Pattern:
    """ALT/XALT over >= 1 view names, IMP over two (second optionally
    negated), NOCOMP over one component name."""

    kind: PatternKind
    args: tuple[str, ...]
    negated_second: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))
        n = len(self.args)
        if self.kind in (PatternKind.ALT, PatternKind.XALT) and n < 1:
            raise ValueError(f"{self.kind.value} needs at least one view")
        if self.kind is PatternKind.IMP and n != 2:
            raise ValueError("imp needs exactly two views")
        if self.kind is PatternKind.NOCOMP and n != 1:
            raise ValueError("nocomp names exactly one component")
        if self.negated_second and self.kind is not PatternKind.IMP:
            raise ValueError("only imp supports a negated second argument")


class StyleKind(Enum):
    NONE = "none"
    HIERARCHICAL = "hierarchical"
    CLIENT_SERVER = "client-server"
    LAYERED = "layered"


@dataclass(frozen=True)
class StyleConfig:
    kind: StyleKind = StyleKind.NONE
    server: str | None = None
    clients: tuple[str, ...] = ()
    layers: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "clients", tuple(self.clients))
        object.__setattr__(self, "layers", tuple(tuple(l) for l in self.layers))
        if self.kind is StyleKind.CLIENT_SERVER:
            if not self.server or not self.clients:
                raise ValueError("client-server style needs a server and at least one client")
            if self.server in self.clients:
                raise ValueError("the server cannot also be a client")
            if repeated := [c for i, c in enumerate(self.clients) if c in self.clients[:i]]:
                raise ValueError(f"client {repeated[0]!r} is listed twice")
        if self.kind is StyleKind.LAYERED:
            if len(self.layers) < 2 or any(not l for l in self.layers):
                raise ValueError("layered style needs at least two nonempty layers")
            flat = [c for l in self.layers for c in l]
            if len(flat) != len(set(flat)):
                raise ValueError("layers must be disjoint")

    @property
    def tops(self) -> tuple[str, ...]:
        """The components the style makes top-level: the server and clients,
        or the layer members; none for the other styles."""
        if self.kind is StyleKind.CLIENT_SERVER:
            return (self.server, *self.clients)
        if self.kind is StyleKind.LAYERED:
            return tuple(c for layer in self.layers for c in layer)
        return ()


@dataclass(frozen=True)
class ScopeHints:
    ports: int | None = None
    extra_names: int | None = None
    extra_types: int | None = None

    def __post_init__(self) -> None:
        for key, n in (("ports", self.ports), ("extra-names", self.extra_names),
                       ("extra-types", self.extra_types)):
            if n is not None and n < 0:
                raise ValueError(f"scope count {key} must not be negative, got {n}")


@dataclass(frozen=True)
class ViewSpec:
    """A specification before resolution.  Each library entry is a black-box
    component: a leaf with exactly its ports."""

    name: str
    views: tuple[CncView, ...]
    formula: Formula
    patterns: tuple[Pattern, ...] = ()
    library: tuple[Component, ...] = ()
    style: StyleConfig = StyleConfig()
    scope_hints: ScopeHints = ScopeHints()

    def __post_init__(self) -> None:
        object.__setattr__(self, "views", tuple(self.views))
        object.__setattr__(self, "patterns", tuple(self.patterns))
        object.__setattr__(self, "library", tuple(self.library))


def nocomp_view_name(component: str) -> str:
    return f"_no_{component}"


def implicit_views(spec: ViewSpec) -> list[CncView]:
    """Single-component views synthesized for each NOCOMP pattern."""
    out = []
    for pat in spec.patterns:
        if pat.kind is PatternKind.NOCOMP:
            cmp = pat.args[0]
            out.append(CncView(nocomp_view_name(cmp), (Component(cmp),)))
    return out


def _expand_one(pat: Pattern) -> Formula:
    if pat.kind is PatternKind.ALT:
        return Or(Var(v) for v in pat.args)
    if pat.kind is PatternKind.XALT:
        at_least = Or(Var(v) for v in pat.args)
        pairwise = [Not(And((Var(a), Var(b))))
                    for i, a in enumerate(pat.args) for b in pat.args[i + 1:]]
        return And([at_least, *pairwise])
    if pat.kind is PatternKind.IMP:
        a, b = pat.args
        conseq: Formula = Not(Var(b)) if pat.negated_second else Var(b)
        return Or((Not(Var(a)), conseq))
    return Not(Var(nocomp_view_name(pat.args[0])))


def expand_patterns(spec: ViewSpec) -> Formula:
    """The spec formula conjoined with the expansion of every pattern."""
    if not spec.patterns:
        return spec.formula
    return And([spec.formula, *(_expand_one(p) for p in spec.patterns)])


# --- Resolution --------------------------------------------------------------

@dataclass(frozen=True)
class PortClash:
    """Declarations of one port ``component.name`` that no model meets
    together.  Port names are unique per component, so every declaration of
    ``component.name`` names the same port, which has one direction and one
    type; yet these ``declarations`` disagree on its direction or type, or
    the closed interfaces in ``lacking`` leave the name out.  A source is a
    view name, or None for the library."""

    component: str
    name: str
    declarations: tuple[tuple[str | None, Port], ...]
    lacking: tuple[str | None, ...] = ()

    @property
    def directions(self) -> frozenset[Direction]:
        return frozenset(p.direction for _, p in self.declarations)

    @property
    def types(self) -> tuple[str, ...]:
        """The declared types, sorted; an untyped declaration adds none."""
        return tuple(sorted({p.type for _, p in self.declarations} - {None}))

    @property
    def disagrees(self) -> bool:
        return bool(self.lacking) or len(self.directions) > 1 or len(self.types) > 1

    def __str__(self) -> str:
        directions, types = len(self.directions) > 1, len(self.types) > 1
        parts = []
        for source, p in self.declarations:
            what = [("input" if p.direction is Direction.IN else "output")] if directions else []
            what += [p.type or "?"] if types else []
            parts.append(f"{' '.join(what) or 'declared'} in {'the library' if source is None else source}")
        parts += ["absent from the library interface" if s is None
                  else f"absent from the interface {s} marks complete" for s in self.lacking]
        return f"port {self.component}.{self.name}: {', '.join(parts)}"


class SpecResolutionError(Exception):
    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass(frozen=True)
class ResolvedSpec:
    """A name-resolved specification: all views (including implicit NOCOMP
    views) keyed by name, and ``formula``, the spec formula conjoined with
    the expansion of every pattern."""

    name: str
    views: dict[str, CncView]
    formula: Formula
    library: tuple[Component, ...]
    style: StyleConfig
    scope_hints: ScopeHints

    @property
    def component_names(self) -> list[str]:
        names = {c.name for v in self.views.values() for c in v.components}
        names.update(l.name for l in self.library)
        names.update(self.style.tops)
        return sorted(names)

    @cached_property
    def declared_ports(self) -> frozenset[tuple[str, str]]:
        """The (component, port name) pairs the spec declares: the views'
        ports, the ports abstract connectors name, and library interfaces."""
        views = self.views.values()
        pairs = {(c.name, p.name) for v in views for c in v.components for p in c.ports}
        pairs.update((c, n) for v in views for ac in v.abs_connectors
                     for c, n in ((ac.src_cmp, ac.src_port), (ac.tgt_cmp, ac.tgt_port)) if n is not None)
        pairs.update((d.name, p.name) for d in self.library for p in d.ports)
        return frozenset(pairs)

    @cached_property
    def closed_interfaces(self) -> tuple[tuple[str, tuple[Port, ...], str | None], ...]:
        """``(component, ports, source)`` for each closed interface: each
        library entry (source None), then each interface-complete mark
        (source: its view), sorted by view and component.  A present
        component has exactly these ports."""
        closed = [(d.name, d.ports, None) for d in self.library]
        marks = sorted((v.name, c) for v in self.views.values() for c in v.interface_complete)
        closed += [(c, self.views[v].by_name[c].ports, v) for v, c in marks]
        return tuple(closed)

    @cached_property
    def port_clashes(self) -> tuple[PortClash, ...]:
        """The ports whose declarations no model meets together, sorted by
        component and name.  The declarations of a port are those of the
        views, in view-name order, then the library's."""
        decls: dict[tuple[str, str], list[tuple[str | None, Port]]] = {}
        for vname in sorted(self.views):
            for c in self.views[vname].components:
                for p in c.ports:
                    decls.setdefault((c.name, p.name), []).append((vname, p))
        for d in self.library:
            for p in d.ports:
                decls.setdefault((d.name, p.name), []).append((None, p))
        clashes = (PortClash(c, n, tuple(ds), tuple(src for cc, ports, src in self.closed_interfaces
                                                     if cc == c and all(p.name != n for p in ports)))
                   for (c, n), ds in sorted(decls.items()))
        return tuple(clash for clash in clashes if clash.disagrees)

    @cached_property
    def types(self) -> frozenset[str]:
        """The types the views and library interfaces declare."""
        return port_types(self.library).union(*(v.types for v in self.views.values()))


def resolve(spec: ViewSpec) -> ResolvedSpec:
    """Bind all references; raise SpecResolutionError listing every problem."""
    errors: list[str] = []
    views: dict[str, CncView] = {}
    for v in spec.views:
        if v.name in views:
            errors.append(f"duplicate view name {v.name!r}")
        views[v.name] = v
    for v in implicit_views(spec):
        if v.name in views:
            errors.append(f"view name {v.name!r} collides with a NOCOMP expansion")
        views[v.name] = v

    for name in sorted(formula_vars(spec.formula)):
        if name not in views:
            errors.append(f"formula references unknown view {name!r}")
    for pat in spec.patterns:
        if pat.kind is not PatternKind.NOCOMP:
            for v in pat.args:
                if v not in views:
                    errors.append(f"pattern {pat.kind.value} references unknown view {v!r}")

    # A library component is a black box: neither it nor a view may give it
    # subcomponents.
    lib_names = set()
    for decl in spec.library:
        if decl.name in lib_names:
            errors.append(f"duplicate library declaration for {decl.name!r}")
        lib_names.add(decl.name)
        port_names = [p.name for p in decl.ports]
        if len(port_names) != len(set(port_names)):
            errors.append(f"library component {decl.name!r} repeats a port name")
        if decl.subcomponents:
            errors.append(f"library component {decl.name!r} has subcomponents")
        for v in spec.views:
            cmp = v.by_name.get(decl.name)
            if cmp is not None and cmp.subcomponents:
                errors.append(
                    f"view {v.name!r} declares subcomponents for library component {decl.name!r}")

    all_components = {c.name for v in views.values() for c in v.components} | lib_names
    for c in spec.style.tops:
        if c not in all_components:
            errors.append(f"style references unknown component {c!r}")

    if errors:
        raise SpecResolutionError(errors)
    return ResolvedSpec(
        name=spec.name,
        views=views,
        formula=expand_patterns(spec),
        library=spec.library,
        style=spec.style,
        scope_hints=spec.scope_hints,
    )
