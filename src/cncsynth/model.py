"""Core domain types: C&C models, C&C views, and well-formedness validation.

A model is a complete architecture: a containment tree of named components
with typed, directed ports and concrete connectors.  A view is a partial
description: its subcomponent edges mean *transitive* containment, its ports
may leave the type unknown, and its abstract connectors stand for chains of
concrete connectors.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping, TypeVar

T = TypeVar("T")


class Direction(Enum):
    IN = "in"
    OUT = "out"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Port:
    """A named, directed port.  ``type`` may be None (unknown) in views only."""

    name: str
    direction: Direction
    type: str | None = None


@dataclass(frozen=True)
class Component:
    name: str
    ports: tuple[Port, ...] = ()
    subcomponents: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "ports", tuple(sorted(self.ports, key=lambda p: (p.name, p.direction.value))))
        object.__setattr__(self, "subcomponents", frozenset(self.subcomponents))

    def port(self, name: str) -> Port | None:
        for p in self.ports:
            if p.name == name:
                return p
        return None


@dataclass(frozen=True, order=True)
class PortRef:
    """A port identified by (component name, port name)."""

    component: str
    port: str

    def __str__(self) -> str:
        return f"{self.component}.{self.port}"


@dataclass(frozen=True, order=True)
class Connector:
    """A directed concrete connector between two ports of a model."""

    src: PortRef
    tgt: PortRef

    def __str__(self) -> str:
        return f"{self.src} -> {self.tgt}"


@dataclass(frozen=True, order=True)
class AbstractConnector:
    """A view-level edge: src component reaches tgt component by some chain.

    Port names / types at either endpoint are optional constraints; None
    leaves them unconstrained.
    """

    src_cmp: str
    tgt_cmp: str
    src_port: str | None = None
    tgt_port: str | None = None
    src_type: str | None = None
    tgt_type: str | None = None

    def __str__(self) -> str:
        src = self.src_cmp if self.src_port is None else f"{self.src_cmp}.{self.src_port}"
        tgt = self.tgt_cmp if self.tgt_port is None else f"{self.tgt_cmp}.{self.tgt_port}"
        return f"{src} -> {tgt}"


def _connector_key(ac: AbstractConnector) -> tuple[str, ...]:
    """Field order, with an absent port or type read as "" (None and str
    do not compare)."""
    return (ac.src_cmp, ac.tgt_cmp, ac.src_port or "", ac.tgt_port or "",
            ac.src_type or "", ac.tgt_type or "")


def _index(components: tuple[Component, ...]) -> dict[str, Component]:
    return {c.name: c for c in components}


def port_types(components: Iterable[Component]) -> frozenset[str]:
    """The types that the ports of ``components`` give; an untyped port
    gives none."""
    return frozenset(p.type for c in components for p in c.ports if p.type is not None)


@dataclass(frozen=True)
class CncModel:
    """A complete C&C model.  Canonicalized on construction, so ``==`` is
    structural equality."""

    components: tuple[Component, ...]
    connectors: tuple[Connector, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(sorted(self.components, key=lambda c: c.name)))
        object.__setattr__(self, "connectors", tuple(sorted(set(self.connectors))))

    @cached_property
    def types(self) -> frozenset[str]:
        """The types of the ports."""
        return port_types(self.components)

    @cached_property
    def by_name(self) -> dict[str, Component]:
        return _index(self.components)

    @cached_property
    def parent_map(self) -> dict[str, str]:
        """Child name -> parent name, from the immediate-subcomponent sets."""
        parents: dict[str, str] = {}
        for c in self.components:
            for child in c.subcomponents:
                parents.setdefault(child, c.name)
        return parents

    @cached_property
    def tops(self) -> tuple[str, ...]:
        return tuple(sorted(c.name for c in self.components if c.name not in self.parent_map))

    @cached_property
    def contains(self) -> frozenset[tuple[str, str]]:
        """Transitive closure of the model's containment edges."""
        return transitive_closure({c.name: c.subcomponents for c in self.components})

    @cached_property
    def reaches(self) -> frozenset[tuple[PortRef, PortRef]]:
        """Port pairs ``(p, q)`` joined by a chain of one or more connectors;
        ``(p, p)`` only through a cycle."""
        edges: dict[PortRef, list[PortRef]] = {}
        for conn in self.connectors:
            edges.setdefault(conn.src, []).append(conn.tgt)
        return transitive_closure(edges)

    @cached_property
    def rule_violations(self) -> tuple[Violation, ...]:
        """The model's broken well-formedness rules, the single-top rule
        included, in the order :func:`validate_model` reports them: the
        model is immutable, so each rule runs once per model."""
        return _rule_violations(self)

    @property
    def top(self) -> str:
        if len(self.tops) != 1:
            raise ValueError(f"model has {len(self.tops)} top components, expected 1")
        return self.tops[0]

    def component(self, name: str) -> Component:
        try:
            return self.by_name[name]
        except KeyError:
            raise LookupError(f"unknown component {name!r}") from None

    def port(self, ref: PortRef) -> Port:
        p = self.component(ref.component).port(ref.port)
        if p is None:
            raise LookupError(f"unknown port {ref}")
        return p


@dataclass(frozen=True)
class CncView:
    """A partial C&C view.  Subcomponent edges mean transitive containment.
    ``interface_complete`` names the components the view marks
    ``<<interface-complete>>``: each has exactly the ports the view gives it."""

    name: str
    components: tuple[Component, ...]
    abs_connectors: tuple[AbstractConnector, ...] = ()
    interface_complete: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(sorted(self.components, key=lambda c: c.name)))
        object.__setattr__(self, "abs_connectors", tuple(sorted(set(self.abs_connectors), key=_connector_key)))
        object.__setattr__(self, "interface_complete", frozenset(self.interface_complete))
        unknown = sorted(self.interface_complete.difference(self.by_name))
        if unknown:
            raise ValueError(f"view {self.name!r} marks unknown component {unknown[0]!r} interface-complete")
        ends = {c for ac in self.abs_connectors for c in (ac.src_cmp, ac.tgt_cmp)}
        unknown = sorted(ends.difference(self.by_name))
        if unknown:
            raise ValueError(f"view {self.name!r} connects unknown component {unknown[0]!r}")

    @cached_property
    def types(self) -> frozenset[str]:
        """The types of the ports and of the abstract-connector ends."""
        ends = {t for ac in self.abs_connectors for t in (ac.src_type, ac.tgt_type) if t is not None}
        return port_types(self.components) | ends

    @cached_property
    def by_name(self) -> dict[str, Component]:
        return _index(self.components)

    @cached_property
    def contains(self) -> frozenset[tuple[str, str]]:
        """Transitive closure of the view's declared containment edges."""
        return transitive_closure({c.name: c.subcomponents for c in self.components})

    @cached_property
    def elements(self) -> tuple[tuple, ...]:
        """What a model must have to satisfy the view, one tagged element
        each, in this order: ``("type", t)`` for each type (sorted); for each
        component, ``("component", c)`` then ``("port", c, port)`` for each
        of its ports; ``("nested", a, b)`` or ``("independent", a, b)`` for
        each ordered pair of distinct components, as the view does or does
        not nest ``b`` in ``a``; and ``("connector", ac)`` for each abstract
        connector.  The checker reads them all; the encoder skips the types."""
        out = [("type", t) for t in sorted(self.types)]
        for c in self.components:
            out += [("component", c.name), *(("port", c.name, p) for p in c.ports)]
        out += [("nested" if (a, b) in self.contains else "independent", a, b)
                for a in self.by_name for b in self.by_name if a != b]
        return (*out, *(("connector", ac) for ac in self.abs_connectors))


def transitive_closure(edges: Mapping[T, Iterable[T]]) -> frozenset[tuple[T, T]]:
    """All pairs ``(a, b)`` joined by a path of one or more edges that starts
    at a key ``a`` of ``edges``; ``(a, a)`` marks a cycle through ``a``."""
    pairs: set[tuple[T, T]] = set()
    for root in edges:
        seen: set[T] = set()
        work = deque(edges[root])
        while work:
            n = work.popleft()
            if n in seen:
                continue
            seen.add(n)
            work.extend(edges.get(n, ()))
        pairs.update((root, d) for d in seen)
    return frozenset(pairs)


@dataclass(frozen=True)
class Violation:
    """One broken well-formedness rule; validation reports data, not errors."""

    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.subject}: {self.message}"


def validate_model(m: CncModel, allow_multiple_tops: bool = False) -> list[Violation]:
    """Check every well-formedness rule of a C&C model.

    Returns an empty list iff the model is well-formed.  With
    ``allow_multiple_tops`` the single-top rule is relaxed (used by the
    client-server and layered styles, which designate several top
    components).  The rules run once per model (see
    :attr:`CncModel.rule_violations`).
    """
    if allow_multiple_tops:
        return [v for v in m.rule_violations if v.code != "top-count"]
    return list(m.rule_violations)


def _rule_violations(m: CncModel) -> tuple[Violation, ...]:
    """The violations of every rule of :func:`validate_model`, the
    single-top rule included."""
    out: list[Violation] = []
    names = [c.name for c in m.components]
    for n in sorted(set(x for x in names if names.count(x) > 1)):
        out.append(Violation("duplicate-component", n, "component name declared more than once"))
    known = set(names)

    # Containment: edges resolve, every child has one parent, no cycles.
    child_parents: dict[str, list[str]] = {}
    for c in m.components:
        for child in sorted(c.subcomponents):
            if child not in known:
                out.append(Violation("unknown-subcomponent", c.name, f"subcomponent {child!r} is not a component"))
            elif child == c.name:
                out.append(Violation("containment-cycle", c.name, "component contains itself"))
            else:
                child_parents.setdefault(child, []).append(c.name)
    for child, parents in sorted(child_parents.items()):
        if len(parents) > 1:
            out.append(Violation("multiple-parents", child, f"contained in {', '.join(sorted(parents))}"))
    edges = {c.name: {s for s in c.subcomponents if s in known and s != c.name} for c in m.components}
    for a, b in sorted(transitive_closure(edges)):
        if a == b:
            out.append(Violation("containment-cycle", a, "containment cycle through component"))
    if not m.components:
        out.append(Violation("empty-model", "<model>", "model has no components"))
    elif len(m.tops) != 1:
        out.append(Violation("top-count", ", ".join(m.tops) or "<none>",
                             f"model has {len(m.tops)} top components, expected exactly 1"))

    # Ports: a type each, unique names per component.
    for c in m.components:
        seen_ports: set[str] = set()
        for p in c.ports:
            if p.type is None:
                out.append(Violation("unknown-type", f"{c.name}.{p.name}", "model port with unknown type"))
            if p.name in seen_ports:
                out.append(Violation("duplicate-port", f"{c.name}.{p.name}", "port name reused within component"))
            seen_ports.add(p.name)

    # Connectors: endpoints resolve, equal types, legal placement/direction,
    # at most one incoming connector per port.
    incoming: dict[PortRef, list[Connector]] = {}
    for conn in m.connectors:
        ok = True
        for ref in (conn.src, conn.tgt):
            try:
                m.port(ref)
            except LookupError:
                out.append(Violation("unknown-port", str(ref), "connector endpoint does not exist"))
                ok = False
        if not ok:
            continue
        sp, tp = m.port(conn.src), m.port(conn.tgt)
        if sp.type != tp.type:
            out.append(Violation("type-mismatch", str(conn), f"connects {sp.type!r} to {tp.type!r}"))
        sc, tc = conn.src.component, conn.tgt.component
        if sc == tc:
            out.append(Violation("self-connector", str(conn), "connector within a single component"))
        elif m.parent_map.get(sc) == m.parent_map.get(tc):
            # Siblings (or two tops): plain dataflow, OUT -> IN.
            if sp.direction != Direction.OUT or tp.direction != Direction.IN:
                out.append(Violation("direction", str(conn), "sibling connector must go OUT -> IN"))
        elif m.parent_map.get(tc) == sc:
            if sp.direction != Direction.IN or tp.direction != Direction.IN:
                out.append(Violation("direction", str(conn), "input forwarding must go IN -> IN"))
        elif m.parent_map.get(sc) == tc:
            if sp.direction != Direction.OUT or tp.direction != Direction.OUT:
                out.append(Violation("direction", str(conn), "output forwarding must go OUT -> OUT"))
        else:
            out.append(Violation("locality", str(conn), "endpoints are neither siblings nor parent/immediate child"))
        incoming.setdefault(conn.tgt, []).append(conn)
    for ref, conns in sorted(incoming.items()):
        if len(conns) > 1:
            out.append(Violation("two-incoming", str(ref), f"port has {len(conns)} incoming connectors"))
    return tuple(out)


def contains_transitive(m: CncModel, parent: str, child: str) -> bool:
    """True iff ``child`` is strictly inside ``parent`` in the containment tree."""
    m.component(parent)
    m.component(child)
    return (parent, child) in m.contains
