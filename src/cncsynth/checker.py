"""Polynomial-time satisfaction checking: model vs. view, judged element by
element of :attr:`CncView.elements`, and model vs. full specification
(including styles, library components, and interface completeness)."""

from __future__ import annotations

from dataclasses import dataclass

from cncsynth.model import (
    CncModel,
    CncView,
    Component,
    Port,
    PortRef,
    transitive_closure,
    validate_model,
)
from cncsynth.speclang import (
    ResolvedSpec,
    StyleConfig,
    StyleKind,
    evaluate_formula,
)


class IllFormedModelError(Exception):
    def __init__(self, violations):
        super().__init__("; ".join(str(v) for v in violations))
        self.violations = violations


@dataclass(frozen=True)
class ViewViolation:
    kind: str  # one of REPORT_ORDER, for the kind of view element broken
    subject: str
    explanation: str

    def __str__(self) -> str:
        return f"{self.kind} {self.subject}: {self.explanation}"


# The kinds of view violation, in the order a view's violations are
# reported; CONTAINMENT and INDEPENDENCE share a place.
REPORT_ORDER = {"MISSING_TYPE": 0, "MISSING_COMPONENT": 1, "PORT_MISMATCH": 2,
                "CONTAINMENT": 3, "INDEPENDENCE": 3, "NO_CHAIN": 4}


@dataclass(frozen=True)
class SatisfactionResult:
    satisfied: bool
    violations: tuple[ViewViolation, ...]


def _endpoint_ports(c: Component, port_name: str | None, port_type: str | None) -> list[PortRef]:
    """Ports of model component ``c`` admissible as a chain endpoint."""
    return [PortRef(c.name, p.name) for p in c.ports
            if port_name in (None, p.name) and port_type in (None, p.type)]


def _has_port(c: Component, p: Port) -> bool:
    """``c`` has a port with ``p``'s name and direction, and with its type
    unless ``p`` is untyped."""
    mp = c.port(p.name)
    return mp is not None and mp.direction == p.direction and p.type in (None, mp.type)


def _require_well_formed(m: CncModel, allow_multiple_tops: bool) -> None:
    bad = validate_model(m, allow_multiple_tops=allow_multiple_tops)
    if bad:
        raise IllFormedModelError(bad)


def satisfies(m: CncModel, v: CncView) -> SatisfactionResult:
    """Check whether model ``m`` satisfies view ``v``; raise
    :class:`IllFormedModelError` unless ``m`` is well-formed with one top.

    Inclusion of types/components/ports, the containment biconditional
    (view containment iff model transitive containment, so unrelated view
    components must be independent in the model), and a connector chain for
    every abstract connector, read off the model's cached connector closure
    :attr:`CncModel.reaches`, so polynomial.
    """
    _require_well_formed(m, allow_multiple_tops=False)
    return _judge_view(m, v)


def _judge_view(m: CncModel, v: CncView) -> SatisfactionResult:
    """:func:`satisfies` for a model already validated: one violation per
    element of :attr:`CncView.elements` that ``m`` lacks, but none for an
    element on a component that ``m`` lacks (its MISSING_COMPONENT says
    so), reported grouped by kind in :data:`REPORT_ORDER`."""
    violations: list[ViewViolation] = []
    report = violations.append
    for e in v.elements:
        match e:
            case ("type", t) if t not in m.types:
                report(ViewViolation("MISSING_TYPE", t, "type not present in the model"))
            case ("component", c) if c not in m.by_name:
                report(ViewViolation("MISSING_COMPONENT", c, "component not present in the model"))
            case ("port", c, p) if c in m.by_name and not _has_port(m.by_name[c], p):
                want = p.type if p.type is not None else "?"
                report(ViewViolation("PORT_MISMATCH", f"{c}.{p.name}",
                                     f"model has no {p.direction.value} port {p.name!r} of type {want}"))
            case ("nested", a, b) if a in m.by_name and b in m.by_name and (a, b) not in m.contains:
                report(ViewViolation("CONTAINMENT", f"{a} > {b}", "view containment not realized in the model"))
            case ("independent", a, b) if a in m.by_name and b in m.by_name and (a, b) in m.contains:
                report(ViewViolation("INDEPENDENCE", f"{a} > {b}",
                                     "model nests components the view keeps independent"))
            case ("connector", ac) if ac.src_cmp in m.by_name and ac.tgt_cmp in m.by_name:
                sources = _endpoint_ports(m.by_name[ac.src_cmp], ac.src_port, ac.src_type)
                targets = _endpoint_ports(m.by_name[ac.tgt_cmp], ac.tgt_port, ac.tgt_type)
                if not any((p, q) in m.reaches for p in sources for q in targets):
                    report(ViewViolation("NO_CHAIN", str(ac), "no connector chain realizes the abstract connector"))
    violations.sort(key=lambda x: REPORT_ORDER[x.kind])
    return SatisfactionResult(not violations, tuple(violations))


# --- Full-specification evaluation -------------------------------------------

@dataclass(frozen=True)
class StyleViolation:
    subject: str
    explanation: str

    def __str__(self) -> str:
        return f"{self.subject}: {self.explanation}"


@dataclass(frozen=True)
class EvaluationResult:
    overall: bool
    per_view: dict[str, bool]
    formula_value: bool
    constraint_violations: tuple[StyleViolation, ...]


def _closed_interface_violations(m: CncModel, spec: ResolvedSpec) -> list[StyleViolation]:
    """A library component has no subcomponents, and a library or
    interface-complete component has exactly its declared ports."""
    out = [StyleViolation(d.name, "library component has subcomponents")
           for d in spec.library if d.name in m.by_name and m.by_name[d.name].subcomponents]
    for name, ports, view in spec.closed_interfaces:
        c = m.by_name.get(name)
        # Port names are unique on both sides, so equal counts and every
        # declared port present mean the same ports.
        if c is not None and (len(c.ports) != len(ports) or not all(_has_port(c, p) for p in ports)):
            source = "library declaration" if view is None else f"interface-complete marking in view {view}"
            out.append(StyleViolation(name, f"interface differs from the {source}"))
    return out


def end_to_end_graph(m: CncModel) -> set[tuple[str, str]]:
    """Component pairs (c1, c2) with an end-to-end connection: a chain from a
    port of c1 with no incoming connector to a port of c2 with no outgoing
    connector."""
    has_incoming = {c.tgt for c in m.connectors}
    has_outgoing = {c.src for c in m.connectors}
    return {(p.component, q.component) for p, q in m.reaches
            if p not in has_incoming and q not in has_outgoing}


def _cycle_violations(edges: set[tuple[str, str]]) -> list[StyleViolation]:
    adj: dict[str, set[str]] = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
    return [StyleViolation(a, "end-to-end communication cycle through component")
            for a, b in sorted(transitive_closure(adj)) if a == b]


def _style_violations(m: CncModel, style: StyleConfig) -> list[StyleViolation]:
    out: list[StyleViolation] = []
    if style.kind is StyleKind.NONE:
        return out
    if style.kind is StyleKind.HIERARCHICAL:
        return _cycle_violations(end_to_end_graph(m))

    if style.kind is StyleKind.CLIENT_SERVER:
        if set(m.tops) != set(style.tops):
            out.append(StyleViolation(", ".join(m.tops), "top components are not exactly the server and clients"))
        direct: dict[str, set[str]] = {}
        for conn in m.connectors:
            direct.setdefault(conn.src.component, set()).add(conn.tgt.component)
        for client in style.clients:
            if client not in m.by_name:
                out.append(StyleViolation(client, "client missing from the model"))
                continue
            linked = style.server in direct.get(client, ()) or client in direct.get(style.server, ())
            if not linked:
                out.append(StyleViolation(client, "client is not immediately connected to the server"))
            for other in style.clients:
                if other != client and other in direct.get(client, ()):
                    out.append(StyleViolation(f"{client} -> {other}", "direct connector between two clients"))
        return out

    # Layered: tops are the layer members; direct connectors only within a
    # layer or between consecutive layers (judged by top-level ancestors).
    if set(m.tops) != set(style.tops):
        out.append(StyleViolation(", ".join(m.tops), "top components are not exactly the layer members"))
    layer_of: dict[str, int] = {}
    for i, layer in enumerate(style.layers):
        for c in layer:
            layer_of[c] = i
    tops = set(m.tops)
    top_of = {d: a for a, d in m.contains if a in tops} | {t: t for t in tops}
    for conn in m.connectors:
        li, lj = (layer_of.get(top_of.get(ref.component)) for ref in (conn.src, conn.tgt))
        if li is None or lj is None or abs(li - lj) > 1:
            out.append(StyleViolation(str(conn), "connector crosses non-consecutive layers"))
    return out


def evaluate_spec(m: CncModel, spec: ResolvedSpec) -> EvaluationResult:
    """Full post-hoc verification of a model against a resolved specification:
    the pattern-expanded formula over per-view satisfaction, plus library,
    interface-complete, and style conformance.  Raises
    :class:`IllFormedModelError` first if ``m`` is ill-formed; the style's
    top-level members may be several tops."""
    _require_well_formed(m, allow_multiple_tops=bool(spec.style.tops))
    per_view = {name: _judge_view(m, view).satisfied for name, view in sorted(spec.views.items())}
    formula_value = evaluate_formula(spec.formula, per_view)
    constraint_violations = (
        _closed_interface_violations(m, spec)
        + _style_violations(m, spec.style)
    )
    return EvaluationResult(
        overall=formula_value and not constraint_violations,
        per_view=per_view,
        formula_value=formula_value,
        constraint_violations=tuple(constraint_violations),
    )
