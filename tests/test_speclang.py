"""Formulas, patterns, and specification resolution."""

from __future__ import annotations

import pytest

from cncsynth.model import CncView, Component, Direction, Port
from cncsynth.speclang import (
    And,
    Not,
    Or,
    Pattern,
    PatternKind,
    ScopeHints,
    SpecResolutionError,
    StyleConfig,
    StyleKind,
    Var,
    ViewSpec,
    evaluate_formula,
    expand_patterns,
    format_formula,
    formula_vars,
    implicit_views,
    nocomp_view_name,
    resolve,
)


def view(name: str) -> CncView:
    return CncView(name, [Component("C" + name)])


def spec_with(patterns=(), **kw) -> ViewSpec:
    views = (view("A"), view("B"), view("C"))
    return ViewSpec("s", views, Var("A"), patterns=tuple(patterns), **kw)


def test_formula_helpers():
    f = Or((And((Var("A"), Not(Var("B")))), Var("C")))
    assert formula_vars(f) == {"A", "B", "C"}
    assert evaluate_formula(f, {"A": True, "B": False, "C": False})
    assert not evaluate_formula(f, {"A": True, "B": True, "C": False})
    assert format_formula(f) == "(A && !B) || C"


def test_imp_expansion():
    s = spec_with([Pattern(PatternKind.IMP, ("A", "B"))])
    f = expand_patterns(s)
    assert f == And([Var("A"), Or((Not(Var("A")), Var("B")))])


def test_imp_negated_second():
    s = spec_with([Pattern(PatternKind.IMP, ("A", "B"), negated_second=True)])
    f = expand_patterns(s)
    assert f == And([Var("A"), Or((Not(Var("A")), Not(Var("B"))))])


def test_alt_and_xalt_expansion():
    s = spec_with([Pattern(PatternKind.ALT, ("A", "B"))])
    assert expand_patterns(s) == And([Var("A"), Or((Var("A"), Var("B")))])

    s = spec_with([Pattern(PatternKind.XALT, ("A", "B", "C"))])
    f = expand_patterns(s)
    # at-least-one plus pairwise mutual exclusion: semantics = exactly one.
    # Check on the expansion conjuncts only (skip the base formula).
    expansion = And(f.args[1:])
    assert evaluate_formula(expansion, {"A": True, "B": False, "C": False})
    assert not evaluate_formula(expansion, {"A": True, "B": True, "C": False})
    assert not evaluate_formula(expansion, {"A": False, "B": False, "C": False})


def test_nocomp_creates_implicit_view_and_negation():
    s = spec_with([Pattern(PatternKind.NOCOMP, ("Widget",))])
    (iv,) = implicit_views(s)
    assert iv.name == nocomp_view_name("Widget")
    assert [c.name for c in iv.components] == ["Widget"]
    f = expand_patterns(s)
    assert Not(Var(nocomp_view_name("Widget"))) in f.args


def test_pattern_arity_validation():
    with pytest.raises(ValueError):
        Pattern(PatternKind.IMP, ("A",))
    with pytest.raises(ValueError):
        Pattern(PatternKind.NOCOMP, ("A", "B"))
    with pytest.raises(ValueError):
        Pattern(PatternKind.ALT, ("A",), negated_second=True)


def test_resolve_success_includes_implicit_views():
    s = spec_with([Pattern(PatternKind.NOCOMP, ("Widget",))])
    r = resolve(s)
    assert set(r.views) == {"A", "B", "C", nocomp_view_name("Widget")}
    assert "Widget" in r.component_names


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda s: ViewSpec("s", s.views, Var("Nope")), "unknown view"),
        (lambda s: ViewSpec("s", s.views + (view("A"),), Var("A")), "duplicate view"),
        (lambda s: ViewSpec("s", s.views, Var("A"),
                            patterns=(Pattern(PatternKind.IMP, ("A", "Zed")),)), "unknown view"),
        (lambda s: ViewSpec("s", s.views, Var("A"),
                            style=StyleConfig(StyleKind.CLIENT_SERVER, server="Ghost",
                                              clients=("CA",))), "unknown component"),
        (lambda s: ViewSpec("s", s.views, Var("A"),
                            style=StyleConfig(StyleKind.LAYERED, layers=(("CA",), ("Ghost",)))),
         "unknown component"),
    ],
)
def test_resolve_errors(mutate, needle):
    with pytest.raises(SpecResolutionError) as err:
        resolve(mutate(spec_with()))
    assert needle in str(err.value)


def test_resolve_rejects_library_component_with_subcomponents():
    v = CncView("V", [Component("Lib", subcomponents=frozenset({"Inner"})), Component("Inner")])
    s = ViewSpec("s", (v,), Var("V"), library=(Component("Lib", (Port("p", Direction.IN, "t"),)),))
    with pytest.raises(SpecResolutionError) as err:
        resolve(s)
    assert "library" in str(err.value)


def test_resolve_rejects_a_library_entry_with_subcomponents():
    lib = Component("Lib", (Port("p", Direction.IN, "t"),), frozenset({"Inner"}))
    with pytest.raises(SpecResolutionError, match="library component 'Lib' has subcomponents"):
        resolve(ViewSpec("s", (view("A"),), Var("A"), library=(lib,)))


def test_resolve_rejects_duplicate_library_port_names():
    s = ViewSpec("s", (view("A"),), Var("A"),
                 library=(Component("Lib", (Port("p", Direction.IN, "t"), Port("p", Direction.OUT, "t"))),))
    with pytest.raises(SpecResolutionError):
        resolve(s)


def test_scope_hints_reject_negative_counts():
    for kw, key in (({"ports": -1}, "ports"), ({"extra_names": -1}, "extra-names"),
                    ({"extra_types": -2}, "extra-types")):
        with pytest.raises(ValueError, match=f"{key} must not be negative"):
            ScopeHints(**kw)
    assert ScopeHints(0, 0, 0).ports == 0


def test_style_config_validation():
    with pytest.raises(ValueError):
        StyleConfig(StyleKind.CLIENT_SERVER, server="S", clients=())
    with pytest.raises(ValueError):
        StyleConfig(StyleKind.LAYERED, layers=(("A",),))
    with pytest.raises(ValueError):
        StyleConfig(StyleKind.LAYERED, layers=(("A",), ("A",)))
    with pytest.raises(ValueError, match="client 'A' is listed twice"):
        StyleConfig(StyleKind.CLIENT_SERVER, server="S", clients=("A", "B", "A"))


def test_port_clashes_name_every_declaration_and_closed_interface():
    def comp(name, *ports):
        return Component(name, tuple(Port(n, d, t) for n, d, t in ports))

    IN, OUT = Direction.IN, Direction.OUT
    views = (CncView("V1", [comp("A", ("x", IN, "int"), ("y", IN, "int"), ("z", IN, None))]),
             CncView("V2", [comp("A", ("x", OUT, "float"), ("y", IN, None), ("z", IN, None)),
                            comp("L", ("w", IN, "int"))], interface_complete={"L"}),
             CncView("V3", [comp("A", ("x", IN, None), ("y", IN, "int"))], interface_complete={"A"}))
    spec = resolve(ViewSpec("s", views, Var("V1"), library=(comp("L", ("v", IN, "int")),)))
    # A.y's untyped declaration agrees with every type; only A.z is missing
    # from the interface that V3 marks complete.
    assert [str(c) for c in spec.port_clashes] == [
        "port A.x: input int in V1, output float in V2, input ? in V3",
        "port A.z: declared in V1, declared in V2, absent from the interface V3 marks complete",
        "port L.v: declared in the library, absent from the interface V2 marks complete",
        "port L.w: declared in V2, absent from the library interface",
    ]
    assert spec.port_clashes[0].declarations[2] == ("V3", Port("x", IN, None))
