"""Model-vs-view satisfaction and full-specification evaluation."""

from __future__ import annotations

import pytest

from conftest import LANDER
from oracles import _connector_closure, _containment_closure, oracle_end_to_end_edges, oracle_satisfies

from cncsynth.checker import (
    IllFormedModelError,
    end_to_end_graph,
    evaluate_spec,
    satisfies,
)
from cncsynth.cli import load_spec
from cncsynth.dsl import parse_model, parse_view
from cncsynth.model import CncModel, CncView, Component, Port, PortRef, Direction, contains_transitive
from cncsynth.speclang import (
    StyleConfig,
    StyleKind,
    Var,
    ViewSpec,
    resolve,
)
from cncsynth.synth import enumerate_models

MODEL = parse_model("""
component Joint {
  port in int cmd;
  component Body {
    port in int bin;
    port out float bout;
    component Limiter {
      port in int lin;
      port out float lout;
    }
    connect Body.bin -> Limiter.lin;
    connect Limiter.lout -> Body.bout;
  }
  component Sensor {
    port in float sin;
  }
  connect Joint.cmd -> Body.bin;
  connect Body.bout -> Sensor.sin;
}
""")


def kinds(result):
    return {v.kind for v in result.violations}


def test_satisfied_view_with_witnesses():
    v = parse_view("""
        component Joint {
          component Limiter;
          component Sensor { port in float sin; }
        }
        connect Limiter -> Sensor.sin;
    """, name="V")
    res = satisfies(MODEL, v)
    assert res.satisfied and not res.violations
    # Limiter.lout -> Body.bout -> Sensor.sin
    assert (PortRef("Limiter", "lout"), PortRef("Sensor", "sin")) in MODEL.reaches


def test_missing_component_and_type():
    v = parse_view("component Ghost { port in bool g; }", name="V")
    res = satisfies(MODEL, v)
    assert kinds(res) == {"MISSING_COMPONENT", "MISSING_TYPE"}


def test_containment_violation():
    v = parse_view("component Sensor { component Limiter; }", name="V")
    res = satisfies(MODEL, v)
    assert kinds(res) == {"CONTAINMENT"}


def test_independence_violation():
    # The view shows Body and Limiter side by side; the model nests them.
    v = parse_view("component Body; component Limiter;", name="V")
    res = satisfies(MODEL, v)
    assert kinds(res) == {"INDEPENDENCE"}


def test_violations_are_reported_grouped_by_kind_in_a_fixed_order():
    # View elements come per component (Body, its port, then Ghost) and per
    # pair (Body > Limiter before Sensor > Limiter); the report groups them
    # by kind, with CONTAINMENT and INDEPENDENCE sharing one place.
    v = parse_view("""
        component Body { port in bool bin; }
        component Ghost;
        component Joint;
        component Sensor { component Limiter; }
        connect Sensor -> Joint;
    """, name="V")
    assert [str(x) for x in satisfies(MODEL, v).violations] == [
        "MISSING_TYPE bool: type not present in the model",
        "MISSING_COMPONENT Ghost: component not present in the model",
        "PORT_MISMATCH Body.bin: model has no in port 'bin' of type bool",
        "INDEPENDENCE Body > Limiter: model nests components the view keeps independent",
        "INDEPENDENCE Joint > Body: model nests components the view keeps independent",
        "INDEPENDENCE Joint > Limiter: model nests components the view keeps independent",
        "INDEPENDENCE Joint > Sensor: model nests components the view keeps independent",
        "CONTAINMENT Sensor > Limiter: view containment not realized in the model",
        "NO_CHAIN Sensor -> Joint: no connector chain realizes the abstract connector",
    ]


def test_transitive_view_containment_is_satisfied():
    # View nests Limiter directly in Joint; the model interposes Body.
    v = parse_view("component Joint { component Limiter; }", name="V")
    assert satisfies(MODEL, v).satisfied


@pytest.mark.parametrize(
    "view_text",
    [
        "component Sensor { port out float sin; }",   # wrong direction
        "component Sensor { port in int sin; }",      # wrong type
        "component Sensor { port in float other; }",  # wrong name
    ],
)
def test_port_mismatch(view_text):
    res = satisfies(MODEL, parse_view(view_text, name="V"))
    assert kinds(res) == {"PORT_MISMATCH"}


def test_untyped_view_port_matches_any_type():
    v = parse_view("component Sensor { port in ? sin; }", name="V")
    assert satisfies(MODEL, v).satisfied


def test_no_chain_violation():
    # Nothing flows from Sensor back to Body.
    v = parse_view("component Sensor; component Body; connect Sensor -> Body;",
                   name="V")
    res = satisfies(MODEL, v)
    assert kinds(res) == {"NO_CHAIN"}


def test_typed_endpoints_constrain_chains():
    from cncsynth.model import AbstractConnector, Component as C
    comps = [C("Joint", subcomponents=frozenset({"Body"})), C("Body")]
    # int-typed target: only Body.bin qualifies, and Joint.cmd reaches it.
    ok = CncView("V", comps, [AbstractConnector("Joint", "Body", None, None, None, "int")])
    assert satisfies(MODEL, ok).satisfied
    # bool-typed target: no admissible port at all.
    bad = CncView("V", comps, [AbstractConnector("Joint", "Body", None, None, None, "bool")])
    assert kinds(satisfies(MODEL, bad)) == {"NO_CHAIN", "MISSING_TYPE"}


def test_ill_formed_model_raises():
    broken = CncModel(
        [Component("A", (Port("p", Direction.IN, "t"),), frozenset({"Ghost"}))])
    v = parse_view("component A;", name="V")
    with pytest.raises(IllFormedModelError):
        satisfies(broken, v)
    with pytest.raises(IllFormedModelError):
        evaluate_spec(broken, resolve(ViewSpec("s", (v,), Var("V"))))


def test_satisfies_agrees_with_oracle_on_samples():
    views = [
        "component Joint { component Limiter; component Sensor; }",
        "component Sensor { component Limiter; }",
        "component Body; component Limiter;",
        "component Body { component Sensor { port in float sin; } } connect Body -> Sensor.sin;",
        "component Joint { component Sensor; component Body; } connect Sensor -> Body;",
    ]
    for text in views:
        v = parse_view(text, name="V")
        assert satisfies(MODEL, v).satisfied == oracle_satisfies(MODEL, v)


# --- end-to-end graph and full-spec evaluation --------------------------------

def test_closures_match_oracles_on_lander_models():
    models = [MODEL, *enumerate_models(load_spec(str(LANDER / "Lander.cncspec")), limit=50)]
    assert len(models) == 51
    for m in models:
        names = [c.name for c in m.components]
        assert {(a, b) for a in names for b in names if contains_transitive(m, a, b)} == _containment_closure(m)
        assert {((p.component, p.port), (q.component, q.port)) for p, q in m.reaches} == _connector_closure(m)
        assert end_to_end_graph(m) == oracle_end_to_end_edges(m)


def test_end_to_end_graph_matches_oracle():
    assert end_to_end_graph(MODEL) == oracle_end_to_end_edges(MODEL)
    # Chains start at ports with no incoming connector and stop at ports with
    # no outgoing one: Joint.cmd reaches Limiter.lin, Limiter.lout reaches
    # Sensor.sin.
    assert end_to_end_graph(MODEL) == {("Joint", "Limiter"), ("Limiter", "Sensor")}


def view_of(text, name):
    return parse_view(text, name=name)


def test_evaluate_spec_formula_and_per_view():
    spec = resolve(ViewSpec(
        "s",
        (view_of("component Joint { component Sensor; }", "Good"),
         view_of("component Sensor { component Joint; }", "Bad")),
        Var("Good")))
    res = evaluate_spec(MODEL, spec)
    assert res.per_view == {"Bad": False, "Good": True}
    assert res.formula_value and res.overall


def test_evaluate_spec_library_violation():
    spec = resolve(ViewSpec(
        "s", (view_of("component Joint;", "V"),), Var("V"),
        library=(Component("Sensor", (Port("sin", Direction.IN, "float"),
                                      Port("extra", Direction.OUT, "int"))),)))
    res = evaluate_spec(MODEL, spec)
    assert res.formula_value
    assert not res.overall
    assert any("interface differs" in v.explanation for v in res.constraint_violations)


def test_evaluate_spec_library_component_with_subcomponents():
    spec = resolve(ViewSpec(
        "s", (view_of("component Joint;", "V"),), Var("V"),
        library=(Component("Body", (Port("bin", Direction.IN, "int"),
                                    Port("bout", Direction.OUT, "float"))),)))
    res = evaluate_spec(MODEL, spec)
    assert [str(v) for v in res.constraint_violations] == ["Body: library component has subcomponents"]


def test_evaluate_spec_interface_complete_violation():
    v = view_of("""
        <<interface-complete>> component Sensor { port in float sin; port in float extra; }
    """, "V")
    spec = resolve(ViewSpec("s", (v,), Var("V")))
    res = evaluate_spec(MODEL, spec)
    assert any("interface-complete" in v.explanation for v in res.constraint_violations)


def test_evaluate_spec_hierarchical_style_flags_cycles():
    cyclic = parse_model("""
        component Top {
          component A { port in int i; port out int o; }
          component B { port in int i; port out int o; }
          connect A.o -> B.i;
          connect B.o -> A.i;
        }
    """)
    spec = resolve(ViewSpec(
        "s", (view_of("component Top;", "V"),), Var("V"),
        style=StyleConfig(StyleKind.HIERARCHICAL)))
    res = evaluate_spec(cyclic, spec)
    assert any("cycle" in v.explanation for v in res.constraint_violations)
    assert not evaluate_spec(MODEL, spec).constraint_violations


def test_evaluate_spec_client_server_style():
    cs_model = parse_model("""
        component C1 { port out int req; }
        component C2 { port out int req; }
        component Srv { port in int a; port in int b; }
        connect C1.req -> Srv.a;
        connect C2.req -> Srv.b;
    """)
    spec = resolve(ViewSpec(
        "s", (view_of("component Srv; component C1; component C2;", "V"),),
        Var("V"),
        style=StyleConfig(StyleKind.CLIENT_SERVER, server="Srv",
                          clients=("C1", "C2"))))
    assert evaluate_spec(cs_model, spec).overall

    # A direct client-to-client connector breaks the style.
    chat = parse_model("""
        component C1 { port out int req; port out int x; }
        component C2 { port out int req; port in int y; }
        component Srv { port in int a; port in int b; }
        connect C1.req -> Srv.a;
        connect C2.req -> Srv.b;
        connect C1.x -> C2.y;
    """)
    res = evaluate_spec(chat, spec)
    assert any("two clients" in v.explanation for v in res.constraint_violations)


def test_evaluate_spec_layered_style():
    layered = parse_model("""
        component L1 { port out int o; }
        component L2 { port in int i; port out int o; }
        component L3 { port in int i; }
        connect L1.o -> L2.i;
        connect L2.o -> L3.i;
    """)
    spec = resolve(ViewSpec(
        "s", (view_of("component L1; component L2; component L3;", "V"),),
        Var("V"),
        style=StyleConfig(StyleKind.LAYERED,
                          layers=(("L1",), ("L2",), ("L3",)))))
    assert evaluate_spec(layered, spec).overall

    skipping = parse_model("""
        component L1 { port out int o; }
        component L2 { port in int i; }
        component L3 { port in int i; }
        connect L1.o -> L3.i;
    """)
    res = evaluate_spec(skipping, spec)
    assert any("non-consecutive" in v.explanation for v in res.constraint_violations)
