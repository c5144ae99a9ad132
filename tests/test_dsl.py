"""Parsing, printing, and DOT export for the textual DSL."""

from __future__ import annotations

import pytest

from cncsynth.dsl import (
    DslError,
    export_dot,
    parse_model,
    parse_spec,
    parse_view,
    parse_view_file,
    print_model,
    print_view,
)
from cncsynth.model import AbstractConnector, Direction
from cncsynth.speclang import And, Not, Or, PatternKind, StyleKind, Var

MODEL_TEXT = """
component Top {
  port in int tin;
  component A {
    port in int ain;
    port out int aout;
  }
  component B {
    port in int bin;
  }
  connect Top.tin -> A.ain;
  connect A.aout -> B.bin;
}
"""


def test_parse_model_basic():
    m = parse_model(MODEL_TEXT)
    assert m.top == "Top"
    assert {c.name for c in m.components} == {"Top", "A", "B"}
    assert len(m.connectors) == 2
    assert m.component("A").port("aout").direction is Direction.OUT
    assert m.types == {"int"}


def test_print_model_round_trips():
    m = parse_model(MODEL_TEXT)
    assert parse_model(print_model(m)) == m


@pytest.mark.parametrize(
    "text,needle",
    [
        ("component A { port in ? p; }", "concrete type"),
        ("component A; component A;", "duplicate component"),
        ("component A { port in int p; port out int p; }", "duplicate port"),
        ("component A { port in int p; connect A.p -> A.q; }", "no port"),
        ("component A { connect A -> A; }", "name ports"),
        ("komponent A;", "expected"),
    ],
)
def test_parse_model_errors(text, needle):
    with pytest.raises(DslError) as err:
        parse_model(text)
    assert needle in str(err.value)


def test_parse_model_accepts_multiple_roots():
    # Styled models (client-server, layered) have several top components.
    m = parse_model("component A { component B; } component C;")
    assert m.tops == ("A", "C")


def test_dsl_error_carries_position():
    with pytest.raises(DslError) as err:
        parse_model("component A {\n  port in ? p;\n}")
    assert err.value.span.line == 2


def test_parse_view_merges_fragments_and_unknown_types():
    v = parse_view("""
        component Body { component Sensor; }
        component Sensor { port out ? val; }
        connect Sensor.val -> Body;
    """, name="V")
    assert {c.name for c in v.components} == {"Body", "Sensor"}
    assert ("Body", "Sensor") in v.contains
    sensor = v.by_name["Sensor"]
    assert sensor.port("val").type is None
    (ac,) = v.abs_connectors
    assert ac == AbstractConnector("Sensor", "Body", "val", None, None, None)


def test_parse_view_infers_endpoint_types_from_declared_ports():
    v = parse_view("""
        component A { port out float o; }
        component B { port in float i; }
        connect A.o -> B.i;
    """)
    (ac,) = v.abs_connectors
    assert ac.src_type == "float" and ac.tgt_type == "float"
    assert v.types == {"float"}


def test_parse_view_sorts_connectors_with_and_without_ports():
    v = parse_view("""
        component A { port out float o; component B { port in float i; } }
        connect A.o -> B.i;
        connect A -> B;
    """)
    assert v.abs_connectors == (AbstractConnector("A", "B"),
                                AbstractConnector("A", "B", "o", "i", "float", "float"))


def test_parse_view_interface_complete_stereotype():
    parsed = parse_view_file("""
        <<interface-complete>> component Lib { port in int a; }
        component Other;
    """, name="V")
    assert parsed.interface_complete == {"Lib"}


def test_parse_view_rejects_conflicting_port_fragments():
    with pytest.raises(DslError):
        parse_view("component A { port in int p; } component A { port out int p; }")


def test_print_view_round_trips():
    v = parse_view("""
        component Body {
          component Sensor { port out ? val; }
          component Limiter;
        }
        connect Sensor -> Limiter;
    """, name="V")
    assert parse_view(print_view(v), name="V") == v


SPEC_TEXT = """
spec Demo {
  views { V1, V2, V3 }
  formula: V1 && !V2 || V3;
  patterns {
    imp(V1, !V2);
    alt(V1, V3);
    xalt(V2, V3);
    nocomp(Spare);
  }
  library {
    component Box { port in int i; port out int o; }
  }
  style hierarchical;
  scope { ports = 7; extra-names = 2; extra-types = 1; }
}
"""


def test_parse_spec_blocks():
    src = parse_spec(SPEC_TEXT)
    assert src.name == "Demo"
    assert src.view_names == ("V1", "V2", "V3")
    # precedence: ! binds tighter than &&, which binds tighter than ||
    assert src.formula == Or((And((Var("V1"), Not(Var("V2")))), Var("V3")))
    kinds = [p.kind for p in src.patterns]
    assert kinds == [PatternKind.IMP, PatternKind.ALT, PatternKind.XALT, PatternKind.NOCOMP]
    assert src.patterns[0].negated_second
    (lib,) = src.library
    assert lib.component == "Box" and len(lib.interface) == 2
    assert src.style.kind is StyleKind.HIERARCHICAL
    assert (src.scope_hints.ports, src.scope_hints.extra_names, src.scope_hints.extra_types) == (7, 2, 1)


def test_parse_spec_styles():
    cs = parse_spec("""
        spec S { views { V } formula: V;
          style client-server(server = Srv, clients = C1, C2); }
    """).style
    assert cs.kind is StyleKind.CLIENT_SERVER
    assert cs.server == "Srv" and cs.clients == ("C1", "C2")

    lay = parse_spec("""
        spec S { views { V } formula: V;
          style layered([A, B]; [C]); }
    """).style
    assert lay.kind is StyleKind.LAYERED
    assert lay.layers == (("A", "B"), ("C",))


@pytest.mark.parametrize(
    "text",
    [
        "spec S { views { V } formula: ; }",
        "spec S { views { V } formula: V; style layered([A]); }",          # one layer
        "spec S { views { V } formula: V; style client-server(server = A, clients = A); }",
        "spec S { views { V } formula: V; scope { portz = 3; } }",
        "spec S { views { V } formula: V; patterns { imp(V); } }",
        "spec S { views { V } formula: V; patterns { frob(V); } }",
    ],
)
def test_parse_spec_errors(text):
    with pytest.raises(DslError):
        parse_spec(text)


def test_export_dot_structure():
    m = parse_model(MODEL_TEXT)
    dot = export_dot(m, "demo")
    assert dot.startswith('digraph "demo"')
    assert '"cluster_Top"' in dot and '"cluster_A"' in dot
    assert '"A.aout" -> "B.bin";' in dot
