"""Parsing, printing, and DOT export for the textual DSL."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from cncsynth.dsl import (
    DslError,
    export_dot,
    parse_model,
    parse_spec,
    parse_view,
    print_model,
    print_view,
)
from cncsynth.model import (
    AbstractConnector,
    CncModel,
    CncView,
    Component,
    Connector,
    Direction,
    Port,
    PortRef,
    validate_model,
)
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
    v = parse_view("""
        <<interface-complete>> component Lib { port in int a; }
        component Other;
    """, name="V")
    assert v.interface_complete == {"Lib"}


def test_parse_view_rejects_conflicting_port_fragments():
    with pytest.raises(DslError):
        parse_view("component A { port in int p; } component A { port out int p; }")


def test_print_view_round_trips():
    for text in ("""
        component Body {
          component Sensor { port out ? val; }
          component Limiter;
        }
        connect Sensor -> Limiter;
    """,
                 # C sits under A and under B: A contains B contains C.
                 "component A { component B { component C; } component C; }"):
        v = parse_view(text, name="V")
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
    assert lib == Component("Box", (Port("i", Direction.IN, "int"), Port("o", Direction.OUT, "int")))
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
        "spec S { views { V } formula: V; style client-server(server = S, clients = A, A); }",
        "spec S { views { V } formula: V; scope { portz = 3; } }",
        "spec S { views { V } formula: V; patterns { imp(V); } }",
        "spec S { views { V } formula: V; patterns { frob(V); } }",
        # A repeated style or scope key used to let the last one win.
        "spec S { views { V } formula: V; style hierarchical; style layered([A]; [B]); }",
        "spec S { views { V } formula: V; style hierarchical; style hierarchical; }",
        "spec S { views { V } formula: V; scope { ports = 3; ports = 5; } }",
        "spec S { views { V } formula: V; scope { ports = 3; } scope { extra-names = 1; ports = 5; } }",
    ],
)
def test_parse_spec_errors(text):
    with pytest.raises(DslError):
        parse_spec(text)


@pytest.mark.parametrize("text, message, column", [
    ("spec S { views { V } formula: V; style hierarchical; style layered([A]; [B]); }",
     "style given twice", 54),
    ("spec S { views { V } formula: V; scope { ports = 3; } scope { extra-types = 0; ports = 5; } }",
     "scope key 'ports' given twice", 80),
])
def test_a_repeated_style_or_scope_key_is_reported_where_it_repeats(text, message, column):
    with pytest.raises(DslError) as err:
        parse_spec(text)
    assert (err.value.message, err.value.span.line, err.value.span.column) == (message, 1, column)


def test_a_model_without_a_top_is_printed_whole():
    # A containment cycle built through the API: A contains B contains A,
    # and B also holds the leaf C with a connector into it.
    a = Component("A", (Port("o", Direction.OUT, "int"),), frozenset({"B"}))
    b = Component("B", (), frozenset({"A", "C"}))
    c = Component("C", (Port("i", Direction.IN, "int"),))
    m = CncModel((a, b, c), (Connector(PortRef("A", "o"), PortRef("C", "i")),))
    assert m.tops == ()
    assert print_model(m) == (
        "component A {\n"
        "  port out int o;\n"
        "  component B {\n"
        "    component A;\n"
        "    component C {\n"
        "      port in int i;\n"
        "    }\n"
        "  }\n"
        "  connect A.o -> C.i;\n"
        "}\n")
    dot = export_dot(m)
    assert all(f'"cluster_{n}"' in dot for n in "ABC") and dot.count("subgraph") == 3
    assert '"A.o" -> "C.i";' in dot


def test_export_dot_structure():
    m = parse_model(MODEL_TEXT)
    dot = export_dot(m, "demo")
    assert dot.startswith('digraph "demo"')
    assert '"cluster_Top"' in dot and '"cluster_A"' in dot
    assert '"A.aout" -> "B.bin";' in dot


# --- round trips of generated models and views --------------------------------

IDENT = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True)
TYPE = st.sampled_from(("int", "float"))  # few types, so that connectors fit


@st.composite
def forest(draw, typed: bool, tree: bool) -> tuple[list[str], dict[str, frozenset[str]],
                                                  dict[str, tuple[Port, ...]]]:
    """Up to 4 distinct component names, each with parents drawn from the
    names before it (at most one in a tree, any set of them otherwise), and
    up to 2 ports with distinct names each."""
    names = draw(st.lists(IDENT, min_size=1, max_size=4, unique=True))
    parents = {n: draw(st.frozensets(st.sampled_from(names[:i]), max_size=1 if tree else None))
               if i else frozenset() for i, n in enumerate(names)}
    ptype = TYPE if typed else st.none() | TYPE
    ports = {n: tuple(Port(pn, draw(st.sampled_from(Direction)), draw(ptype))
                      for pn in draw(st.lists(IDENT, max_size=2, unique=True)))
             for n in names}
    return names, parents, ports


def components(names, parents, ports) -> list[Component]:
    return [Component(n, ports[n], frozenset(c for c in names if n in parents[c])) for n in names]


def legal(parents: dict[str, frozenset[str]], sc: str, sp: Port, tc: str, tp: Port) -> bool:
    """The placement and direction rules of a model connector in a tree."""
    if sc == tc or sp.type != tp.type:
        return False
    dirs = (sp.direction, tp.direction)
    if parents[sc] == parents[tc]:
        return dirs == (Direction.OUT, Direction.IN)
    if parents[tc] == {sc}:
        return dirs == (Direction.IN, Direction.IN)
    return parents[sc] == {tc} and dirs == (Direction.OUT, Direction.OUT)


@st.composite
def models(draw) -> CncModel:
    names, parents, ports = draw(forest(typed=True, tree=True))
    candidates = [Connector(PortRef(sc, sp.name), PortRef(tc, tp.name))
                  for sc in names for sp in ports[sc] for tc in names for tp in ports[tc]
                  if legal(parents, sc, sp, tc, tp)]
    chosen = draw(st.lists(st.sampled_from(candidates), min_size=1, unique=True)) if candidates else []
    one_incoming = {c.tgt: c for c in reversed(chosen)}.values()
    model = CncModel(components(names, parents, ports), list(one_incoming))
    assert validate_model(model, allow_multiple_tops=True) == []
    return model


@st.composite
def views(draw) -> CncView:
    names, parents, ports = draw(forest(typed=False, tree=False))

    def end(c: str) -> tuple[str | None, str | None]:
        """A port name on ``c`` (declared, undeclared or none) and the type
        the parser infers for it."""
        name = draw(st.sampled_from([None, *(p.name for p in ports[c])]) | IDENT)
        declared = {p.name: p.type for p in ports[c]}
        return name, declared.get(name)

    connectors = []
    for _ in range(draw(st.integers(0, 3))):
        sc, tc = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        (sp, sp_type), (tp, tp_type) = end(sc), end(tc)
        connectors.append(AbstractConnector(sc, tc, sp, tp, sp_type, tp_type))
    marked = draw(st.sets(st.sampled_from(names)))
    return CncView("V", components(names, parents, ports), connectors, marked)


@settings(max_examples=150, deadline=None)
@given(models())
def test_generated_models_round_trip(m):
    assert parse_model(print_model(m)) == m


@settings(max_examples=150, deadline=None)
@given(views())
def test_generated_views_round_trip(v):
    assert parse_view(print_view(v), name=v.name) == v
