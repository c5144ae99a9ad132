"""Model data types and well-formedness validation."""

from __future__ import annotations

import pytest

from cncsynth.model import (
    AbstractConnector,
    CncModel,
    CncView,
    Component,
    Connector,
    Direction,
    Port,
    PortRef,
    contains_transitive,
    validate_model,
)

IN, OUT = Direction.IN, Direction.OUT


def mk(name, ports=(), subs=()):
    return Component(name, tuple(ports), frozenset(subs))


def well_formed_sample() -> CncModel:
    return CncModel(
        [
            mk("Top", [Port("tin", IN, "int")], {"A", "B"}),
            mk("A", [Port("ain", IN, "int"), Port("aout", OUT, "int")]),
            mk("B", [Port("bin", IN, "int")]),
        ],
        [
            Connector(PortRef("Top", "tin"), PortRef("A", "ain")),  # IN -> IN forwarding
            Connector(PortRef("A", "aout"), PortRef("B", "bin")),   # sibling OUT -> IN
        ],
    )


def test_types_are_derived_and_construction_canonicalizes():
    m = well_formed_sample()
    assert m.types == {"int"}
    assert [c.name for c in m.components] == ["A", "B", "Top"]
    # structural equality after reordering
    m2 = CncModel(tuple(reversed(m.components)), tuple(reversed(m.connectors)))
    assert m == m2
    # A view's types also come from its abstract-connector ends; an untyped
    # port gives none.
    v = CncView("V", (mk("A", [Port("p", IN, None), Port("q", OUT, "int")]), mk("B")),
                (AbstractConnector("A", "B", tgt_type="bool"),))
    assert v.types == {"int", "bool"}


def test_view_rejects_a_mark_on_an_unknown_component():
    assert CncView("V", (mk("A"),), interface_complete={"A"}).interface_complete == {"A"}
    with pytest.raises(ValueError, match="unknown component 'Ghost'"):
        CncView("V", (mk("A"),), interface_complete={"Ghost"})


def test_view_rejects_a_connector_on_an_unknown_component():
    nest = (mk("A", subs={"B"}), mk("B"))
    assert CncView("V", nest, (AbstractConnector("A", "B"),)).abs_connectors == (AbstractConnector("A", "B"),)
    with pytest.raises(ValueError, match="view 'V' connects unknown component 'X'"):
        CncView("V", nest, (AbstractConnector("A", "X"),))
    with pytest.raises(ValueError, match="connects unknown component 'X'"):
        CncView("V", (mk("A"),), (AbstractConnector("X", "A", "p"),))


def test_view_elements_in_encoder_order():
    # Types first, then each component followed by its ports, then every
    # ordered pair of distinct components, then the abstract connectors.
    pin, qout = Port("p", IN, "int"), Port("q", OUT, None)
    ac = AbstractConnector("B", "C", "q")
    v = CncView("V", (mk("C"), mk("B", [qout]), mk("A", [pin], {"B"})), (ac,))
    assert v.elements == (
        ("type", "int"),
        ("component", "A"), ("port", "A", pin),
        ("component", "B"), ("port", "B", qout),
        ("component", "C"),
        ("nested", "A", "B"), ("independent", "A", "C"),
        ("independent", "B", "A"), ("independent", "B", "C"),
        ("independent", "C", "A"), ("independent", "C", "B"),
        ("connector", ac),
    )


def test_tops_and_parent_map():
    m = well_formed_sample()
    assert m.tops == ("Top",)
    assert m.top == "Top"
    assert m.parent_map == {"A": "Top", "B": "Top"}


def test_well_formed_model_has_no_violations():
    assert validate_model(well_formed_sample()) == []


def test_contains_transitive():
    m = CncModel([mk("A", subs={"B"}), mk("B", subs={"C"}), mk("C")])
    assert contains_transitive(m, "A", "B")
    assert contains_transitive(m, "A", "C")
    assert contains_transitive(m, "B", "C")
    assert not contains_transitive(m, "C", "A")
    assert not contains_transitive(m, "B", "A")
    with pytest.raises(LookupError):
        contains_transitive(m, "A", "Nope")


@pytest.mark.parametrize(
    "components,connectors,code",
    [
        # two top components
        ([mk("A"), mk("B")], [], "top-count"),
        # unknown subcomponent
        ([mk("A", subs={"Ghost"})], [], "unknown-subcomponent"),
        # containment cycle
        ([mk("A", subs={"B"}), mk("B", subs={"A"})], [], "containment-cycle"),
        # self containment
        ([mk("A", subs={"A"})], [], "containment-cycle"),
        # child with two parents
        ([mk("T", subs={"A", "B"}), mk("A", subs={"C"}), mk("B", subs={"C"}), mk("C")],
         [], "multiple-parents"),
        # no components at all
        ([], [], "empty-model"),
        # port without type
        ([mk("A", [Port("p", IN, None)])], [], "unknown-type"),
        # duplicate port name within a component
        ([mk("A", [Port("p", IN, "t"), Port("p", OUT, "t")])], [], "duplicate-port"),
    ],
)
def test_structural_violations(components, connectors, code):
    m = CncModel(components, connectors)
    assert code in {v.code for v in validate_model(m)}


def test_validation_keeps_its_order_and_each_top_rule_setting():
    # The rules other than the single-top rule run once per model; the
    # top-count violation still comes between the containment rules and the
    # port rules, and each setting of the top rule reads the same cache.
    m = CncModel([mk("A"), mk("B", [Port("p", IN, "t"), Port("p", OUT, "t")]), mk("C", subs={"C"})])
    assert [v.code for v in validate_model(m)] == ["containment-cycle", "top-count", "duplicate-port"]
    assert [v.code for v in validate_model(m, allow_multiple_tops=True)] == ["containment-cycle", "duplicate-port"]
    validate_model(m).clear()
    assert [v.code for v in validate_model(m)] == ["containment-cycle", "top-count", "duplicate-port"]


def test_connector_type_mismatch():
    m = CncModel(
        [mk("T", subs={"A", "B"}),
         mk("A", [Port("o", OUT, "int")]),
         mk("B", [Port("i", IN, "bool")])],
        [Connector(PortRef("A", "o"), PortRef("B", "i"))])
    assert "type-mismatch" in {v.code for v in validate_model(m)}


def test_sibling_connector_must_be_out_to_in():
    m = CncModel(
        [mk("T", subs={"A", "B"}),
         mk("A", [Port("i", IN, "t")]),
         mk("B", [Port("i", IN, "t")])],
        [Connector(PortRef("A", "i"), PortRef("B", "i"))])
    assert "direction" in {v.code for v in validate_model(m)}


def test_parent_to_child_must_be_in_to_in():
    m = CncModel(
        [mk("T", [Port("o", OUT, "t")], {"A"}),
         mk("A", [Port("i", IN, "t")])],
        [Connector(PortRef("T", "o"), PortRef("A", "i"))])
    assert "direction" in {v.code for v in validate_model(m)}


def test_child_to_parent_must_be_out_to_out():
    m = CncModel(
        [mk("T", [Port("o", OUT, "t")], {"A"}),
         mk("A", [Port("i", IN, "t")])],
        [Connector(PortRef("A", "i"), PortRef("T", "o"))])
    assert "direction" in {v.code for v in validate_model(m)}


def test_connector_locality():
    # A and C are neither siblings nor parent/child: grandparent link.
    m = CncModel(
        [mk("T", subs={"A"}),
         mk("A", [Port("o", OUT, "t")], {"C"}),
         mk("C", [Port("i", IN, "t")], set()),
         ],
        [])
    m = CncModel(
        [mk("T", [Port("o", OUT, "t")], {"A"}),
         mk("A", subs={"C"}),
         mk("C", [Port("i", IN, "t")])],
        [Connector(PortRef("T", "o"), PortRef("C", "i"))])
    assert "locality" in {v.code for v in validate_model(m)}


def test_self_connector_rejected():
    m = CncModel(
        [mk("A", [Port("i", IN, "t"), Port("o", OUT, "t")])],
        [Connector(PortRef("A", "o"), PortRef("A", "i"))])
    assert "self-connector" in {v.code for v in validate_model(m)}


def test_at_most_one_incoming_connector():
    m = CncModel(
        [mk("T", subs={"A", "B", "C"}),
         mk("A", [Port("o", OUT, "t")]),
         mk("B", [Port("o", OUT, "t")]),
         mk("C", [Port("i", IN, "t")])],
        [Connector(PortRef("A", "o"), PortRef("C", "i")),
         Connector(PortRef("B", "o"), PortRef("C", "i"))])
    assert "two-incoming" in {v.code for v in validate_model(m)}


def test_unknown_connector_endpoint():
    m = CncModel(
        [mk("A", [Port("o", OUT, "t")])],
        [Connector(PortRef("A", "o"), PortRef("A", "ghost"))])
    assert "unknown-port" in {v.code for v in validate_model(m)}


def test_multiple_tops_allowed_when_requested():
    m = CncModel([mk("A"), mk("B")])
    assert validate_model(m, allow_multiple_tops=True) == []


def test_view_contains_is_transitive():
    v = CncView("V", [mk("A", subs={"B"}), mk("B", subs={"C"}), mk("C")])
    assert ("A", "C") in v.contains
    assert ("C", "A") not in v.contains


def test_port_graph_shortest_chain():
    # The chain relation is CncModel.reaches: one or more connectors.
    top, a, c = PortRef("Top", "tin"), PortRef("A", "ain"), PortRef("C", "cin")
    m = CncModel(
        [mk("Top", [Port("tin", IN, "int")], {"A"}),
         mk("A", [Port("ain", IN, "int")], {"C"}),
         mk("C", [Port("cin", IN, "int")])],
        [Connector(top, a), Connector(a, c)],
    )
    assert validate_model(m) == []
    # Top.tin -> A.ain -> C.cin is a two-connector chain; chains are directed.
    assert (top, c) in m.reaches
    assert (c, top) not in m.reaches
    # A port reaches itself only through a cycle of connectors.
    assert (top, top) not in m.reaches
    x, y = PortRef("X", "a"), PortRef("X", "b")
    cyclic = CncModel([mk("X")], [Connector(x, y), Connector(y, x)])
    assert {(x, x), (x, y), (y, x), (y, y)} == cyclic.reaches


def test_port_chain_graph_edges_are_connectors():
    m = well_formed_sample()
    # Top.tin -> A.ain and A.aout -> B.bin share no port, so the closure
    # holds exactly the connectors.
    assert m.reaches == {(conn.src, conn.tgt) for conn in m.connectors}
