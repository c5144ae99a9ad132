"""Scope computation and the CNF encoding.

The central test here is exhaustive: on a tiny scope, the set of models the
pipeline enumerates must equal the set of all well-formed scope models that
the (independent) checker accepts.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES
from oracles import oracle_satisfies

from cncsynth.dsl import parse_view
from cncsynth import synth
from cncsynth.encoder import (
    EncodingError,
    Scope,
    VarMap,
    compute_scope,
    decode,
    encode,
)
from cncsynth.checker import evaluate_spec
from cncsynth.cli import load_spec
from cncsynth.model import (
    AbstractConnector,
    CncModel,
    CncView,
    Component,
    Connector,
    Direction,
    Port,
    PortRef,
    transitive_closure,
    validate_model,
)
from cncsynth.reduction import Cnf3Formula, reduce_3sat, reduction_scope
from cncsynth.speclang import And, Not, Or, ScopeHints, Var, ViewSpec, evaluate_formula, resolve
from cncsynth.sat import SAT, iter_assignments
from cncsynth.speclang import ResolvedSpec
from cncsynth.synth import SoundnessError, SynthOutcome, enumerate_models, synthesize, verify_closures


def spec_of(view_text: str, **kw):
    """A one-view spec of the view ``V`` parsed from ``view_text``."""
    return resolve(ViewSpec("s", (parse_view(view_text, name="V"),), Var("V"), **kw))


def test_compute_scope_defaults():
    spec = spec_of("""
        component A { port in int x; port out int y; }
        component B { port in int x; }
    """)
    scope = compute_scope(spec)
    assert set(scope.components) == {"A", "B"}
    assert scope.ports == 3 + 2                      # declared ports plus slack
    assert scope.port_names == ("x", "y", "_p1", "_p2")
    assert scope.types == ("int",)                   # no fresh type when one is declared


def test_compute_scope_fresh_type_when_none_declared():
    scope = compute_scope(spec_of("component A;"))
    assert scope.types == ("_T1",)


def test_compute_scope_hints_override():
    spec = spec_of("component A { port in int x; }",
                   scope_hints=ScopeHints(ports=7, extra_names=1, extra_types=2))
    scope = compute_scope(spec)
    assert scope.ports == 7
    assert scope.port_names == ("x", "_p1")
    assert scope.types == ("int", "_T1", "_T2")


def test_compute_scope_fresh_names_skip_taken_names():
    two_tops = """
        component A { port in int _p1; port out int y; }
        component B { port in int x; }
    """
    assert compute_scope(spec_of(two_tops)).port_names == ("_p1", "x", "y", "_p2", "_p3")
    scope = compute_scope(spec_of("component A { port in _T1 t; }", scope_hints=ScopeHints(extra_types=1)))
    assert scope.types == ("_T1", "_T2")
    # The same ports under one top: a repeated '_p1' made this UNSAT.
    nested = spec_of("component A { port in int _p1; port out int y; component B { port in int x; } }")
    assert synthesize(nested).outcome is SynthOutcome.SAT


def test_scope_holds_connector_port_names():
    spec = spec_of("component T { component A { port out int o; } component B; } connect A.zz -> B;")
    scope = compute_scope(spec)
    assert "zz" in scope.port_names and scope.ports == 2 + 2
    result = synthesize(spec)
    assert result.outcome is SynthOutcome.SAT
    assert result.model.component("A").port("zz") is not None
    without = dataclasses.replace(scope, port_names=tuple(n for n in scope.port_names if n != "zz"))
    with pytest.raises(EncodingError, match="port name 'zz'"):
        encode(spec, without)


def test_compute_scope_includes_library_interface():
    spec = spec_of("component A;",
                   library=(Component("Lib", (Port("lp", Direction.IN, "bool"),)),))
    scope = compute_scope(spec)
    assert "Lib" in scope.components
    assert "lp" in scope.port_names and "bool" in scope.types


@pytest.mark.parametrize(
    "scope",
    [
        Scope(("A",), 2, ("x",), ("int",)),           # missing component B
        Scope(("A", "B"), 2, ("y",), ("int",)),       # missing port name x
        Scope(("A", "B"), 2, ("x",), ("float",)),     # missing type int
    ],
)
def test_encode_rejects_insufficient_scope(scope):
    spec = spec_of("component A { port in int x; } component B;")
    with pytest.raises(EncodingError):
        encode(spec, scope)


def test_scope_rejects_negative_ports():
    with pytest.raises(ValueError, match="ports must not be negative, got -1"):
        Scope(("A",), -1, ("x",), ("int",))


@pytest.mark.parametrize("fields, message", [
    ((("A", "A", "B"), 0, (), ("T",)), "scope component 'A' is listed twice"),
    ((("A", "B"), 2, ("p", "q", "p"), ("T",)), "scope port name 'p' is listed twice"),
    ((("A", "B"), 0, (), ("T", "U", "U")), "scope type 'U' is listed twice"),
])
def test_scope_rejects_a_repeated_name(fields, message):
    # A repeated component once shared its variables with its first copy, so
    # this satisfiable spec read UNSAT within the first scope.
    spec = spec_of("component A { component B; }")
    assert synthesize(spec, Scope(("A", "B"), 0, (), ("T",))).outcome is SynthOutcome.SAT
    with pytest.raises(ValueError, match=message):
        Scope(*fields)


def test_encoding_shape():
    spec = spec_of("component A { component B; }")
    enc = encode(spec, Scope(("A", "B"), 2, ("p",), ("t",)))
    assert enc.cnf.num_vars == enc.varmap.num_vars
    assert enc.structural_vars
    assert all(1 <= v <= enc.cnf.num_vars for v in enc.structural_vars)
    # Every clause group covers a valid clause range.
    for _, lo, hi in enc.cnf.groups:
        assert 0 <= lo <= hi <= len(enc.cnf.clauses)


# --- Exhaustive completeness on a tiny scope ----------------------------------

SCOPE = Scope(("A", "B"), 2, ("p", "q"), ("t",))


def all_scope_models(scope: Scope = SCOPE):
    """Every well-formed single-top model over ``scope`` (components A and
    B, or one of them alone), by brute force."""
    port_options = [None] + [
        (owner, name, d, t)
        for owner in scope.components
        for name in scope.port_names
        for d in (Direction.IN, Direction.OUT)
        for t in scope.types
    ]
    key = lambda opt: (opt[0], opt[1], opt[2].value, opt[3])
    models = set()
    for parent, child in (("A", "B"), ("B", "A"), ("A", None), ("B", None)):
        for chosen in itertools.combinations_with_replacement(port_options, scope.ports):
            ports = {c for c in chosen if c is not None}
            if any(owner not in (parent, child) for owner, _, _, _ in ports):
                continue
            by_owner: dict[str, list[Port]] = {"A": [], "B": []}
            for owner, name, d, t in sorted(ports, key=key):
                by_owner[owner].append(Port(name, d, t))
            if any(len({p.name for p in ps}) != len(ps) for ps in by_owner.values()):
                continue
            comps = [Component(parent, tuple(by_owner[parent]), frozenset({child} - {None}))]
            if child is not None:
                comps.append(Component(child, tuple(by_owner[child])))
            refs = [PortRef(o, n) for (o, n, _, _) in sorted(ports, key=key)]
            pairs = [(s, t) for s in refs for t in refs if s != t]
            for k in range(len(pairs) + 1):
                for conns in itertools.combinations(pairs, k):
                    m = CncModel(comps, [Connector(s, t) for s, t in conns])
                    if not validate_model(m):
                        models.add(m)
    return models


LIB_B = (Component("B", (Port("q", Direction.OUT, "t"),)),)

# One view per kind of view element, each under both polarities, so that
# every element literal is checked both ways.
ELEMENT_VIEWS = [
    "component A { port in t p; }",                                     # a typed port and its type
    "component B { port out ? q; }",                                    # an untyped port
    "component A { component B; }",                                     # a nesting
    "component A; component B;",                                        # an independence
    "component A { component B { port in t p; } } connect A -> B.p;",   # a connector to a named port
]

TINY_SPECS = [
    spec_of("component A { component B; }"),
    spec_of("<<interface-complete>> component A { port in t p; component B; }"),
    spec_of("<<interface-complete>> component A { port out ? q; component B; }"),
    spec_of("component A { component B; }", library=LIB_B),
    *(resolve(ViewSpec("s", (parse_view(text, name="V"),), formula))
      for text in ELEMENT_VIEWS for formula in (Var("V"), Not(Var("V")))),
]


def test_all_scope_models_include_one_component_models():
    names = {tuple(c.name for c in m.components) for m in all_scope_models()}
    assert names == {("A",), ("B",), ("A", "B")}


def assert_enumeration_is_sound_and_complete(specs, scope: Scope) -> None:
    scope_models = all_scope_models(scope)
    for spec in specs:
        expected = {m for m in scope_models if evaluate_spec(m, spec).overall}
        got = list(enumerate_models(spec, scope=scope))
        assert len(got) == len(set(got)), "enumerated models must be pairwise distinct"
        assert set(got) == expected, spec.formula
        negated = isinstance(spec.formula, Not)
        for m in got:
            assert oracle_satisfies(m, spec.views["V"]) != negated


def test_enumeration_is_sound_and_complete_on_tiny_scope():
    assert_enumeration_is_sound_and_complete(TINY_SPECS, SCOPE)


# With two types a model can have ports and still lack a view's type.  The
# encoder leaves a view's type elements out of its biconditional, as each is
# the type of a port or connector end of the same view; these views check it.
TWO_TYPES = Scope(("A", "B"), 2, ("p", "q"), ("t", "u"))

# A contains B, and the one type comes only from a connector end.
TYPED_END = CncView("V", (Component("A", (), frozenset({"B"})), Component("B", ())),
                    (AbstractConnector("A", "B", tgt_type="u"),))

TWO_TYPE_SPECS = [
    resolve(ViewSpec("s", (view,), formula))
    for view in [*(v for v in (parse_view(text, name="V") for text in ELEMENT_VIEWS) if v.types), TYPED_END]
    for formula in (Var("V"), Not(Var("V")))
]


def test_enumeration_is_sound_and_complete_with_two_types():
    assert len(TWO_TYPE_SPECS) == 6
    assert_enumeration_is_sound_and_complete(TWO_TYPE_SPECS, TWO_TYPES)


def test_enumeration_completeness_with_abstract_connector():
    spec = spec_of("""
        component A { component B { port in t p; } }
        connect A -> B.p;
    """)
    expected = {m for m in all_scope_models()
                if evaluate_spec(m, spec).overall}
    got = set(enumerate_models(spec, scope=SCOPE))
    assert got == expected
    assert expected, "the property must not hold vacuously"


# --- Decoding against the key-based reference --------------------------------
#
# `decode` and `verify_closures` read an answer through the encoding's
# variable tables.  The two functions below are the key-based versions they
# replaced, one `VarMap.get` per variable, kept as the reference: both must
# give the same models and the same verdicts.

def reference_decode(enc, literals: frozenset[int]) -> CncModel:
    vm, scope = enc.varmap, enc.scope

    def truth(*key) -> bool:
        v = vm.get(*key)
        return v is not None and v in literals

    def first(p: int, kind: str, values):
        for x in values:
            if truth(kind, p, x):
                return x
        raise ValueError(f"used port slot {p} has no {kind}")

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
        owner = first(p, "owner", existing)
        name = first(p, "pname", scope.port_names)
        ptype = first(p, "ptype", scope.types)
        direction = Direction.IN if truth("pin", p) else Direction.OUT
        ports[owner].append(Port(name, direction, ptype))
        slot_ref[p] = PortRef(owner, name)
    connectors = [Connector(slot_ref[p], slot_ref[q]) for p in slot_ref for q in slot_ref
                  if p != q and truth("conn", p, q)]
    components = [Component(c, tuple(ports[c]), frozenset(children[c])) for c in existing]
    return CncModel(tuple(components), tuple(connectors))


def reference_verify_closures(enc, literals: frozenset[int], model: CncModel) -> None:
    vm, scope = enc.varmap, enc.scope
    for c, d in itertools.permutations(scope.components, 2):
        v = vm.get("subt", c, d)
        if v is None:
            continue
        truth = (c, d) in model.contains
        if (v in literals) != truth:
            raise SoundnessError(f"subt({c}, {d}) is {v in literals}, closure says {truth}")
    used = [p for p in range(scope.ports) if vm.get("used", p) in literals]
    reach = transitive_closure({p: [q for q in used if q != p and vm.get("conn", p, q) in literals]
                                for p in used})
    for p, q in itertools.permutations(range(scope.ports), 2):
        v = vm.get("reach", p, q)
        if v is None:
            continue
        truth = (p, q) in reach
        if (v in literals) != truth:
            raise SoundnessError(f"reach({p}, {q}) is {v in literals}, closure says {truth}")


def closure_verdict(check, enc, literals: frozenset[int], model: CncModel) -> str | None:
    """The message of the SoundnessError ``check`` raises, or None."""
    try:
        check(enc, literals, model)
    except SoundnessError as exc:
        return str(exc)
    return None


def lander() -> ResolvedSpec:
    return load_spec(str(FIXTURES / "lunar_lander" / "Lander.cncspec"))


def sat_answers(enc, limit: int | None = None) -> list[frozenset[int]]:
    """The SAT answers of the enumeration of ``enc``, up to ``limit``."""
    results = itertools.islice(iter_assignments(enc.cnf, projection=list(enc.structural_vars)), limit)
    return [r.literals for r in results if r.status == SAT]


def closure_vars(enc) -> list[int]:
    return [v for v in range(1, enc.varmap.num_vars + 1)
            if enc.varmap.describe(v).split(" ", 1)[0] in ("subt", "reach")]


def test_decode_and_verify_closures_match_the_key_based_reference():
    enc = encode(lander())
    cases = [(enc, sat_answers(enc, 250))]
    cases += [(enc, sat_answers(enc)) for enc in (encode(spec, SCOPE) for spec in TINY_SPECS)]
    assert len(cases[0][1]) == 250 and sum(len(answers) for _, answers in cases[1:]) > 20
    for enc, answers in cases:
        for a in answers:
            model = decode(enc, a)
            assert model == reference_decode(enc, a)
            assert closure_verdict(verify_closures, enc, a, model) is None
            assert closure_verdict(reference_verify_closures, enc, a, model) is None


def test_verify_closures_matches_the_reference_on_tampered_answers():
    # Each subt and reach variable flipped in turn, as
    # `test_verify_closures_detects_tampering` flips them.
    specs = [spec_of("component A { component B; }", scope_hints=ScopeHints(ports=0, extra_names=0)),
             spec_of("component T { component A { port out int o; } component B { port in int i; } }"
                     " connect A.o -> B.i;"),
             lander()]
    for spec in specs:
        result = synthesize(spec)
        assert result.outcome is SynthOutcome.SAT
        enc, a = result.encoding, result.literals
        assert closure_vars(enc)
        for v in closure_vars(enc):
            flipped = a ^ {v, -v}
            verdict = closure_verdict(verify_closures, enc, flipped, result.model)
            assert verdict is not None
            assert verdict == closure_verdict(reference_verify_closures, enc, flipped, result.model)


def test_decoding_numbers_no_variable():
    spec = lander()
    enc = encode(spec)
    numbered = (enc.varmap.num_vars, enc.cnf.num_vars)
    answers = sat_answers(enc, 250)
    for a in answers:
        synth._decode_verified(enc, a, spec)
    assert (enc.varmap.num_vars, enc.cnf.num_vars) == numbered
    for v in closure_vars(enc):
        with pytest.raises(SoundnessError):
            synth._decode_verified(enc, answers[0] ^ {v, -v}, spec)
    assert (enc.varmap.num_vars, enc.cnf.num_vars) == numbered
    # The tables are closed: a key with no variable is not numbered.
    c = enc.scope.components[0]
    for table, key in ((enc.reach[0], 0), (enc.subt[c], c), (enc.parent[c], c), (enc.conn[0], 0)):
        with pytest.raises(KeyError):
            table[key]
    assert (enc.varmap.num_vars, enc.cnf.num_vars) == numbered


# Two types, so that views can disagree on the type of a port.  Every view
# nests B in A, so the brute force above covers every model they admit.
SCOPE2 = Scope(("A", "B"), 2, ("p", "q"), ("t", "u"))


def views_of(*view_texts: str) -> tuple:
    """Views V1, V2, ... parsed from ``view_texts``."""
    return tuple(parse_view(text, name=f"V{i}") for i, text in enumerate(view_texts, 1))


# Pairs of views whose port declarations disagree, or agree only when the
# components are told apart.  Under ``&&`` a clashing pair admits no model;
# under ``||`` each view's own models remain.
CLASH_PAIRS = {
    "type": ("component A { component B { port in t p; } }",
             "component A { component B { port in u p; } }"),
    "direction": ("component A { component B { port in t p; } }",
                  "component A { component B { port out t p; } }"),
    "library-lacks": ("component A { component B; }",
                      "component A { component B { port in t p; } }"),
    "library-type": ("component A { component B; }",
                     "component A { component B { port out u q; } }"),
    "library-empty": ("component A { component B; }",
                      "component A { component B { port out t q; } }"),
    "interface-complete-lacks": ("<<interface-complete>> component A { port in t p; component B; }",
                                 "component A { port out t q; component B; }"),
    "untyped-agrees": ("component A { component B { port in ? p; } }",
                       "component A { component B { port in u p; } }"),
    "other-component": ("component A { port in t p; component B; }",
                        "component A { component B { port in u p; } }"),
    "crossed": ("component A { port in t p; component B { port in u p; } }",
                "component A { port in u p; component B { port in t p; } }"),
    "crossed-direction": ("component A { port in t p; component B { port out t p; } }",
                          "component A { port out t p; component B { port in t p; } }"),
}
LIBRARIES = {"library-lacks": LIB_B, "library-type": LIB_B, "library-empty": (Component("B"),)}
AGREEING = {"untyped-agrees", "other-component"}


def clash_specs():
    for name, texts in CLASH_PAIRS.items():
        views = views_of(*texts)
        for op in (And, Or):
            formula = op([Var(v.name) for v in views])
            yield f"{name} {op.__name__}", resolve(ViewSpec(
                "s", views, formula, library=LIBRARIES.get(name, ())))


@pytest.mark.parametrize("ports", [2, 0])
def test_port_identity_keeps_every_model_on_tiny_scope(ports):
    # The port-identity clauses are implied: enumeration must still equal
    # the checker-accepted brute-force set, clash or no clash.
    scope = dataclasses.replace(SCOPE2, ports=ports)
    scope_models = all_scope_models(scope)
    sizes = {}
    for name, spec in clash_specs():
        expected = {m for m in scope_models if evaluate_spec(m, spec).overall}
        got = list(enumerate_models(spec, scope=scope))
        assert len(got) == len(set(got)) and set(got) == expected, name
        for m in got:
            valuation = {v: oracle_satisfies(m, view) for v, view in spec.views.items()}
            assert evaluate_formula(spec.formula, valuation), name
        sizes[name] = len(got)
    for name in CLASH_PAIRS:
        # A clash leaves no model under &&; agreeing declarations keep some.
        assert (sizes[f"{name} And"] == 0) == (name not in AGREEING or ports == 0), name
        assert sizes[f"{name} Or"] > 0 or (ports == 0 and name != "library-empty"), name


def test_port_identity_clauses_only_for_clashing_ports():
    for name, spec in clash_specs():
        groups = {label for label, _, _ in encode(spec, SCOPE2).cnf.groups}
        assert ("port-identity" in groups) == bool(spec.port_clashes), name
    assert [str(c) for c in dict(clash_specs())["crossed And"].port_clashes] == [
        "port A.p: t in V1, u in V2", "port B.p: u in V1, t in V2"]


def test_closed_interfaces_get_one_group_per_kind():
    views = views_of("<<interface-complete>> component A { port in t p; component B; component C; }",
                     "<<interface-complete>> component D { port out t r; }")
    library = (*LIB_B, Component("C"))
    spec = resolve(ViewSpec("s", views, And([Var("V1"), Var("V2")]), library=library))
    groups = [(label, lo, hi) for label, lo, hi in encode(spec).cnf.groups
              if label in ("library", "interface-complete")]
    assert [label for label, _, _ in groups] == ["library", "interface-complete"]
    assert groups[0][2] == groups[1][1]


def test_every_variable_is_numbered_once():
    # VarMap.new numbers every variable; a key that has a variable raises
    # and numbers nothing.
    vm = VarMap()
    assert vm.new("exists", "A") == 1
    assert vm.new("reachstep", 0, 1, 2) == 2 == vm.get("reachstep", 0, 1, 2)
    for key in (("reachstep", 0, 1, 2), ("exists", "A")):
        with pytest.raises(ValueError, match=f"variable {' '.join(map(str, key))} is already numbered"):
            vm.new(*key)
    assert vm.num_vars == 2 and vm.describe(2) == "reachstep 0 1 2"
    for name, enc in digest_encodings():
        described = {enc.varmap.describe(v) for v in range(1, enc.varmap.num_vars + 1)}
        assert len(described) == enc.varmap.num_vars == enc.cnf.num_vars, name


# --- The encoding is pinned: a change to how clauses are built must not move
# a single variable or literal ------------------------------------------------

DIGEST_3SAT = {
    "3sat-n1": Cnf3Formula(1, ((1,), (-1, 1), (1,))),
    # The formula whose search test_sat.py pins.
    "3sat-n6-pinned": Cnf3Formula(6, (
        (-1, -4, -5), (-2, 4, -3), (-5, -3, 1), (-5, 3, -6), (-5, -6, 4), (-5, -3, 2),
        (2, -6, -4), (6, -1, -3), (-1, 4, 2), (6, 5, 3), (-4, -1, 6), (-5, 2, -1),
        (-2, -5, 3), (-5, 2, 1), (-6, 5, 3), (-4, 1, 6), (-3, -5, 6))),
    "3sat-n6": Cnf3Formula(6, ((1, -2, 3), (-4, 5), (-6,), (2, 4, 6), (-1, -3, -5), (3, -4, 6))),
}

# Closed interfaces: an interface-complete marking, a library component, and a
# connector that names a port only the library declares.
DIGEST_SPECS = {
    "closed": spec_of("""
        <<interface-complete>> component A { port in t p; port out t r; component B; }
        connect B.q -> A.r;
    """, library=LIB_B),
}

# sha256 of repr((num_vars, clauses, groups, comments)) for each input.  S2
# and S2NoNest declare Cylinder.angle as int and as float, so they end with a
# port-identity group; no other input has a port clash.
CNF_DIGESTS = {
    "Lander": "74e59ac5f59cba5d851d6755038cb4b07d318400bc2dc3ac6f2133f56fb90b86",
    "S1": "cbc1ad0ab81a667d5a413aaca33cd97a569426d75ec30e04f2df512ba1d00973",
    "S1amp": "0421888b98ca78ee2d3bea8183fbea141e24a25aa97d14e3efdf49d94c195b54",
    "S1hier": "75870a2758b37e3ba920af1159afb8c5b1280c7c69af1969da4669be34df68ad",
    "S1lib": "3ddd73280ce0a1aec8261f0920c3cc76de39205a18abf891ed8a3927b16c39cb",
    "S2": "1a97ec698b3122dd5b58c9ed7810c8d8f97d83928c35915baf64b405e340161c",
    "S2Fixed": "50869a658d4d07b391e9e3bbfebc96788e14c2fe836db26a18df4ae80c826088",
    "S2NoNest": "964e22a25e26ff04fc46ca11226a967e9ebc94e7be8a6bf608cd369427511c7a",
    "S1lib@ports=10": "97e2d9c7df82bc7c482881936c9617c6cf8ed7ae97ee44d5fc29125dddba993e",
    "S1@ports=19": "cbc1ad0ab81a667d5a413aaca33cd97a569426d75ec30e04f2df512ba1d00973",
    "3sat-n1": "3a43dc93e81ba8af68bb3a99482df96d2a6e3e00ac8155bb65806bf055ff7835",
    "3sat-n6-pinned": "e8b90e7e29bc806977404985ef5768d17e37e47f06c44b875c10a836d8e930ba",
    "3sat-n6": "ba2fa8432ee6f008353654956cb802775f7660ec0eb11cf258481e8ac1e978ef",
    "closed": "48f3c3cd0d48a12deed337b0af337ade3ee4febd8e138abfe28a58cb0e015a8f",
}


def cnf_digest(cnf) -> str:
    text = repr((cnf.num_vars, cnf.clauses, cnf.groups, cnf.comments))
    return hashlib.sha256(text.encode()).hexdigest()


def digest_encodings():
    """The encoding of every fixture spec at its own scope, of S1lib at
    ports=10 (the rj-unsat instance) and S1 at ports=19 (criterion 1, through
    the override: S1.cncspec sets the same scope), of ``DIGEST_SPECS``, and
    of three 3SAT reductions, each with its name."""
    specs = {path.stem: load_spec(str(path)) for path in sorted(FIXTURES.rglob("*.cncspec"))}
    for name, ports in (("S1lib", 10), ("S1", 19)):
        spec = specs[name]
        specs[f"{name}@ports={ports}"] = dataclasses.replace(
            spec, scope_hints=dataclasses.replace(spec.scope_hints, ports=ports))
    specs.update(DIGEST_SPECS)
    for name, spec in specs.items():
        yield name, encode(spec)
    for name, f in DIGEST_3SAT.items():
        yield name, encode(resolve(reduce_3sat(f)), reduction_scope(f))


def cnf_digests() -> dict[str, str]:
    """The digest of each of ``digest_encodings``."""
    return {name: cnf_digest(enc.cnf) for name, enc in digest_encodings()}


def test_cnf_digests_are_pinned():
    assert cnf_digests() == CNF_DIGESTS


def test_cnf_digests_ignore_the_hash_seed():
    # Set and dict iteration order over strings follows PYTHONHASHSEED; the
    # encoding must not.
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "from test_encoder import cnf_digests; print(json.dumps(cnf_digests()))")
    tests = Path(__file__).parent
    env = {**os.environ, "PYTHONHASHSEED": "1", "PYTHONPATH": str(tests.parent / "src")}
    out = subprocess.run([sys.executable, "-c", code, str(tests)], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(out.stdout) == CNF_DIGESTS


# The number of variables of each kind (the first word of its description,
# which the benchmark reports as ``encoder.vars.<kind>``).  The digests hash
# the descriptions of the structural variables only, so these pin the
# auxiliary kinds.
VAR_KINDS = {
    "Lander": {
        "exists": 4, "parent": 12, "top": 4, "used": 6, "owner": 24, "pname": 18, "pin": 6,
        "ptype": 6, "conn": 30, "subt": 12, "subtstep": 24, "sameowner": 5, "pparent": 24,
        "ptop": 6, "reach": 30, "reachstep": 120, "acok": 62, "view": 3, "faux": 1},
    "S1lib@ports=10": {
        "exists": 7, "parent": 42, "top": 7, "used": 10, "owner": 70, "pname": 70, "pin": 10,
        "ptype": 10, "conn": 90, "subt": 42, "subtstep": 210, "sameowner": 9, "pparent": 70,
        "ptop": 10, "reach": 90, "reachstep": 720, "portsel": 30, "portok": 3,
        "endsel": 10, "acok": 728, "view": 6, "faux": 2},
    "3sat-n6-pinned": {
        "exists": 12, "parent": 132, "top": 12, "subt": 132, "subtstep": 1320, "view": 12,
        "faux": 24},
}


def test_variable_counts_per_kind_are_pinned():
    kinds = {name: collections.Counter(enc.varmap.describe(v).split(" ", 1)[0]
                                       for v in range(1, enc.varmap.num_vars + 1))
             for name, enc in digest_encodings() if name in VAR_KINDS}
    assert kinds == VAR_KINDS


def test_one_component_numbers_pparent_on_first_lookup():
    # With one component no parent clause reads pparent: one slot numbers
    # none, and two slots number it after ptop, from the sibling clauses.
    spec = spec_of("component A { port in int x; port out int y; }")
    kinds = {}
    for ports in (1, 2):
        vm = encode(spec, Scope(("A",), ports, ("x", "y"), ("int",))).varmap
        kinds[ports] = [vm.describe(v).split(" ", 1)[0] for v in range(1, vm.num_vars + 1)]
    assert "pparent" not in kinds[1]
    assert kinds[2].index("ptop") < kinds[2].index("pparent")
