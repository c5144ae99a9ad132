"""Acceptance suite: one test per top-level acceptance criterion.

Later criteria (closure exactness, the soundness gate) audit every model
produced by the earlier ones, so the tests share a module-level RUNS
registry of (label, spec, encoding, literals, model) tuples, where
``literals`` are the true literals of the SAT answer.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
import subprocess
import sys
import time

import pytest

from conftest import RJ

from oracles import (
    _containment_closure,
    assignment_satisfies,
    oracle_end_to_end_edges,
    oracle_is_acyclic,
    oracle_satisfies,
    truth_table_sat,
)

from cncsynth.checker import evaluate_spec, satisfies
from cncsynth.cli import load_spec
from cncsynth.dsl import parse_model, parse_view
from cncsynth.encoder import decode, encode
from cncsynth.model import (
    CncModel,
    Component,
    Connector,
    Direction,
    Port,
    PortRef,
    contains_transitive,
    validate_model,
)
from cncsynth.reduction import Cnf3Formula, solve_3sat
from cncsynth.sat import RESOURCE_LIMIT, SAT, SolverConfig, iter_assignments
from cncsynth.speclang import And, StyleKind, Var
from cncsynth.synth import SynthOutcome, synthesize

IN, OUT = Direction.IN, Direction.OUT

RUNS: list[tuple] = []


def rj_view(name: str):
    return parse_view((RJ / f"{name}.cncview").read_text(), name)


def enumerate_with_assignments(spec, limit=None, config=SolverConfig()):
    """Like synth.enumerate_models, but keeps the raw assignments, as their
    true literals, so the closure-exactness criterion can audit them
    afterwards."""
    enc = encode(spec)
    out = []
    for result in iter_assignments(enc.cnf, config, list(enc.structural_vars)):
        if result.status == RESOURCE_LIMIT:
            raise TimeoutError("resource limit during enumeration")
        if result.status != SAT:
            break
        model = decode(enc, result.literals)
        out.append((enc, result.literals, model))
        if limit is not None and len(out) >= limit:
            break
    return out


def register(label, spec, enc, literals, model):
    RUNS.append((label, spec, enc, literals, model))


# --- 1. Synthesis from the base specification ---------------------------------

@pytest.mark.slow
def test_criterion_1_base_specification_synthesis():
    start = time.monotonic()
    p = subprocess.run(
        [sys.executable, "-m", "cncsynth.cli", "synth",
         str(RJ / "S1.cncspec"), "--ports", "19", "--json"],
        capture_output=True, text=True)
    elapsed = time.monotonic() - start
    assert p.returncode == 0, p.stderr
    assert elapsed <= 60.0, f"synthesis took {elapsed:.1f}s"

    model = parse_model(json.loads(p.stdout)["model"])
    assert validate_model(model) == []
    for must in ("RJFunction", "SensorConnections", "RJStructure"):
        assert satisfies(model, rj_view(must)).satisfied, must
    assert (satisfies(model, rj_view("BodySensorIn")).satisfied
            or satisfies(model, rj_view("BodySensorOut")).satisfied)
    assert not satisfies(model, rj_view("ASDependence")).satisfied

    spec = load_spec(str(RJ / "S1.cncspec"))
    result = synthesize(spec)
    assert result.outcome is SynthOutcome.SAT
    register("S1", spec, result.encoding, result.literals, result.model)


# --- 2. Conflict detection and repair ------------------------------------------

@pytest.mark.slow
def test_criterion_2_conflict_detection_and_repair():
    assert synthesize(load_spec(str(RJ / "S2.cncspec"))).outcome is SynthOutcome.UNSAT
    # Removing only the nesting conflict leaves the type conflict: still UNSAT.
    assert synthesize(load_spec(str(RJ / "S2NoNest.cncspec"))).outcome is SynthOutcome.UNSAT
    # Removing both conflicts makes the combined specification realizable.
    spec = load_spec(str(RJ / "S2Fixed.cncspec"))
    result = synthesize(spec)
    assert result.outcome is SynthOutcome.SAT
    register("S2Fixed", spec, result.encoding, result.literals, result.model)


# --- 3. Amplifier placement follows the sensor position -------------------------

@pytest.mark.slow
def test_criterion_3_amplifier_dependent_structure():
    spec = load_spec(str(RJ / "S1amp.cncspec"))
    runs = enumerate_with_assignments(spec, limit=5)
    assert len(runs) >= 5
    for enc, literals, m in runs:
        register("S1amp", spec, enc, literals, m)
        if contains_transitive(m, "Body", "Sensor"):
            assert "Amplifier" not in m.by_name
        else:
            assert contains_transitive(m, "Sensor", "Amplifier")

    # Force each branch so neither implication is verified vacuously.
    def forced(view_name):
        return dataclasses.replace(spec, formula=And((spec.formula, Var(view_name))))

    r_in = synthesize(forced("BodySensorIn"))
    assert r_in.outcome is SynthOutcome.SAT
    assert contains_transitive(r_in.model, "Body", "Sensor")
    assert "Amplifier" not in r_in.model.by_name
    register("S1amp+In", spec, r_in.encoding, r_in.literals, r_in.model)

    r_out = synthesize(forced("BodySensorOut"))
    assert r_out.outcome is SynthOutcome.SAT
    assert not contains_transitive(r_out.model, "Body", "Sensor")
    assert contains_transitive(r_out.model, "Sensor", "Amplifier")
    register("S1amp+Out", spec, r_out.encoding, r_out.literals, r_out.model)


# --- 4. Library components stay black boxes ------------------------------------

def test_criterion_4_library_component():
    spec = load_spec(str(RJ / "S1lib.cncspec"))
    runs = enumerate_with_assignments(spec, limit=10)
    assert runs
    for enc, literals, m in runs:
        register("S1lib", spec, enc, literals, m)
        sv = m.by_name["ServoValve"]
        assert not sv.subcomponents
        assert {(p.name, p.direction, p.type) for p in sv.ports} == {
            ("svin", IN, "float"), ("svout", OUT, "float")}


# --- 5. Hierarchical style: acyclic end-to-end communication --------------------

@pytest.mark.slow
def test_criterion_5_hierarchical_style():
    spec = load_spec(str(RJ / "S1hier.cncspec"))
    # Capped: proving exhaustion after the last model is far more expensive
    # than finding models, and the criterion quantifies over emitted models.
    runs = enumerate_with_assignments(spec, limit=3)
    assert runs
    for enc, literals, m in runs:
        register("S1hier", spec, enc, literals, m)
        assert oracle_is_acyclic(oracle_end_to_end_edges(m))


# --- 6. 3SAT reduction agrees with truth tables ---------------------------------

def test_criterion_6_reduction_equivalence():
    rng = random.Random(42)
    start = time.monotonic()
    for _ in range(200):
        n = rng.randint(1, 8)
        m = rng.randint(1, 20)
        clauses = []
        for _ in range(m):
            width = rng.randint(1, 3)
            vs = rng.sample(range(1, n + 1), min(width, n))
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        f = Cnf3Formula(n, tuple(clauses))
        assignment = solve_3sat(f)
        assert (assignment is not None) == truth_table_sat(n, clauses)
        if assignment is not None:
            assert assignment_satisfies(clauses, assignment)
    assert time.monotonic() - start <= 300.0


# --- 7. Checker equivalence with an independent oracle ---------------------------

def _c7_models():
    shapes = [
        {"A": ("B", "C"), "B": (), "C": ()},
        {"A": ("B",), "B": ("C",), "C": ()},
        {"A": ("B",), "B": ()},
        {"A": ()},
    ]
    port_options = [
        (),
        (Port("p", IN, "t"),),
        (Port("p", OUT, "t"),),
        (Port("q", IN, "u"), Port("p", OUT, "t")),
    ]
    models = set()
    for shape in shapes:
        names = sorted(shape)
        for combo in itertools.product(port_options, repeat=len(names)):
            comps = [Component(n, combo[i], frozenset(shape[n]))
                     for i, n in enumerate(names)]
            refs = [PortRef(c.name, p.name) for c in comps for p in c.ports]
            pairs = [(s, t) for s in refs for t in refs if s != t]
            subsets = itertools.chain([()], ((p,) for p in pairs),
                                      itertools.combinations(pairs, 2))
            for conns in subsets:
                m = CncModel(comps, [Connector(s, t) for s, t in conns])
                if not validate_model(m):
                    models.add(m)
    return models


C7_VIEW_TEXTS = [
    "component A;",
    "component A; component B;",
    "component A { component B; }",
    "component B { component A; }",
    "component A { component B; component C; }",
    "component A { component B { component C; } }",
    "component A { port out t p; }",
    "component B { port in t p; }",
    "component A { port in u q; }",
    "component A { port in ? p; }",
    "component A; component B; connect A -> B;",
    "component A { component B; } connect A -> B;",
    "component A; component B; connect A.p -> B;",
    "component A { component B { port in t p; } } connect A -> B.p;",
]


def test_criterion_7_checker_matches_oracle():
    models = _c7_models()
    views = [parse_view(t, name=f"V{i}") for i, t in enumerate(C7_VIEW_TEXTS)]
    assert len(models) > 100
    checked = disagreements = 0
    positives = 0
    for m in models:
        for v in views:
            ours = satisfies(m, v).satisfied
            ref = oracle_satisfies(m, v)
            checked += 1
            positives += ours
            if ours != ref:
                disagreements += 1
    assert disagreements == 0, f"{disagreements}/{checked} disagreements"
    assert positives > 0, "the comparison must include satisfied pairs"


# --- 8. Closure variables are exact ---------------------------------------------

def test_criterion_8_closure_exactness():
    assert RUNS, "earlier criteria must have registered synthesis runs"
    mismatches = 0
    for label, spec, enc, literals, model in RUNS:
        vm, scope = enc.varmap, enc.scope
        cont = _containment_closure(model)
        for c in scope.components:
            for d in scope.components:
                v = vm.get("subt", c, d)
                if v is not None and (v in literals) != ((c, d) in cont):
                    mismatches += 1

        slot_ref = {}
        for p in range(scope.ports):
            v = vm.get("used", p)
            if v is None or v not in literals:
                continue
            owner = next(c for c in scope.components
                         if vm.get("owner", p, c) in literals)
            name = next(n for n in scope.port_names
                        if vm.get("pname", p, n) in literals)
            slot_ref[p] = (owner, name)
        edges = {(s, t) for s in slot_ref for t in slot_ref
                 if s != t and vm.get("conn", s, t) in literals}
        closure = set(edges)
        changed = True
        while changed:
            changed = False
            for a, b in list(closure):
                for b2, c in edges:
                    if b2 == b and (a, c) not in closure:
                        closure.add((a, c))
                        changed = True
        for p in range(scope.ports):
            for q in range(scope.ports):
                if p == q:
                    continue
                v = vm.get("reach", p, q)
                if v is not None and (v in literals) != ((p, q) in closure):
                    mismatches += 1
    assert mismatches == 0


# --- 9. Every emitted model passes independent verification ---------------------

def test_criterion_9_soundness_gate():
    assert RUNS, "earlier criteria must have registered synthesis runs"
    failures = 0
    for label, spec, enc, literals, model in RUNS:
        multi_ok = spec.style.kind in (StyleKind.CLIENT_SERVER, StyleKind.LAYERED)
        if validate_model(model, allow_multiple_tops=multi_ok):
            failures += 1
        elif not evaluate_spec(model, spec).overall:
            failures += 1
    assert failures == 0
