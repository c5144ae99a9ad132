"""End-to-end synthesis driver behavior."""

from __future__ import annotations

import gc

import pytest

from conftest import LANDER, RJ

from cncsynth import model as model_module, sat, synth
from cncsynth.cli import load_spec
from cncsynth.dsl import parse_view
from cncsynth.encoder import EncodingError, Scope
from cncsynth.model import contains_transitive
from cncsynth.sat import SolverConfig, SolverLimits
from cncsynth.speclang import And, Not, ScopeHints, Var, ViewSpec, resolve
from cncsynth.synth import (
    SoundnessError,
    SynthOutcome,
    enumerate_models,
    synthesize,
    verify_closures,
)


def tiny_spec(view_texts: dict[str, str], formula, **kw):
    views = tuple(parse_view(t, name=n) for n, t in view_texts.items())
    return resolve(ViewSpec("s", views, formula, **kw))


def test_lander_synthesis_properties():
    spec = load_spec(str(LANDER / "Lander.cncspec"))
    result = synthesize(spec)
    assert result.outcome is SynthOutcome.SAT
    m = result.model
    assert m.top == "LanderSystem"
    for part in ("Altimeter", "Navigation", "Engine"):
        assert contains_transitive(m, "LanderSystem", part)
    assert result.evaluation.overall
    assert all(result.evaluation.per_view.values())


def test_contradictory_views_are_unsat():
    spec = tiny_spec(
        {"V1": "component A { component B; }",
         "V2": "component B { component A; }"},
        # conjunction of both views is contradictory nesting
        And((Var("V1"), Var("V2"))),
        scope_hints=ScopeHints(ports=0, extra_names=0))
    result = synthesize(spec)
    assert result.outcome is SynthOutcome.UNSAT
    assert result.model is None


def test_negated_view_can_rescue_satisfiability():
    spec = tiny_spec(
        {"V1": "component A { component B; }",
         "V2": "component B { component A; }"},
        And((Var("V1"), Not(Var("V2")))),
        scope_hints=ScopeHints(ports=0, extra_names=0))
    result = synthesize(spec)
    assert result.outcome is SynthOutcome.SAT
    assert contains_transitive(result.model, "A", "B")


def test_resource_limit_outcome():
    spec = load_spec(str(LANDER / "Lander.cncspec"))
    result = synthesize(spec, config=SolverConfig(limits=SolverLimits(conflicts=0)))
    assert result.outcome is SynthOutcome.RESOURCE_LIMIT
    assert result.model is None
    assert result.encoding is not None


def test_enumeration_raises_timeout_on_resource_limit():
    spec = load_spec(str(LANDER / "Lander.cncspec"))
    with pytest.raises(TimeoutError):
        list(enumerate_models(spec, config=SolverConfig(limits=SolverLimits(conflicts=0))))


def test_timeout_bounds_the_whole_enumeration(monkeypatch):
    # A clock that moves 0.1 s on every reading: each solve call reads it at
    # least twice, so a 1 s limit ends the enumeration within a few models,
    # where a per-call limit would let all 2000 through.
    class TickingClock:
        now = 0.0

        def monotonic(self):
            self.now += 0.1
            return self.now

    monkeypatch.setattr(sat, "time", TickingClock())
    spec = load_spec(str(LANDER / "Lander.cncspec"))
    models = []
    with pytest.raises(TimeoutError):
        for m in enumerate_models(spec, limit=2000, config=SolverConfig(limits=SolverLimits(wall_seconds=1.0))):
            models.append(m)
    assert 1 <= len(models) <= 5


def test_enumeration_limit_counts_models():
    spec = tiny_spec({"V": "component A { component B; }"}, Var("V"),
                     scope_hints=ScopeHints(ports=0, extra_names=0))
    assert len(list(enumerate_models(spec, limit=1))) == 1
    assert list(enumerate_models(spec, limit=0)) == []
    with pytest.raises(ValueError):
        list(enumerate_models(spec, limit=-1))


def test_verify_closures_detects_tampering():
    spec = tiny_spec({"V": "component A { component B; }"}, Var("V"),
                     scope_hints=ScopeHints(ports=0, extra_names=0))
    result = synthesize(spec)
    assert result.outcome is SynthOutcome.SAT
    enc, lits = result.encoding, result.literals
    verify_closures(enc, lits, result.model)  # sanity: intact passes
    v = enc.varmap.get("subt", "B", "A")
    assert v is not None
    with pytest.raises(SoundnessError):
        verify_closures(enc, lits ^ {v, -v}, result.model)

    spec = tiny_spec({"V": "component T { component A { port out int o; } component B { port in int i; } }"
                           " connect A.o -> B.i;"}, Var("V"))
    result = synthesize(spec)
    assert result.outcome is SynthOutcome.SAT
    enc, lits = result.encoding, result.literals
    reach = [v for p in range(enc.scope.ports) for q in range(enc.scope.ports)
             if (v := enc.varmap.get("reach", p, q)) is not None]
    assert any(v in lits for v in reach) and not all(v in lits for v in reach)
    verify_closures(enc, lits, result.model)
    for v in reach:
        with pytest.raises(SoundnessError, match="reach"):
            verify_closures(enc, lits ^ {v, -v}, result.model)


@pytest.mark.parametrize("kind", ["owner", "pname", "ptype"])
def test_a_used_slot_without_owner_name_or_type_is_a_soundness_error(kind, monkeypatch):
    # Clear every `kind` variable of one used slot: decoding must name the
    # slot, directly and inside an enumeration.
    spec = load_spec(str(LANDER / "Lander.cncspec"))
    result = synthesize(spec)
    enc, lits = result.encoding, result.literals
    vm, scope = enc.varmap, enc.scope
    p = next(p for p in range(scope.ports) if vm.get("used", p) in lits)
    values = {"owner": scope.components, "pname": scope.port_names, "ptype": scope.types}[kind]
    cleared = {v for x in values if (v := vm.get(kind, p, x)) is not None}
    lits = lits - cleared | {-v for v in cleared}
    with pytest.raises(SoundnessError, match=f"used port slot {p} has no {kind}"):
        synth._decode_verified(enc, lits, spec)
    monkeypatch.setattr(synth, "iter_assignments",
                        lambda cnf, config, projection: iter([sat.SolveResult(sat.SAT, lits)]))
    with pytest.raises(SoundnessError, match=f"used port slot {p} has no {kind}"):
        next(enumerate_models(spec))


def test_decoding_and_verifying_runs_the_well_formedness_rules_once(monkeypatch):
    # `validate_model` and `evaluate_spec` both check well-formedness; the
    # rules run on the decoded model once.
    spec = load_spec(str(LANDER / "Lander.cncspec"))
    result = synthesize(spec)
    runs = []
    real = model_module._rule_violations
    monkeypatch.setattr(model_module, "_rule_violations", lambda m: runs.append(m) or real(m))
    model, evaluation = synth._decode_verified(result.encoding, result.literals, spec)
    assert model == result.model and evaluation.overall
    assert runs == [model] and runs[0] is model


def test_synthesized_models_are_deterministic():
    spec = load_spec(str(LANDER / "Lander.cncspec"))
    a = synthesize(spec).model
    b = synthesize(spec).model
    assert a == b


@pytest.fixture
def restore_gc():
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("path,outcome", [(LANDER / "Lander.cncspec", SynthOutcome.SAT),
                                          (RJ / "S2NoNest.cncspec", SynthOutcome.UNSAT)],
                         ids=["Lander", "S2NoNest"])
def test_synthesize_leaves_the_callers_gc_setting(restore_gc, enabled, path, outcome):
    spec = load_spec(str(path))
    (gc.enable if enabled else gc.disable)()
    assert synthesize(spec).outcome is outcome
    assert gc.isenabled() is enabled


def test_synthesize_restores_gc_when_it_raises(restore_gc):
    spec = tiny_spec({"V": "component A { component B; }"}, Var("V"))
    gc.enable()
    with pytest.raises(EncodingError, match="component 'B' missing"):
        synthesize(spec, Scope(("A",), 0, (), ()))
    assert gc.isenabled()


def test_synthesize_solves_with_gc_paused(restore_gc, monkeypatch):
    seen = []

    def recording_solve(cnf, config):
        seen.append(gc.isenabled())
        return sat.solve(cnf, config)

    monkeypatch.setattr(synth, "solve", recording_solve)
    gc.enable()
    spec = tiny_spec({"V": "component A { component B; }"}, Var("V"),
                     scope_hints=ScopeHints(ports=0, extra_names=0))
    assert synthesize(spec).outcome is SynthOutcome.SAT
    assert seen == [False] and gc.isenabled()


@pytest.fixture
def gc_probe():
    """The (phase, generation) of every collection while the test runs."""
    seen = []

    def probe(phase, info):
        seen.append((phase, info["generation"]))

    gc.callbacks.append(probe)
    yield seen
    gc.callbacks.remove(probe)


def test_synthesize_starts_no_young_collection(restore_gc, gc_probe):
    # The result is promoted to the oldest generation before the collector is
    # back on; otherwise the first allocation after that starts a young
    # collection that rescans the whole encoding (6-12 ms on S2).
    spec = load_spec(str(RJ / "S2.cncspec"))
    gc.enable()
    gc_probe.clear()
    result = synthesize(spec)
    assert result.outcome is SynthOutcome.UNSAT
    assert ("start", 0) not in gc_probe
    assert any(o is result.encoding for o in gc.get_objects(generation=2))


def test_synthesize_leaves_a_callers_freeze_alone(restore_gc):
    gc.enable()
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        spec = tiny_spec({"V": "component A { component B; }"}, Var("V"),
                         scope_hints=ScopeHints(ports=0, extra_names=0))
        assert synthesize(spec).outcome is SynthOutcome.SAT
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


def test_synthesize_collects_nothing_with_the_collector_off(restore_gc, gc_probe):
    spec = load_spec(str(RJ / "S2.cncspec"))
    gc.disable()
    gc_probe.clear()
    assert synthesize(spec).outcome is SynthOutcome.UNSAT
    assert gc_probe == [] and not gc.isenabled()
