"""Synthesis driver: encode, solve, decode, verify.

Every model returned here has passed the full polynomial checker
(:func:`cncsynth.checker.evaluate_spec`) after decoding, so an encoder or
solver defect can never silently produce a wrong answer — it raises
:class:`SoundnessError` instead.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Iterator

from cncsynth.checker import EvaluationResult, evaluate_spec
from cncsynth.encoder import Encoding, Scope, decode, encode
from cncsynth.model import CncModel, transitive_closure, validate_model
from cncsynth.sat import (RESOURCE_LIMIT, SAT, SolveStats, SolverConfig,
                          iter_assignments, solve)
from cncsynth.speclang import ResolvedSpec


class SynthOutcome(Enum):
    SAT = "sat"
    UNSAT = "unsat"  # no model within the given scope
    RESOURCE_LIMIT = "resource-limit"


class SoundnessError(Exception):
    """A decoded model failed independent verification."""


@dataclass
class SynthResult:
    """A synthesis verdict.  ``literals`` are the true literals of the SAT
    answer that ``model`` was decoded from (see ``sat.SolveResult``)."""

    outcome: SynthOutcome
    model: CncModel | None
    evaluation: EvaluationResult | None
    stats: SolveStats
    encoding: Encoding
    literals: frozenset[int] | None = None


def verify_closures(enc: Encoding, literals: frozenset[int], model: CncModel) -> None:
    """Check that the solver's reach/subt variables are exactly the transitive
    closures of the decoded model's containment and of the connectors between
    used port slots.  The answer's true ``literals`` are read through the
    encoding's ``subt``, ``used``, ``conn`` and ``reach`` tables; a variable
    with neither literal there reads False."""
    contains = model.contains
    for c, row in enc.subt.items():
        for d, v in row.items():
            truth = (c, d) in contains
            if (v in literals) != truth:
                raise SoundnessError(f"subt({c}, {d}) is {v in literals}, closure says {truth}")

    used = {p for p, v in enc.used.items() if v in literals}
    reach = transitive_closure({p: [q for q, v in enc.conn[p].items() if v in literals and q in used]
                                for p in used})
    for p, row in enumerate(enc.reach):
        for q, v in row.items():
            truth = (p, q) in reach
            if (v in literals) != truth:
                raise SoundnessError(f"reach({p}, {q}) is {v in literals}, closure says {truth}")


def _decode_verified(enc: Encoding, literals: frozenset[int],
                     spec: ResolvedSpec) -> tuple[CncModel, EvaluationResult]:
    """Decode the answer with true ``literals`` and verify the model: its
    closures against the solver's, its well-formedness and the full
    specification."""
    try:
        model = decode(enc, literals)
    except ValueError as exc:
        raise SoundnessError(f"cannot decode the assignment: {exc}") from exc
    verify_closures(enc, literals, model)
    bad = validate_model(model, allow_multiple_tops=bool(spec.style.tops))
    if bad:
        raise SoundnessError("decoded model is ill-formed: " + "; ".join(str(v) for v in bad))
    evaluation = evaluate_spec(model, spec)
    if not evaluation.overall:
        failing = sorted(n for n, ok in evaluation.per_view.items() if not ok)
        raise SoundnessError(
            "decoded model does not satisfy the specification "
            f"(formula={evaluation.formula_value}, failing views={failing}, "
            f"constraints={[str(v) for v in evaluation.constraint_violations]})")
    return model, evaluation


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Keep Python's cyclic collector off for the block, then restore the
    caller's setting, with what the block left alive in the oldest
    generation.

    The encoding and the solver hold no cycles (clause tuples, watch lists,
    the VarMap), so reference counting frees them; with the collector on,
    their ~190k allocations on a large spec trigger hundreds of collections
    that only rescan them.  The collector is switched back on only if it was
    on at entry, so a thread that enters while another holds the pause never
    leaves it off.

    A synthesis result is allocated in bulk, acyclic and long-lived, the
    opposite of what a young generation is for.  So when the collector is on
    and the caller has frozen nothing, the caller's young objects are
    collected first (``gc.collect(1)``, as a young collection would), and at
    exit ``gc.freeze()`` then ``gc.unfreeze()`` move every survivor to the
    oldest generation in O(1) and zero the young count.  Without that, the
    first allocation after the collector is back on starts a young
    collection that rescans the returned encoding (6-12 ms of a 34-74 ms
    ``synthesize`` on S2, 2 vCPUs).  A caller that froze objects keeps them
    frozen: the promotion is skipped, and so is the entry collection.
    """
    was = gc.isenabled()
    promote = was and gc.get_freeze_count() == 0
    if promote:
        gc.collect(1)
    gc.disable()
    try:
        yield
    finally:
        if promote:
            gc.freeze()
            gc.unfreeze()
        if was:
            gc.enable()


def synthesize(spec: ResolvedSpec, scope: Scope | None = None,
               config: SolverConfig = SolverConfig()) -> SynthResult:
    """Synthesize one model satisfying ``spec`` within ``scope`` (default:
    :func:`cncsynth.encoder.compute_scope`).

    Python's cyclic garbage collector is paused for the whole call and the
    caller's setting is restored on return or raise.  With the collector on
    and nothing frozen by the caller, the caller's young objects are
    collected on entry and everything alive at exit, the result among it,
    goes to the oldest generation, so no young collection rescans it (see
    ``_gc_paused``)."""
    with _gc_paused():
        enc = encode(spec, scope)
        result = solve(enc.cnf, config)
        if result.status != SAT:
            outcome = SynthOutcome.RESOURCE_LIMIT if result.status == RESOURCE_LIMIT else SynthOutcome.UNSAT
            return SynthResult(outcome, None, None, result.stats, enc)
        model, evaluation = _decode_verified(enc, result.literals, spec)
        return SynthResult(SynthOutcome.SAT, model, evaluation, result.stats, enc, result.literals)


def enumerate_models(spec: ResolvedSpec, limit: int | None = None,
                     scope: Scope | None = None,
                     config: SolverConfig = SolverConfig()) -> Iterator[CncModel]:
    """Yield up to ``limit`` (all if None) pairwise-distinct models
    satisfying ``spec`` within the scope; a negative limit raises ValueError.

    Slot symmetry breaking makes structural assignments canonical per model,
    so blocking on the structural variables walks distinct models; iteration
    ends when the scope is exhausted.  The first model is the one
    :func:`synthesize` returns; with the internal engine every later one is
    blocked by its structural decisions (see
    :func:`cncsynth.sat.iter_assignments`).  A solver resource limit raises
    TimeoutError to keep an exhausted scope distinguishable from an
    interrupted search.

    Unlike :func:`synthesize`, this leaves the cyclic collector alone: a
    pause held across ``yield`` would run the caller's code with it off.
    """
    enc: Encoding = encode(spec, scope)
    for result in islice(iter_assignments(enc.cnf, config, list(enc.structural_vars)), limit):
        if result.status == RESOURCE_LIMIT:
            raise TimeoutError("solver resource limit reached during enumeration")
        if result.status != SAT:
            return
        yield _decode_verified(enc, result.literals, spec)[0]
