"""SAT backend: internal solver correctness, limits, DIMACS, enumeration."""

from __future__ import annotations

import dataclasses
import itertools
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import LANDER, RJ
from oracles import assignment_satisfies, projected_models, truth_table_sat

from cncsynth import cli, sat
from cncsynth.cli import load_spec
from cncsynth.encoder import encode
from cncsynth.reduction import Cnf3Formula, reduce_3sat, reduction_scope
from cncsynth.speclang import resolve
from cncsynth.sat import (
    RESOURCE_LIMIT,
    SAT,
    UNSAT,
    CnfInstance,
    SolverConfig,
    SolverError,
    SolverLimits,
    check_assignment,
    emit_dimacs,
    iter_assignments,
    parse_dimacs,
    parse_dimacs_result,
    solve,
)


def random_cnf(rng: random.Random) -> CnfInstance:
    """Up to 6 variables and 14 clauses of 1 to 5 literals, a quarter of
    them units: enough units and binary clauses that they alone refute some
    draws at the root, and enough longer clauses that most draws have one."""
    n = rng.randint(1, 6)
    m = rng.randint(1, 14)
    clauses = []
    for _ in range(m):
        width = rng.choice((1, 1, 2, 2, 3, 3, 4, 5))
        vs = rng.sample(range(1, n + 1), min(width, n))
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return CnfInstance(n, tuple(clauses))


def loaded(cnf: CnfInstance) -> sat._Cdcl:
    solver = sat._Cdcl(cnf.num_vars, SolverLimits())
    solver.add_clauses(cnf.clauses)
    return solver


def test_random_formulas_match_truth_tables():
    rng = random.Random(13)
    root_check = set()
    for _ in range(150):
        cnf = random_cnf(rng)
        result = solve(cnf)
        expected = truth_table_sat(cnf.num_vars, cnf.clauses)
        assert (result.status == SAT) == expected
        if expected:
            assert check_assignment(cnf, result.literals)
        if any(len(c) > 2 for c in cnf.clauses):
            # The root check of add_clauses refuted the draw if it propagated
            # and failed; one that passes restores the count to 0, and a load
            # that fails on its units stops before it.
            solver = loaded(cnf)
            root_check.add("passed" if solver.ok else
                           "refuted" if solver.stats.propagations else "not run")
    assert {"refuted", "passed"} <= root_check


def test_a_root_refutation_by_units_and_binary_clauses_attaches_no_longer_clause():
    # 1 implies 2 and 2 implies -3, against the unit 3.
    small = CnfInstance(5, ((1,), (-1, 2), (1, 3, 4, 5), (-2, -3), (2, 4, 5), (3,)))
    s2 = encode(load_spec(str(RJ / "S2.cncspec"))).cnf
    for cnf in (small, s2):
        assert any(len(c) > 2 for c in cnf.clauses)
        solver = loaded(cnf)
        assert not solver.ok
        assert not any(solver.watches)
        assert solve(cnf).status == UNSAT


def test_a_root_check_without_conflict_leaves_nothing_behind():
    # The units 1 and 4 imply 2 and 3 through binary clauses and refute
    # nothing; only the units stay on the trail, and the longer clauses
    # watch their first two literals as if no check had been made.
    cnf = CnfInstance(5, ((1,), (-1, 2), (-2, 3), (-3, 4, 5), (4,), (1, -4, 5)))
    solver = loaded(cnf)
    assert solver.ok
    assert solver.trail == [1, 4] and solver.trail_lim == [] and solver.qhead == 0
    assert {l: solver.val[l] for l in literals(solver) if solver.val[l]} == {-4: -1, -1: -1, 1: 1, 4: 1}
    assert solver.stats.propagations == 0
    assert all(r is None for r in solver.reason)
    assert watched(solver) == {-3: [[-3, 4, 5]], 4: [[-3, 4, 5]], 1: [[1, -4, 5]], -4: [[1, -4, 5]]}
    result = solve(cnf)
    assert result.status == SAT and check_assignment(cnf, result.literals)


def test_trivial_instances():
    assert solve(CnfInstance(0, ())).status == SAT
    assert solve(CnfInstance(1, ((1,), (-1,)))).status == UNSAT
    assert solve(CnfInstance(2, ((),))).status == UNSAT  # empty clause
    r = solve(CnfInstance(2, ((1, 2),)))
    assert r.status == SAT and check_assignment(CnfInstance(2, ((1, 2),)), r.literals)


def test_determinism():
    rng = random.Random(99)
    cnf = random_cnf(rng)
    a = solve(cnf, SolverConfig())
    b = solve(cnf, SolverConfig())
    assert a.status == b.status and a.literals == b.literals
    assert a.stats.conflicts == b.stats.conflicts


def pigeonhole(pigeons: int, holes: int) -> CnfInstance:
    def var(p, h):
        return p * holes + h + 1
    clauses = [tuple(var(p, h) for h in range(holes)) for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append((-var(p1, h), -var(p2, h)))
    return CnfInstance(pigeons * holes, tuple(clauses))


def test_conflict_limit_yields_resource_limit():
    # A formula that needs some search: pigeonhole 4 into 3.
    cnf = pigeonhole(4, 3)
    assert solve(cnf).status == UNSAT
    limited = SolverConfig(limits=SolverLimits(conflicts=1))
    assert solve(cnf, limited).status == RESOURCE_LIMIT


def test_solver_limits_reject_out_of_range_values():
    with pytest.raises(ValueError, match="conflicts must not be negative, got -1"):
        SolverLimits(conflicts=-1)
    for seconds in (0, -1.5, float("nan")):
        with pytest.raises(ValueError, match="wall_seconds must be positive"):
            SolverLimits(wall_seconds=seconds)
    assert SolverLimits(conflicts=0, wall_seconds=0.5).conflicts == 0


def test_a_conflict_limit_with_an_external_solver_is_rejected():
    # An external run cannot be stopped at a conflict count; the limit was
    # silently ignored.
    for conflicts in (0, 5):
        with pytest.raises(ValueError, match="conflict limit cannot apply to the external solver 'kissat'"):
            SolverConfig(engine="kissat", limits=SolverLimits(conflicts=conflicts))
    assert SolverConfig(engine="kissat", limits=SolverLimits(wall_seconds=1.0)).limits.conflicts is None
    assert SolverConfig(limits=SolverLimits(conflicts=0)).limits.conflicts == 0


def test_dimacs_round_trip():
    cnf = CnfInstance(3, ((1, -2), (2, 3), (-1, -3)), comments=("hello", ""))
    text = emit_dimacs(cnf)
    back = parse_dimacs(text)
    assert back.num_vars == 3 and back.clauses == cnf.clauses
    assert back.comments[0] == "hello"
    # Each line of a multi-line comment is a comment line of its own.
    cnf = CnfInstance(2, ((1, 2),), comments=("a\nb",))
    assert parse_dimacs(emit_dimacs(cnf)) == CnfInstance(2, ((1, 2),), comments=("a", "b"))


def test_parse_dimacs_multiline_and_percent():
    text = "c note\np cnf 3 2\n1 -2\n3 0\n2 0\n%\n0\n"
    cnf = parse_dimacs(text)
    assert cnf.clauses == ((1, -2, 3), (2,))


def test_parse_dimacs_errors():
    for text, message in [
        ("1 2 0\n", "missing DIMACS header"),
        ("p cnf 2 5\n1 0\n", "header declares 5 clauses, found 1"),
        ("p dnf 2 1\n1 0\n", "bad DIMACS header: 'p dnf 2 1'"),
        ("p cnf -1 0\n", "negative count in DIMACS header: 'p cnf -1 0'"),
        ("p cnf 2 -1\n", "negative count in DIMACS header: 'p cnf 2 -1'"),
        ("p cnf 2 3\n1 3 0\n2 0\n-1 -2 0\n",
         "literal 3 is outside the variables 1..2 of the DIMACS header 'p cnf 2 3'"),
        ("p cnf 2 1\n-1 -4 0\n", "literal -4 is outside the variables 1..2 of the DIMACS header 'p cnf 2 1'"),
        ("p cnf 0 1\n1 0\n", "literal 1 is outside the variables 1..0 of the DIMACS header 'p cnf 0 1'"),
        ("p cnf 2 1\n1 x 0\n", "line 2: 'x' is not an integer"),
        ("c note\n\np cnf 2 1\n1 0\n-2 2.0\n", "line 5: '2.0' is not an integer"),
        ("p cnf two 1\n1 0\n", "line 1: 'two' is not an integer"),
    ]:
        with pytest.raises(SolverError, match=f"^{re.escape(message)}$"):
            parse_dimacs(text)
    # With its third variable declared, the first range case is SAT (x1 = F,
    # x2 = T, x3 = T); loaded into two variables' arrays, (1, 3) would fall
    # in literal 2's slot and the solver would answer UNSAT.
    assert solve(parse_dimacs("p cnf 3 3\n1 3 0\n2 0\n-1 -2 0\n")).status == SAT


def test_parse_dimacs_result():
    sat = parse_dimacs_result("c x\ns SATISFIABLE\nv 1 -2\nv 3 0\n")
    assert sat.status == SAT and sat.literals == {1, -2, 3} and type(sat.literals) is frozenset
    assert parse_dimacs_result("s UNSATISFIABLE\n").status == UNSAT
    assert parse_dimacs_result("s UNKNOWN\n").status == RESOURCE_LIMIT
    with pytest.raises(SolverError):
        parse_dimacs_result("nothing here\n")
    with pytest.raises(SolverError):
        parse_dimacs_result("s SATISFIABLE\n")  # missing v lines
    # A solver that prints only its true literals answers an all-false model
    # with a bare terminator.
    assert parse_dimacs_result("s SATISFIABLE\nv 0\n").literals == frozenset()
    # A literal repeated with the same sign is one literal.
    assert parse_dimacs_result("s SATISFIABLE\nv 2 -1\nv 2 0\n").literals == {-1, 2}


@pytest.mark.parametrize("text, message", [
    ("s SATISFIABLE\nv 1 -2\nv x 0\n", "line 3: 'x' is not an integer"),
    ("s SATISFIABLE\nv 1 -1 2 0\n", "'v' lines set variable 1 both true and false"),
    ("s SATISFIABLE\nv -3 2\nv 1 3 0\n", "'v' lines set variable 3 both true and false"),
    # The last of several 's' lines used to win: this read as UNSAT.
    ("s SATISFIABLE\nv 1 0\ns UNSATISFIABLE\n", "line 3: a second 's' line, 's UNSATISFIABLE'"),
])
def test_parse_dimacs_result_rejects_a_malformed_model(text, message):
    with pytest.raises(SolverError, match=f"^{re.escape(message)}$"):
        parse_dimacs_result(text)


def test_iter_assignments_enumerates_projection_exactly():
    # x3 is free; projecting on {1, 2} must give exactly the 3 solutions of
    # (x1 | x2), each distinct, then a terminal UNSAT.
    cnf = CnfInstance(3, ((1, 2),))
    results = list(iter_assignments(cnf, projection=[1, 2]))
    assert [r.status for r in results] == [SAT, SAT, SAT, UNSAT]
    seen = {(1 in r.literals, 2 in r.literals) for r in results[:3]}
    assert seen == {(True, True), (True, False), (False, True)}
    for r in results[:3]:
        assert assignment_satisfies(cnf.clauses, {v: v in r.literals for v in range(1, 4)})


@st.composite
def cnf_and_projection(draw, max_vars: int = 8, max_clauses: int = 20) -> tuple[CnfInstance, list[int]]:
    """Up to ``max_vars`` variables and ``max_clauses`` clauses of width 1-3,
    and a non-empty projection."""
    n = draw(st.integers(1, max_vars))
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.tuples(lit) | st.tuples(lit, lit) | st.tuples(lit, lit, lit),
                            max_size=max_clauses))
    projection = draw(st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True))
    return CnfInstance(n, tuple(clauses)), projection


@settings(max_examples=300, deadline=None)
@given(cnf_and_projection())
@example((CnfInstance(4, ((2, 4), (-2, 4))), [1, 4]))  # a conflict right after a backjump
def test_enumeration_matches_brute_force(case):
    # Each blocking clause backjumps to its assertion level: it becomes a
    # root unit, implies its highest literal, ties two literals at one level
    # or exhausts the formula at the root; every projected model must still
    # come exactly once, then UNSAT.
    cnf, projection = case
    results = list(iter_assignments(cnf, projection=projection))
    assert [r.status for r in results] == [SAT] * (len(results) - 1) + [UNSAT]
    proj = sorted(projection)
    found = [tuple(v in r.literals for v in proj) for r in results[:-1]]
    assert len(found) == len(set(found))
    assert set(found) == projected_models(cnf.num_vars, cnf.clauses, proj)


@settings(max_examples=300, deadline=None)
@given(cnf_and_projection())
@example((CnfInstance(3, ((1, 2, 3),)), [1, 2]))
def test_later_answers_are_blocked_by_their_projection_decisions(case):
    # After the first answer the solver decides the projection first, so at
    # every later answer no decision outside the projection lies below one
    # inside it, and the answer is blocked by exactly its negated projection
    # decisions, deepest first; with none the projection is exhausted.
    cnf, projection = case
    proj = set(projection)
    answers = []  # [decisions, clauses learnt while blocking, ok after]
    blocking = False
    real_solve, real_block, real_learn = sat._Cdcl.solve, sat._Cdcl.add_blocking_clause, sat._Cdcl._learn

    def solve_(self):
        result = real_solve(self)
        if result.status == SAT:
            answers.append([[self.trail[i] for i in self.trail_lim], [], None])
        return result

    def block(self, lits):
        nonlocal blocking
        blocking = True
        real_block(self, lits)
        blocking = False
        answers[-1][2] = self.ok

    def learn(self, c):
        if blocking:
            answers[-1][1].append(list(c))
        real_learn(self, c)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sat._Cdcl, "solve", solve_)
        mp.setattr(sat._Cdcl, "add_blocking_clause", block)
        mp.setattr(sat._Cdcl, "_learn", learn)
        results = list(iter_assignments(cnf, projection=projection))
    assert len(answers) == len(results) - 1
    for decisions, learnt, ok in answers[1:]:
        inside = [abs(d) in proj for d in decisions]
        assert inside == sorted(inside, reverse=True)
        expected = [-d for d in reversed(decisions) if abs(d) in proj]
        assert learnt == ([expected] if expected else [])
        assert ok == bool(expected)


@pytest.mark.parametrize("path", [LANDER / "Lander.cncspec", RJ / "S1lib.cncspec"], ids=lambda p: p.stem)
def test_the_first_enumerated_answer_is_the_solve_answer(path):
    # Enumeration changes the search only after its first answer.
    enc = encode(load_spec(str(path)))
    alone = solve(enc.cnf)
    first = next(iter_assignments(enc.cnf, projection=list(enc.structural_vars)))
    assert first.status == alone.status == SAT and first.literals == alone.literals
    counts = (alone.stats.conflicts, alone.stats.decisions, alone.stats.propagations)
    assert (first.stats.conflicts, first.stats.decisions, first.stats.propagations) == counts


def test_iter_assignments_full_projection_default():
    cnf = CnfInstance(2, ((1, 2),))
    results = list(iter_assignments(cnf))
    assert [r.status for r in results].count(SAT) == 3


def test_iter_assignments_rejects_empty_projection():
    with pytest.raises(ValueError):
        next(iter_assignments(CnfInstance(0, ()), projection=[]))
    # An empty projection is not "all variables", also when there are some.
    with pytest.raises(ValueError):
        iter_assignments(CnfInstance(2, ((1, 2),)), projection=[])


@pytest.mark.parametrize("entry", [5, 0, -1])
def test_iter_assignments_rejects_a_projection_entry_outside_the_formula(entry):
    # Unchecked, 5 raised a bare IndexError after the first answer, 0 gave one
    # answer then UNSAT, and -1 gave two answers.
    with pytest.raises(ValueError, match=rf"projection entry {entry} is not a variable .*\(1\.\.2\)"):
        iter_assignments(CnfInstance(2, ((1, 2),)), projection=[1, entry, 7])


def test_iter_assignments_deduplicates_a_repeated_projection_entry():
    results = list(iter_assignments(CnfInstance(2, ((1, 2),)), projection=[2, 1, 2]))
    assert [r.status for r in results] == [SAT, SAT, SAT, UNSAT]
    assert len({(1 in r.literals, 2 in r.literals) for r in results[:3]}) == 3


# --- the search is pinned: a change to the solver's bookkeeping must not move
# a single decision ------------------------------------------------------------

def search_counts(cnf: CnfInstance) -> tuple[str, int, int, int]:
    r = solve(cnf)
    return r.status, r.stats.conflicts, r.stats.decisions, r.stats.propagations


def test_search_counts_lander_first_solve():
    assert search_counts(encode(load_spec(str(LANDER / "Lander.cncspec"))).cnf) == (SAT, 7, 51, 815)


def test_search_counts_s2():
    # Refuted at the root by its units and binary clauses alone.
    assert search_counts(encode(load_spec(str(RJ / "S2.cncspec"))).cnf) == (UNSAT, 0, 0, 7)


def test_search_counts_s2nonest():
    # The port-identity clauses refute Cylinder.angle's int and float
    # declarations at the root; before them the search took 1028/16053/752535.
    assert search_counts(encode(load_spec(str(RJ / "S2NoNest.cncspec"))).cnf) == (UNSAT, 0, 0, 129)


def test_search_counts_s1lib_ports10():
    # A refutation that needs CDCL search: S1lib is SAT at its own 12 ports.
    spec = load_spec(str(RJ / "S1lib.cncspec"))
    spec = dataclasses.replace(spec, scope_hints=dataclasses.replace(spec.scope_hints, ports=10))
    assert search_counts(encode(spec).cnf) == (UNSAT, 2843, 8768, 538919)


def test_search_counts_3sat_reduction():
    f = Cnf3Formula(6, ((-1, -4, -5), (-2, 4, -3), (-5, -3, 1), (-5, 3, -6), (-5, -6, 4), (-5, -3, 2),
                        (2, -6, -4), (6, -1, -3), (-1, 4, 2), (6, 5, 3), (-4, -1, 6), (-5, 2, -1),
                        (-2, -5, 3), (-5, 2, 1), (-6, 5, 3), (-4, 1, 6), (-3, -5, 6)))
    cnf = encode(resolve(reduce_3sat(f)), reduction_scope(f)).cnf
    assert search_counts(cnf) == (SAT, 31, 68, 3875)


def test_search_counts_lander_enumeration():
    # Cumulative counts after 50 and 250 models (the enum workload's limit):
    # they pin the warm resumes, the one return to the root after the first
    # answer, the projection-first order and the backjump of each blocking
    # clause of projection decisions to its assertion level.  Blocking each
    # answer by its whole projection took 79/246/5125 and 289/937/15021.
    enc = encode(load_spec(str(LANDER / "Lander.cncspec")))
    counts = {}
    for n, r in enumerate(iter_assignments(enc.cnf, projection=list(enc.structural_vars)), 1):
        assert r.status == SAT
        if n in (50, 250):
            counts[n] = (r.stats.conflicts, r.stats.decisions, r.stats.propagations)
            if n == 250:
                break
    assert counts == {50: (41, 243, 3529), 250: (113, 923, 10898)}


def test_every_sat_answer_is_a_frozenset_of_one_literal_per_variable():
    # Every SAT answer, of `solve` and of each step of `iter_assignments`,
    # is a frozenset that holds exactly one of v and -v for each variable.
    f = Cnf3Formula(4, ((1, -2, 3), (-1, 2, 4), (2, 3, -4), (-3,)))
    encodings = [encode(load_spec(str(LANDER / "Lander.cncspec"))),
                 encode(resolve(reduce_3sat(f)), reduction_scope(f))]
    for enc in encodings:
        steps = itertools.islice(iter_assignments(enc.cnf, projection=list(enc.structural_vars)), 250)
        answers = [r.literals for r in [solve(enc.cnf), *steps] if r.status == SAT]
        assert len(answers) > 2
        for a in answers:
            assert type(a) is frozenset
            assert sorted(map(abs, a)) == list(range(1, enc.cnf.num_vars + 1))


def test_solve_seconds_set_on_unsat_and_resource_limit():
    unsat = solve(pigeonhole(4, 3))
    assert unsat.status == UNSAT and unsat.stats.conflicts >= 1
    assert unsat.stats.solve_seconds > 0
    limited = solve(pigeonhole(4, 3), SolverConfig(limits=SolverLimits(conflicts=1)))
    assert limited.status == RESOURCE_LIMIT and limited.stats.solve_seconds > 0


def test_each_enumerated_answer_keeps_its_own_stats():
    # The counts are cumulative over the enumeration and solve_seconds is per
    # call: a later call must not change the stats of an answer already given.
    results, snapshots = [], []
    for r in iter_assignments(CnfInstance(3, ((1, 2, 3),))):
        results.append(r)
        snapshots.append(dataclasses.astuple(r.stats))
    assert [r.status for r in results] == [SAT] * 7 + [UNSAT]
    assert [dataclasses.astuple(r.stats) for r in results] == snapshots
    decisions = [r.stats.decisions for r in results]
    assert decisions == sorted(decisions) and decisions[0] < decisions[-1]


def test_clause_loading_normalizes_clauses():
    # Repeated literals are merged, tautologies dropped, and a clause that
    # shrinks to a unit or is empty is handled as such.
    assert solve(CnfInstance(2, ((1, 1), (-1, -1, 2), (-2, 2, 1)))).literals == {1, 2}
    assert solve(CnfInstance(2, ((1, 1, 1), (-1,)))).status == UNSAT
    assert solve(CnfInstance(3, ((1, -1), (2, 3, 2, -3)))).status == SAT


def reference_load(solver: sat._Cdcl, clauses) -> None:
    """The previous loader, kept as the reference: it normalizes every
    clause and builds the watch lists before the root check runs."""
    bin_imp = solver.bin_imp
    solver.watches = [[] for _ in range(2 * solver.nv + 1)]
    longer = []
    defer = longer.append
    for c in clauses:
        n = len(c)
        if n == 2:
            a, b = c
            if a != b and a != -b:
                bin_imp[-a].append(b)
                bin_imp[-b].append(a)
                continue
        elif n == 3:
            a, b, d = c
            if a != b and a != d and b != d and a != -b and a != -d and b != -d:
                defer(c)
                continue
        elif n > 3 and len(set(map(abs, c))) == n:
            defer(c)
            continue
        lits = set(c)
        if any(-l in lits for l in lits):
            continue
        c = list(dict.fromkeys(c))
        if len(c) > 2:
            defer(c)
        elif len(c) == 2:
            a, b = c
            bin_imp[-a].append(b)
            bin_imp[-b].append(a)
        elif not (c and solver.enqueue(c[0], None)):
            solver.ok = False
    if not solver.ok:
        return
    propagations = solver.stats.propagations
    solver.trail_lim.append(len(solver.trail))
    conflict = solver.propagate()
    solver.cancel_until(0)
    if conflict is not None:
        solver.ok = False
        return
    solver.qhead = 0
    solver.stats.propagations = propagations
    watches = solver.watches
    for c in map(list, longer):
        watches[c[0]].append((c[1], c))
        watches[c[1]].append((c[0], c))


def load_state(solver: sat._Cdcl) -> tuple:
    """What a load leaves for the search, with each watch list as a list of
    (blocker, literals) pairs whatever holds it."""
    watches = [[(b, list(c)) for b, c in w] for w in solver.watches]
    return (solver.ok, solver.trail, solver.trail_lim, solver.qhead, solver.val, solver.bin_imp,
            watches, solver.stats.propagations)


@st.composite
def cnf_with_repeats(draw) -> CnfInstance:
    """Up to 5 variables and 12 clauses of 1 to 8 literals, so that repeated
    and complementary literals fall at any position of a clause, and 0-2
    unused variables above the highest one used, so that the top slots of
    the solver's literal arrays are read empty."""
    n = draw(st.integers(1, 5))
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.lists(lit, min_size=1, max_size=8).map(tuple), max_size=12))
    top = max((abs(l) for c in clauses for l in c), default=0)
    return CnfInstance(top + draw(st.integers(0, 2)), tuple(clauses))


@settings(max_examples=400, deadline=None)
@given(cnf_with_repeats())
@example(CnfInstance(3, ((1, 2, 3, 1),)))
@example(CnfInstance(3, ((1, 2, 3, -1),)))
@example(CnfInstance(2, ((1, 1, 2, 2), (-1,), (-2,))))
@example(CnfInstance(4, ((1, 2, 3, 4, 2), (-1,), (1, 2, 3, 4, -4), (2, 4))))
@example(CnfInstance(3, ((-3, -3, -3, -3), (3, -3))))  # only ±num_vars: the two middle slots
@example(CnfInstance(2, ((2, 2), (-2, -2, -2))))
@example(CnfInstance(4, ((4, 4, -4, 4), (-4,), (4, 4, 4, 4, 4))))
def test_loader_matches_the_reference_loader(cnf):
    # Deferring a longer clause's full test past the root check changes
    # nothing that the check or the search reads.
    solver, reference = loaded(cnf), sat._Cdcl(cnf.num_vars, SolverLimits())
    reference_load(reference, cnf.clauses)
    assert load_state(solver) == load_state(reference)
    result = solve(cnf)
    assert (result.status == SAT) == truth_table_sat(cnf.num_vars, cnf.clauses)
    if result.status == SAT:
        # Every variable has a value, the unused ones too.
        assert sorted(map(abs, result.literals)) == list(range(1, cnf.num_vars + 1))


def literals(solver: sat._Cdcl) -> range:
    """Every literal of the solver's variables, ascending, with 0 between
    the negative and the positive ones."""
    return range(-solver.nv, solver.nv + 1)


def watched(solver: sat._Cdcl) -> dict[int, list[list[int]]]:
    return {l: [c for _, c in solver.watches[l]] for l in literals(solver) if solver.watches[l]}


def test_a_longer_clause_that_repeats_a_literal_attaches_without_the_repeat():
    assert watched(loaded(CnfInstance(3, ((1, 2, 3, 1),)))) == {1: [[1, 2, 3]], 2: [[1, 2, 3]]}


def test_a_longer_tautology_attaches_nothing():
    solver = loaded(CnfInstance(3, ((1, 2, 3, -1),)))
    assert solver.ok and watched(solver) == {} and not any(solver.bin_imp)


def test_a_longer_clause_that_shrinks_to_two_literals_joins_the_root_check():
    # (1, 1, 2, 2) is the binary clause (1, 2): with the units -1 and -2 the
    # check refutes the formula before any watch list is built.
    solver = loaded(CnfInstance(2, ((1, 1, 2, 2), (-1,), (-2,))))
    assert not solver.ok
    assert solver.bin_imp[-1] == [2] and solver.bin_imp[-2] == [1]
    assert not any(isinstance(w, list) for w in solver.watches)


# --- the SAT re-check ------------------------------------------------------------

def test_check_assignment_reads_absent_variables_as_false():
    cnf = CnfInstance(3, ((1, -2), (-3,)))
    assert check_assignment(cnf, frozenset({1}))
    assert not check_assignment(CnfInstance(3, ((2, 3),)), frozenset({1}))
    assert check_assignment(CnfInstance(3, ((2, -3),)), frozenset())


def test_check_assignment_rejects_a_single_violated_clause():
    cnf = CnfInstance(3, ((1, 2), (-1, 3), (2, 3), (-2, -3, 1)))
    assert check_assignment(cnf, frozenset({1, -2, 3}))
    assert not check_assignment(cnf, frozenset({-1, -2, 3}))  # only (1, 2) fails


def test_iter_assignments_rejects_a_model_that_breaks_a_blocking_clause(monkeypatch):
    # Replay the first model on the second call: it satisfies the original
    # clause but not the blocking clause added after it.
    real_solve = sat._Cdcl.solve
    first: list[frozenset[int]] = []

    def replay(self):
        result = real_solve(self)
        if first:
            result.literals = first[0]
        else:
            first.append(result.literals)
        return result

    monkeypatch.setattr(sat._Cdcl, "solve", replay)
    steps = iter_assignments(CnfInstance(2, ((1, 2),)))
    assert next(steps).status == SAT
    with pytest.raises(SolverError, match="repeats an earlier answer on the projection"):
        next(steps)


def test_solve_rejects_a_model_that_breaks_a_formula_clause(monkeypatch):
    # The unit clause fixes x1; the flipped model breaks it.
    real_solve = sat._Cdcl.solve

    def flip(self):
        result = real_solve(self)
        result.literals ^= {1, -1}
        return result

    monkeypatch.setattr(sat._Cdcl, "solve", flip)
    with pytest.raises(SolverError, match="does not satisfy the formula"):
        solve(CnfInstance(2, ((1,), (1, 2, -1))))


def replace_answer(monkeypatch, call: int, edit) -> None:
    """Make the internal engine's ``call``-th solve (1-based) return, in
    place of its answer's literals, what ``edit`` makes of them."""
    real_solve = sat._Cdcl.solve
    calls = []

    def patched(self):
        result = real_solve(self)
        calls.append(result)
        if len(calls) == call:
            result.literals = edit(result.literals)
        return result

    monkeypatch.setattr(sat._Cdcl, "solve", patched)


@pytest.mark.parametrize("edit", [lambda a: a - {3} | {-3}, lambda a: a - {3}],
                         ids=["set-false", "left-out"])
def test_a_later_answer_that_breaks_a_clause_through_a_changed_variable_is_rejected(monkeypatch, edit):
    # Every model sets x3; the second answer clears it, or leaves it out,
    # which reads False: only the unit clause (3,) breaks, and only through x3.
    replace_answer(monkeypatch, 2, edit)
    steps = iter_assignments(CnfInstance(3, ((1, 2), (3,))))
    assert 3 in next(steps).literals
    with pytest.raises(SolverError, match="does not satisfy the formula"):
        next(steps)


def test_editing_a_yielded_answer_hides_no_later_violation(monkeypatch):
    # The caller tries to clear x1 in the first answer.  The second answer
    # clears x1, breaking (1,): the check must still compare it with the
    # answer the solver gave.
    replace_answer(monkeypatch, 2, lambda a: a - {1} | {-1})
    steps = iter_assignments(CnfInstance(2, ((1,),)))
    answer = next(steps).literals
    with pytest.raises(AttributeError):
        answer.symmetric_difference_update({1, -1})
    assert 1 in answer
    with pytest.raises(SolverError, match="does not satisfy the formula"):
        next(steps)


def test_editing_a_yielded_answer_hides_no_repeat(monkeypatch):
    # The caller tries to flip x2 in the first answer, and the solver then
    # repeats that first answer: the repeat must still be caught.
    first: list[frozenset[int]] = []
    replace_answer(monkeypatch, 2, lambda a: first[0])
    steps = iter_assignments(CnfInstance(2, ((1,),)))
    answer = next(steps).literals
    first.append(answer)
    with pytest.raises(AttributeError):
        answer.symmetric_difference_update({2, -2})
    with pytest.raises(SolverError, match="repeats an earlier answer on the projection"):
        next(steps)


def test_a_yielded_answer_cannot_be_edited_and_is_the_answer_checked(monkeypatch):
    # The check keeps the yielded object as its record of the last answer,
    # and a caller cannot edit that object to weaken the check.
    checked = []
    real_passes = sat._FormulaCheck.passes

    def passes(self, lits):
        checked.append(lits)
        return real_passes(self, lits)

    monkeypatch.setattr(sat._FormulaCheck, "passes", passes)
    for cnf in (CnfInstance(2, ((1,),)), CnfInstance(3, ((1, 2), (-3, 2)))):
        checked.clear()
        answers = [r.literals for r in iter_assignments(cnf)][:-1]
        assert len(answers) >= 2 and len(checked) == len(answers)
        for answer, lits in zip(answers, checked):
            assert lits is answer and type(answer) is frozenset
            with pytest.raises(AttributeError):
                answer.add(-1)


@st.composite
def cnf_and_answers(draw) -> tuple[CnfInstance, list[frozenset[int]]]:
    """A CNF and a sequence of answers over its variables, as their true
    literals: models and arbitrary assignments, each with some variables
    left out."""
    cnf, _ = draw(cnf_and_projection(max_vars=6, max_clauses=12))
    n = cnf.num_vars
    models = [bits for bits in itertools.product((False, True), repeat=n)
              if all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in cnf.clauses)]
    bits = st.tuples(*[st.booleans()] * n)
    if models:
        bits = st.sampled_from(models) | bits
    answer = st.tuples(bits, st.sets(st.integers(1, n), max_size=2)).map(
        lambda t: frozenset(v if t[0][v - 1] else -v for v in range(1, n + 1) if v not in t[1]))
    return cnf, draw(st.lists(answer, min_size=1, max_size=10))


@settings(max_examples=300, deadline=None)
@given(cnf_and_answers())
def test_formula_check_matches_a_full_check_on_every_answer(case):
    # A failed answer is not kept, so the next one is compared with the last
    # answer that passed.
    cnf, answers = case
    check = sat._FormulaCheck(cnf.clauses)
    for a in answers:
        expected = check_assignment(cnf, a)
        assert expected == all(any((l > 0) == (abs(l) in a) for l in c) for c in cnf.clauses)
        assert check.passes(a) == expected


def test_later_lander_answers_are_checked_on_few_clauses(monkeypatch):
    # The first answer is checked on all 2,308 clauses; the next 249 on the
    # clauses that hold a variable they changed, under a tenth of 249 full
    # checks in all.
    handed = []
    real = sat._satisfies

    def counting(lits, clauses):
        clauses = list(clauses)
        handed.append(len(clauses))
        return real(lits, clauses)

    monkeypatch.setattr(sat, "_satisfies", counting)
    enc = encode(load_spec(str(LANDER / "Lander.cncspec")))
    steps = iter_assignments(enc.cnf, projection=list(enc.structural_vars))
    assert all(next(steps).status == SAT for _ in range(250))
    assert len(enc.cnf.clauses) == 2308 and handed[0] == 2308 and len(handed) == 250
    assert sum(handed[1:]) < 0.1 * 249 * 2308


# --- one deadline for a whole enumeration -----------------------------------------

class FakeClock:
    """A monotonic clock that moves only when a test moves it."""

    def __init__(self) -> None:
        self.now = 0.0

    def monotonic(self) -> float:
        return self.now


def test_deadline_bounds_a_whole_enumeration(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(sat, "time", clock)
    statuses = []
    for r in iter_assignments(CnfInstance(3, ()), SolverConfig(limits=SolverLimits(wall_seconds=1.0))):
        statuses.append(r.status)
        clock.now += 0.4  # each model takes 0.4 s; the fourth solve starts past the deadline
    assert statuses == [SAT, SAT, SAT, RESOURCE_LIMIT]


def test_conflict_limit_bounds_a_whole_enumeration():
    # The conflict count runs on across the answers, so the limit is spent
    # by the enumeration as a whole, not by each answer in turn.
    enc = encode(load_spec(str(LANDER / "Lander.cncspec")))
    results = list(iter_assignments(enc.cnf, SolverConfig(limits=SolverLimits(conflicts=50)),
                                    list(enc.structural_vars)))
    *answers, last = results
    assert len(answers) >= 2 and all(r.status == SAT for r in answers)
    assert last.status == RESOURCE_LIMIT and last.stats.conflicts == 50


def test_deadline_is_read_at_every_conflict(monkeypatch):
    # A clock that moves 1 s on every reading passes the 2.5 s deadline at
    # the first conflict, long before the search would refute the formula.
    class TickingClock:
        now = 0.0

        def monotonic(self):
            self.now += 1.0
            return self.now

    monkeypatch.setattr(sat, "time", TickingClock())
    result = solve(pigeonhole(4, 3), SolverConfig(limits=SolverLimits(wall_seconds=2.5)))
    assert result.status == RESOURCE_LIMIT and result.stats.conflicts == 1


def test_deadline_is_read_between_decisions(monkeypatch):
    # 100 variables that the solver decides one by one with no conflict: the
    # clock, moving 1 s on every reading, is read after the 64th decision
    # and stops the search there.
    class TickingClock:
        now = 0.0

        def monotonic(self):
            self.now += 1.0
            return self.now

    cnf = CnfInstance(100, tuple((v, v + 1) for v in range(1, 100)))
    free = solve(cnf)
    assert free.status == SAT and free.stats.conflicts == 0 and free.stats.decisions > 64
    monkeypatch.setattr(sat, "time", TickingClock())
    result = solve(cnf, SolverConfig(limits=SolverLimits(wall_seconds=2.5)))
    assert result.status == RESOURCE_LIMIT
    assert result.stats.conflicts == 0 and result.stats.decisions == 64


def test_external_calls_get_the_time_that_is_left(monkeypatch):
    clock = FakeClock()
    timeouts = []

    def run(cmd, timeout, **kw):
        timeouts.append(timeout)
        clock.now += 0.4
        r = solve(parse_dimacs(Path(cmd[1]).read_text()))
        if r.status != SAT:
            return subprocess.CompletedProcess(cmd, 20, "s UNSATISFIABLE\n", "")
        lits = " ".join(map(str, sorted(r.literals, key=abs)))
        return subprocess.CompletedProcess(cmd, 10, f"s SATISFIABLE\nv {lits} 0\n", "")

    monkeypatch.setattr(sat, "time", clock)
    monkeypatch.setattr(subprocess, "run", run)  # sat imports subprocess when it runs a solver
    cfg = SolverConfig(engine="external-solver", limits=SolverLimits(wall_seconds=1.0))
    statuses = [r.status for r in iter_assignments(CnfInstance(3, ()), cfg)]
    assert statuses == [SAT, SAT, SAT, RESOURCE_LIMIT]
    assert timeouts == pytest.approx([1.0, 0.6, 0.2])


# --- external engine -------------------------------------------------------------

def fake_solver(tmp_path, body: str, limits: SolverLimits = SolverLimits()) -> SolverConfig:
    """A solver executable that runs ``body`` and ignores its input."""
    path = tmp_path / "fake_solver.py"
    path.write_text(f"#!{sys.executable}\nimport sys, time\n{body}\n")
    path.chmod(0o755)
    return SolverConfig(engine=str(path), limits=limits)


def test_external_solver_timeout_is_resource_limit(tmp_path):
    cfg = fake_solver(tmp_path, "time.sleep(60)", SolverLimits(wall_seconds=1.0))
    start = time.monotonic()
    result = solve(CnfInstance(1, ((1,),)), cfg)
    assert result.status == RESOURCE_LIMIT
    assert result.stats.solve_seconds >= 1.0 and time.monotonic() - start < 30


@pytest.mark.parametrize("out, code, status", [
    ("s SATISFIABLE\nv 1 0", 10, SAT),
    ("s UNSATISFIABLE", 20, UNSAT),
    ("s SATISFIABLE\nv 1 0", 0, SAT),
])
def test_external_solver_exit_code_agrees(tmp_path, out, code, status):
    cfg = fake_solver(tmp_path, f"print({out!r})\nsys.exit({code})")
    assert solve(CnfInstance(1, ((1,),)), cfg).status == status


@pytest.mark.parametrize("out, code", [("s SATISFIABLE\nv 1 0", 20), ("s UNSATISFIABLE", 10),
                                       ("s UNKNOWN", 10)])
def test_external_solver_exit_code_disagrees(tmp_path, out, code):
    cfg = fake_solver(tmp_path, f"print({out!r})\nsys.exit({code})")
    with pytest.raises(SolverError, match="exit"):
        solve(CnfInstance(1, ((1,),)), cfg)


@pytest.mark.parametrize("out, message", [
    ("s SATISFIABLE\nv 1 -2 7 0", "external solver set literal 7, outside the variables 1..2"),
    ("s SATISFIABLE\nv 1 2 -3 0", "external solver set literal -3, outside the variables 1..2"),
])
def test_external_solver_literal_outside_the_formula_is_a_solver_error(tmp_path, out, message):
    cfg = fake_solver(tmp_path, f"print({out!r})\nsys.exit(10)")
    with pytest.raises(SolverError, match=f"^{re.escape(message)}$"):
        solve(CnfInstance(2, ((1,),)), cfg)


def test_external_solver_with_a_malformed_model_line_is_an_internal_error(tmp_path, capsys):
    cfg = fake_solver(tmp_path, 'print("s SATISFIABLE\\nv 1 x 0")\nsys.exit(10)')
    assert cli.main(["synth", str(LANDER / "Lander.cncspec"), "--solver", cfg.engine]) == 3
    assert capsys.readouterr().err == "internal error: line 2: 'x' is not an integer\n"


# A brute-force DIMACS solver that prints only its true literals, as some
# solvers do; the variables it leaves out read False.
BRUTE_FORCE = """
import itertools
lines = [l.split() for l in open(sys.argv[1]) if l.strip() and l[0] not in "c%"]
n = int(lines[0][2])
clauses, cur = [], []
for l in (int(t) for line in lines[1:] for t in line):
    if l:
        cur.append(l)
    else:
        clauses.append(cur)
        cur = []
for bits in itertools.product((False, True), repeat=n):
    if all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in clauses):
        print("s SATISFIABLE")
        print("v", *[v for v in range(1, n + 1) if bits[v - 1]], 0)
        sys.exit(10)
print("s UNSATISFIABLE")
sys.exit(20)
"""


def test_external_enumeration_matches_internal(tmp_path):
    cnf = CnfInstance(3, ((1, 2),))

    def projected(cfg):
        results = list(iter_assignments(cnf, cfg, projection=[1, 2]))
        models = {(1 in r.literals, 2 in r.literals) for r in results[:-1]}
        return [r.status for r in results], models

    external = projected(fake_solver(tmp_path, BRUTE_FORCE))
    assert external == projected(SolverConfig())
    assert external == ([SAT, SAT, SAT, UNSAT], {(True, True), (True, False), (False, True)})


def test_external_solver_all_false_model(tmp_path):
    # The brute-force solver prints "v 0" for a model with no true literal.
    cnf = CnfInstance(2, ((-1,), (-2, -1)))
    result = solve(cnf, fake_solver(tmp_path, BRUTE_FORCE))
    assert result.status == SAT and check_assignment(cnf, result.literals)


def test_missing_external_solver_is_a_solver_error(tmp_path):
    cfg = SolverConfig(engine=str(tmp_path / "no-such-solver"))
    with pytest.raises(SolverError, match="cannot run external solver"):
        solve(CnfInstance(1, ((1,),)), cfg)


def brute_force_run(cmd, timeout, **kw):
    """``subprocess.run`` for a solver that reads the DIMACS file ``cmd[1]``
    and, like BRUTE_FORCE, prints only the true literals of its first model
    in counting order, so an all-false model reads "v 0"."""
    cnf = parse_dimacs(Path(cmd[1]).read_text())
    for bits in itertools.product((False, True), repeat=cnf.num_vars):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in cnf.clauses):
            lits = [str(v) for v in range(1, cnf.num_vars + 1) if bits[v - 1]]
            return subprocess.CompletedProcess(cmd, 10, f"s SATISFIABLE\nv {' '.join(lits + ['0'])}\n", "")
    return subprocess.CompletedProcess(cmd, 20, "s UNSATISFIABLE\n", "")


@settings(max_examples=200, deadline=None)
@given(cnf_and_projection(max_vars=5, max_clauses=8))
@example((CnfInstance(2, ((-1,), (-2, 1))), [2]))  # one model, all false
def test_external_engine_matches_internal(case):
    # The external engine sees each blocking clause only through the DIMACS
    # file it writes; it must answer as the internal engine does.
    cnf, projection = case
    proj = sorted(projection)

    def answers(cfg):
        results = list(iter_assignments(cnf, cfg, projection))
        return ([r.status for r in results],
                {tuple(v in r.literals for v in proj) for r in results[:-1]})

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subprocess, "run", brute_force_run)
        external = answers(SolverConfig(engine="brute-force"))
    assert external == answers(SolverConfig())
