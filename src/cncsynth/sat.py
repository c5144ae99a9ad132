"""SAT backend: CNF instances, an internal CDCL solver, DIMACS interop with
external solvers, and blocking clauses for solution enumeration.

The internal solver is complete and deterministic: it decides by variable
activity with ascending-index tie-breaking and phase saving, learns 1UIP
clauses, and restarts on a Luby schedule.  Structural variables are
allocated first by the encoder, so initial decisions start in the
structural core.  As in MiniSat (Een & Sorensson, SAT 2003), the solver
reads its literal arrays as ``x[lit]``, and the order heap holds one
current entry per variable: backtracking pushes a variable only when it has
none.  The formula's clauses reach the solver through one loader,
``_Cdcl.add_clauses``, and every clause that the trail falsifies, learnt or
blocking, through one assertion path, ``_Cdcl._learn``.  Like the root
simplification that MiniSat makes before it searches, the loader propagates
the units and binary clauses alone first: a conflict there refutes the
formula before a longer clause is fully normalized or a watch list built,
so a root refutation costs what its units and binary clauses cost, and no
conflict leaves no trace, so the search is the one it would have been.  An
external solver, ``_External``, takes clauses through the same interface.
``solve`` and ``iter_assignments`` share one loop, ``_answers``, for both
engines, and its one deadline bounds the whole loop, every solve call
included.  A SAT answer is the frozenset of the literals it makes true, as
in DIMACS 'v' lines: the internal engine's trail at the answer, which holds
one literal of every variable, or an external solver's 'v' literals, where
a variable with neither literal reads False.  The check, the blocking
clause, the caller and ``encoder.decode`` all read that one object, and
none can change it.  ``_answers`` checks every SAT answer before returning
it, as strictly as a test of every clause, original and blocking, but at
the cost of what the answer changed: the first answer is tested on every
clause of the formula,
each later one only on the clauses that hold a variable whose value it
changed, and an answer breaks a blocking clause exactly when it builds the
same clause, so that test is one set lookup.

Enumeration is incremental with the internal engine.  The first answer is
found by the same search as a plain solve and blocked by the negation of
its whole projection.  Then the solver goes back to the root once and from
there on decides every projection variable before any other, so each later
answer is blocked by its projection decisions alone, which with the
formula imply its projection (Toda & Soh, ACM JEA 2016; Gebser, Kaufmann &
Schaub, CPAIOR 2009): on Lander's first 250 answers 14.0 literals on
average instead of 90, its 110 projection variables less the 20 that the
root fixes.
Each blocking clause backjumps from the model that it blocks to its
assertion level, the second-highest decision level among its literals, and
the next search goes on from there instead of from the root.  So models
after the first come in search order, which no caller may rely on.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator


@dataclass(frozen=True)
class CnfInstance:
    """An immutable CNF formula.  ``comments`` are carried into DIMACS output;
    ``groups`` map clause index ranges to the constraint group that produced
    them.  Every literal must lie in ``±1..num_vars``, or the internal
    solver answers wrongly: ``parse_dimacs`` checks that, but ``solve`` does
    not, as a pass over a large encoding's literals costs about its verdict."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    comments: tuple[str, ...] = ()
    groups: tuple[tuple[str, int, int], ...] = ()


@dataclass(frozen=True)
class SolverLimits:
    """Bounds on a search, or on a whole enumeration; None means unbounded.
    ``conflicts`` counts conflicts (0 stops at the first) and
    ``wall_seconds`` must be positive."""

    conflicts: int | None = None
    wall_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.conflicts is not None and self.conflicts < 0:
            raise ValueError(f"solver limit conflicts must not be negative, got {self.conflicts}")
        if self.wall_seconds is not None and not self.wall_seconds > 0:
            raise ValueError(f"solver limit wall_seconds must be positive, got {self.wall_seconds}")


@dataclass(frozen=True)
class SolverConfig:
    engine: str = "internal"  # "internal" or a path to an external solver
    limits: SolverLimits = SolverLimits()

    def __post_init__(self) -> None:
        if self.engine != "internal" and self.limits.conflicts is not None:
            raise ValueError(f"a conflict limit cannot apply to the external solver {self.engine!r}")


@dataclass
class SolveStats:
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    solve_seconds: float = 0.0


SAT, UNSAT, RESOURCE_LIMIT = "SAT", "UNSAT", "RESOURCE_LIMIT"


@dataclass
class SolveResult:
    """A solver's verdict.  A SAT result's ``literals`` are the literals its
    answer makes true; a variable with neither literal there reads False."""

    status: str  # SAT | UNSAT | RESOURCE_LIMIT
    literals: frozenset[int] | None = None
    stats: SolveStats = field(default_factory=SolveStats)


class SolverError(Exception):
    pass


def check_assignment(cnf: CnfInstance, literals: frozenset[int]) -> bool:
    """True if the answer whose true literals are ``literals`` satisfies
    every clause of ``cnf``; a variable with neither literal reads False."""
    return _satisfies(literals, cnf.clauses)


def _satisfies(lits: frozenset[int], clauses) -> bool:
    """True if every clause in ``clauses`` holds under the assignment whose
    true literals are ``lits``; a variable with neither literal in ``lits``
    reads False.  Each clause is tested against ``lits`` at C speed; only a
    clause with none of them falls back to looking for a negative literal on
    a variable left out."""
    for clause in filter(lits.isdisjoint, clauses):
        if not any(l < 0 and -l not in lits for l in clause):
            return False
    return True


class _FormulaCheck:
    """Tells whether each of a sequence of answers satisfies ``clauses``, at
    the cost of what the answer changed.  The first answer is tested on
    every clause.  A later one is tested only on the clauses that hold a
    variable whose value differs from the last answer that passed (a
    variable an answer leaves out reads False): every other clause has the
    value it had under that answer, which satisfied it.  A variable is true
    exactly when its positive literal is among the answer's true literals,
    so the changed variables are the positive literals in the symmetric
    difference of the two answers' true literals.  The record of the last
    answer is the answer itself: a frozenset, so no caller can edit it to
    weaken the check.  The occurrence index is built for the second
    answer, so a single answer costs a plain test of every clause."""

    def __init__(self, clauses: tuple[tuple[int, ...], ...]):
        self.clauses = clauses
        self.last: frozenset[int] | None = None
        self.occurs: dict[int, list[int]] | None = None

    def passes(self, lits: frozenset[int]) -> bool:
        """Test the answer with true literals ``lits``; keep it as the last
        answer if it passes."""
        if self.last is None:
            clauses = self.clauses
        else:
            if self.occurs is None:
                self.occurs = {}
                for i, c in enumerate(self.clauses):
                    for l in c:
                        self.occurs.setdefault(abs(l), []).append(i)
            occurs = self.occurs
            touched: set[int] = set()
            for v in lits ^ self.last:
                if v > 0:
                    touched.update(occurs.get(v, ()))
            clauses = [self.clauses[i] for i in touched]
        if not _satisfies(lits, clauses):
            return False
        self.last = lits
        return True


# --- Internal CDCL solver ----------------------------------------------------

def _normalized(c) -> list[int] | None:
    """``c`` without its repeated literals, in first-seen order, or None if
    it is a tautology."""
    lits = set(c)
    if any(-l in lits for l in lits):
        return None
    return list(dict.fromkeys(c))


class _Cdcl:
    """Conflict-driven clause learning with two-watched-literal propagation,
    a dedicated binary-implication graph, 1UIP learning with local clause
    minimization, phase saving and Luby restarts.

    Decisions are deterministic: they follow exponential variable activities
    with ties broken by ascending variable index, so a given formula always
    produces the same run.  A ``solve`` after a blocking clause resumes
    warm, from the activities and saved phases that found the blocked
    answer, and at the level that ``add_blocking_clause`` backjumped to: the
    trail below that level is kept, so its decisions and propagations are
    not made again.

    The literal arrays ``val``, ``bin_imp`` and ``watches`` have 2n+1 slots,
    indexed by the literal itself: ``x[-v]`` counts from the end.  A literal
    outside ``±1..n`` would read another literal's slot.

    The order heap holds ``(late, -activity, var)`` entries.  ``late[v]`` is
    False for every variable of a plain solve and, once an enumeration has
    blocked its first answer, for the projection variables only, so every
    projection entry pops before any other.  ``in_heap[v]`` is set while
    the heap holds an entry for ``v`` at its current activity: it is set on
    push and cleared when ``analyze`` bumps ``v`` or the decision step pops
    that entry.  Each cold segment of ``solve`` rebuilds the heap with one
    entry per unassigned variable, and from then on every unassigned
    variable keeps such an entry: backtracking pushes only the variables
    whose flag is clear, and an entry at an older activity is dropped when
    popped.  So a warm resume needs no rebuild: the SAT answer emptied the
    heap, and the backjump of ``add_blocking_clause`` pushed each variable
    it unassigned.

    The formula's clauses enter through ``add_clauses``, once, before the
    first solve; it refutes the formula at once if its units and binary
    clauses conflict by propagation, and builds the watch lists and
    attaches the longer clauses only when they do not.  A clause that the
    trail falsifies, a learnt clause or a blocking clause between solves
    (through ``add_blocking_clause``), enters through ``_learn``, which
    attaches it, backjumps to its assertion level and implies its first
    literal.
    """

    def __init__(self, num_vars: int, limits: SolverLimits, deadline: float | None = None):
        self.nv = nv = num_vars
        # val[lit]: 1 if the literal is true, -1 false, 0 unassigned.
        self.val = [0] * (2 * nv + 1)
        self.level = [0] * (nv + 1)
        # reason[v]: None (decision/unit), an int ``other`` meaning the binary
        # clause (implied, other), or the full clause as a list.
        self.reason: list = [None] * (nv + 1)
        self.phase = [True] * (nv + 1)
        # bin_imp[lit]: literals implied when ``lit`` becomes true.
        self.bin_imp: list[list[int]] = [[] for _ in range(2 * nv + 1)]
        # watches[lit]: (blocker, clause) for each clause watching lit.
        # Empty tuples until add_clauses attaches the longer clauses: the
        # root check before that reads no watch.
        self.watches: list = [()] * (2 * nv + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.activity = [0.0] * (nv + 1)
        self.var_inc = 1.0
        self.restart_base = 256
        # Filled by solve().  late[v]: v is decided only once every other
        # variable is assigned; set for the variables outside an
        # enumeration's projection after its first answer, and for none in
        # a plain solve.
        self.heap: list[tuple[bool, float, int]] = []
        self.late = [False] * (nv + 1)
        self.in_heap = [False] * (nv + 1)
        self.seen = [False] * (nv + 1)
        self.learnts: list[list[int]] = []
        self.limits = limits
        # Monotonic clock time that bounds every solve (None: no deadline).
        self.deadline = deadline
        self.stats = SolveStats()
        self.ok = True
        # Set by the first blocking clause: from then on, projection first.
        self.projection_first = False

    def add_clauses(self, clauses) -> None:
        """Load the formula's clauses, in order, once, before the first
        solve.  Units go on the trail and binary clauses to the implication
        lists at once; a tautology is dropped and a repeated literal merged
        first.  An empty clause, or a unit that contradicts the trail, makes
        the formula UNSAT.

        Then ``propagate`` runs at the root over the units and binary clauses
        alone.  Before it, a clause of three or more literals is only tested
        for whether it can shrink to two literals or fewer: a ternary in
        full, a longer clause on its first three literals (if they differ,
        it keeps three literals or is a tautology, so its full test waits).
        A conflict refutes a subset of the formula, so the formula is UNSAT,
        with the check's propagations counted, and no watch list is built.
        Otherwise the check leaves nothing behind: its implications are
        cancelled, the propagation count restored and the trail rewound to
        the units; then the watch lists are built and the longer clauses
        normalized and attached in the order they came, so the search runs
        as if the check had never been made."""
        bin_imp = self.bin_imp
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
            elif n > 3:
                a, b, d = c[0], c[1], c[2]
                if a != b and a != d and b != d:
                    defer(c)  # its full test waits for the root check
                    continue
            # A unit, the empty clause, or a clause that may shrink to two
            # literals or fewer.
            c = _normalized(c)
            if c is None:
                continue
            if len(c) > 2:
                defer(c)
            elif len(c) == 2:
                a, b = c
                bin_imp[-a].append(b)
                bin_imp[-b].append(a)
            elif not (c and self.enqueue(c[0], None)):
                self.ok = False
        if not self.ok:
            return  # already UNSAT: no check, and no propagation counted
        # One level with no decision holds the implications, so that
        # cancel_until takes them back.
        propagations = self.stats.propagations
        self.trail_lim.append(len(self.trail))
        conflict = self.propagate()
        self.cancel_until(0)
        if conflict is not None:
            self.ok = False
            return
        self.qhead = 0
        self.stats.propagations = propagations
        self.watches = watches = [[] for _ in bin_imp]
        for c in longer:
            n = len(c)
            if n > 3 and len(set(map(abs, c))) != n:
                c = _normalized(c)
                if c is None:
                    continue
            else:
                c = list(c)
            watches[c[0]].append((c[1], c))
            watches[c[1]].append((c[0], c))

    def add_blocking_clause(self, lits: tuple[int, ...]) -> None:
        """Block the last SAT answer: ``lits`` negates its value on every
        variable of the projection, so every literal is false on the trail
        that found it.

        The first call adds ``lits`` itself.  Its literals false at the
        root are dropped (with none left the formula is UNSAT), and the rest
        go to ``_learn`` by decreasing decision level.  Then the solver goes
        back to the root and from there on decides every projection
        variable before any other: the others are marked ``late``.

        Every later call adds the negated decisions of the levels whose
        decision is a projection variable, deepest first, through
        ``_learn``, and does not read ``lits``.  Every projection variable
        was assigned before the first decision outside the projection, so
        those decisions and the solver's clauses imply the answer's whole
        projection valuation, and the clause excludes exactly the answers
        with that valuation (Toda & Soh, ACM JEA 2016; Gebser, Kaufmann & Schaub,
        CPAIOR 2009).  With no such decision the projection is exhausted:
        the formula is UNSAT."""
        first = not self.projection_first
        if first:
            level = self.level
            out = sorted((l for l in lits if level[abs(l)] > 0),
                         key=lambda l: level[abs(l)], reverse=True)
        else:
            trail, late = self.trail, self.late
            out = [-d for d in map(trail.__getitem__, reversed(self.trail_lim))
                   if not late[d if d > 0 else -d]]
        if out:
            self._learn(out)
        else:
            self.ok = False
        if first:
            self.projection_first = True
            self.cancel_until(0)
            self.late = late = [True] * (self.nv + 1)
            for l in lits:
                late[abs(l)] = False
            self._rebuild_heap()

    def _learn(self, c: list[int]) -> None:
        """Assert a clause that the trail falsifies, given with its literal
        of highest decision level first and the next-highest second.  A
        unit is implied at the root.  A longer clause is attached, watching
        its first two literals, and the solver backjumps to the level of the
        second; the first, now the clause's only unassigned literal, is
        implied with the clause as its reason (for a binary clause, the
        other literal).  When the two share a level, the solver backjumps
        one level below it and the clause only watches them."""
        a = c[0]
        if len(c) == 1:
            self.cancel_until(0)
            self.enqueue(a, None)
            return
        b = c[1]
        top, second = self.level[abs(a)], self.level[abs(b)]
        self.cancel_until(second if top > second else top - 1)
        if len(c) == 2:
            self.bin_imp[-a].append(b)
            self.bin_imp[-b].append(a)
            reason = b
        else:
            self.watches[a].append((b, c))
            self.watches[b].append((a, c))
            reason = c
        if top > second:
            self.enqueue(a, reason)

    def enqueue(self, lit: int, reason) -> bool:
        v = self.val[lit]
        if v == 1:
            return True
        if v == -1:
            return False
        var = lit if lit > 0 else -lit
        self.val[lit] = 1
        self.val[-lit] = -1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def propagate(self):
        """Unit propagation; returns a conflicting clause (list) or None."""
        val = self.val
        level = self.level
        reason = self.reason
        trail = self.trail
        bin_imp = self.bin_imp
        watches = self.watches
        cur_level = len(self.trail_lim)
        props = 0
        while self.qhead < len(trail):
            p = trail[self.qhead]
            self.qhead += 1
            props += 1
            for q in bin_imp[p]:
                vq = val[q]
                if vq == 0:
                    var = q if q > 0 else -q
                    val[q] = 1
                    val[-q] = -1
                    level[var] = cur_level
                    reason[var] = -p
                    trail.append(q)
                elif vq < 0:
                    self.stats.propagations += props
                    return [q, -p]
            false_lit = -p
            ws = watches[false_lit]
            keep = []
            i, n = 0, len(ws)
            while i < n:
                w = ws[i]
                i += 1
                blocker = w[0]
                if val[blocker] > 0:
                    keep.append(w)
                    continue
                c = w[1]
                if c[0] == false_lit:
                    c[0] = c[1]
                    c[1] = false_lit
                first = c[0]
                fv = val[first]
                if fv > 0:
                    keep.append((first, c))
                    continue
                moved = False
                for k in range(2, len(c)):
                    ck = c[k]
                    if val[ck] >= 0:
                        c[1] = ck
                        c[k] = false_lit
                        watches[ck].append((first, c))
                        moved = True
                        break
                if moved:
                    continue
                keep.append((first, c))
                if fv < 0:
                    keep.extend(ws[i:])
                    watches[false_lit] = keep
                    self.stats.propagations += props
                    return c
                var = first if first > 0 else -first
                val[first] = 1
                val[-first] = -1
                level[var] = cur_level
                reason[var] = c
                trail.append(first)
            watches[false_lit] = keep
        self.stats.propagations += props
        return None

    def analyze(self, conflict) -> list[int]:
        """1UIP learning with local minimization; returns the clause in the
        literal order that ``_learn`` takes."""
        seen = self.seen
        level = self.level
        trail = self.trail
        reason = self.reason
        activity = self.activity
        in_heap = self.in_heap
        var_inc = self.var_inc
        learnt: list[int] = [0]
        to_clear: list[int] = []
        counter = 0
        idx = len(trail) - 1
        cur_level = len(self.trail_lim)
        r = conflict
        while True:
            lits = (r,) if type(r) is int else r
            for q in lits:
                v = q if q > 0 else -q
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    to_clear.append(v)
                    activity[v] += var_inc
                    in_heap[v] = False
                    if level[v] == cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while True:
                p = trail[idx]
                idx -= 1
                pv = p if p > 0 else -p
                if seen[pv]:
                    break
            counter -= 1
            if counter == 0:
                break
            r = reason[pv]
        learnt[0] = -p
        # Local minimization: drop literals implied by other clause literals.
        if len(learnt) > 2:
            out = [learnt[0]]
            for q in learnt[1:]:
                v = q if q > 0 else -q
                rq = reason[v]
                if rq is None:
                    out.append(q)
                    continue
                if type(rq) is int:
                    u = rq if rq > 0 else -rq
                    if not (seen[u] or level[u] == 0):
                        out.append(q)
                    continue
                for l in rq:
                    u = l if l > 0 else -l
                    if u != v and not seen[u] and level[u] > 0:
                        out.append(q)
                        break
            learnt = out
        for v in to_clear:
            seen[v] = False
        if activity[pv] > 1e100:
            self._rescale_activity()
        self.var_inc *= self.inv_decay
        if len(learnt) > 1:
            # The first literal of the second-highest level goes second.
            max_i, max_level = 1, level[abs(learnt[1])]
            for i in range(2, len(learnt)):
                li = level[abs(learnt[i])]
                if li > max_level:
                    max_i, max_level = i, li
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt

    def _rescale_activity(self) -> None:
        self.activity = [a * 1e-100 for a in self.activity]
        self.var_inc *= 1e-100
        self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        """One entry per unassigned variable at its current activity."""
        nv = self.nv
        activity = self.activity
        late = self.late
        in_heap = self.in_heap = [False] + [x == 0 for x in self.val[1:nv + 1]]
        self.heap = [(late[v], -activity[v], v) for v in range(1, nv + 1) if in_heap[v]]
        heapq.heapify(self.heap)

    def cancel_until(self, target_level: int) -> None:
        if len(self.trail_lim) <= target_level:
            return
        val = self.val
        phase = self.phase
        reason = self.reason
        trail = self.trail
        heap_push = heapq.heappush
        heap = self.heap
        late = self.late
        in_heap = self.in_heap
        activity = self.activity
        bound = self.trail_lim[target_level]
        for k in range(len(trail) - 1, bound - 1, -1):
            lit = trail[k]
            var = lit if lit > 0 else -lit
            phase[var] = lit > 0
            val[lit] = 0
            val[-lit] = 0
            reason[var] = None
            if not in_heap[var]:
                in_heap[var] = True
                heap_push(heap, (late[var], -activity[var], var))
        del trail[bound:]
        del self.trail_lim[target_level:]
        self.qhead = len(trail)

    def _pick_branch_var(self) -> int:
        """Next decision variable, or 0 if all are assigned: a late one only
        once every other variable is assigned."""
        val = self.val
        in_heap = self.in_heap
        activity = self.activity
        heap = self.heap
        heap_pop = heapq.heappop
        while heap:
            _, act, v = heap_pop(heap)
            if -act != activity[v]:
                continue  # older activity; any unassigned v has a current entry
            in_heap[v] = False
            if val[v] == 0:
                return v
        return 0

    def _reduce_learnts(self) -> None:
        """Drop the longer half of the learned clauses (reason clauses are
        kept) and rebuild the watch lists."""
        locked = set()
        for lit in self.trail:
            r = self.reason[lit if lit > 0 else -lit]
            if type(r) is list:
                locked.add(id(r))
        shorter = sorted(self.learnts, key=len)[:len(self.learnts) // 2]
        kept = {id(c) for c in shorter} | locked
        dropped = {id(c) for c in self.learnts} - kept
        self.learnts = [c for c in self.learnts if id(c) in kept]
        for w in self.watches:
            w[:] = [(b, c) for (b, c) in w if id(c) not in dropped]

    # Deterministic sequential portfolio: each segment runs with a fixed
    # decay factor and default polarity for a conflict budget, keeping
    # learned clauses across segments; budgets double every cycle, so the
    # search is complete and reproducible.
    PORTFOLIO = ((0.8, True), (0.8, False), (0.95, True), (0.75, False),
                 (0.85, True), (0.95, False))
    SEGMENT_BUDGET = 6000
    # A run of decisions with no conflict overruns the deadline by at most
    # DEADLINE_DECISIONS - 1 decisions.
    DEADLINE_DECISIONS = 64

    def solve(self) -> SolveResult:
        """Search on until an answer, the conflict limit or the deadline."""
        if self.deadline is not None and time.monotonic() >= self.deadline:
            return SolveResult(RESOURCE_LIMIT, stats=self.stats)
        # A conflict found by propagation alone means UNSAT only at the root;
        # above it (a warm resume) the search analyzes it as usual.
        if not self.ok or (not self.trail_lim and self.propagate() is not None):
            return SolveResult(UNSAT, stats=self.stats)
        budget = self.SEGMENT_BUDGET
        seg = 0
        while True:
            decay, polarity = self.PORTFOLIO[seg % len(self.PORTFOLIO)]
            self.inv_decay = 1.0 / decay
            # After a blocking clause the first segment resumes warm.
            if not (self.projection_first and seg == 0):
                self.cancel_until(0)
                self.var_inc = 1.0
                self.activity = [0.0] * (self.nv + 1)
                self.phase = [polarity] * (self.nv + 1)
                self._rebuild_heap()
            result = self._search(self.stats.conflicts + budget)
            if result is not None:
                return result
            seg += 1
            if seg % len(self.PORTFOLIO) == 0:
                budget *= 2

    def _search(self, segment_limit: int) -> SolveResult | None:
        """Run CDCL until an answer, a global limit (both as SolveResult), or
        the segment's conflict budget (None).  The deadline is read at every
        conflict and after every ``DEADLINE_DECISIONS``-th decision."""
        deadline = self.deadline
        clock_every = self.DEADLINE_DECISIONS
        restart_base = self.restart_base
        luby_idx = 1
        conflicts_until_restart = restart_base * _luby(luby_idx)
        max_learnts = 20000
        while True:
            conflict = self.propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                if not self.trail_lim:
                    return SolveResult(UNSAT, stats=self.stats)
                learnt = self.analyze(conflict)
                if len(learnt) > 2:
                    self.learnts.append(learnt)
                self._learn(learnt)
                conflicts_until_restart -= 1
                lim = self.limits
                if lim.conflicts is not None and self.stats.conflicts >= lim.conflicts:
                    return SolveResult(RESOURCE_LIMIT, stats=self.stats)
                if deadline is not None and time.monotonic() > deadline:
                    return SolveResult(RESOURCE_LIMIT, stats=self.stats)
                if self.stats.conflicts >= segment_limit:
                    return None
                if len(self.learnts) > max_learnts:
                    self._reduce_learnts()
                    max_learnts += max_learnts // 2
                continue
            if conflicts_until_restart <= 0:
                luby_idx += 1
                conflicts_until_restart = restart_base * _luby(luby_idx)
                self.cancel_until(0)
                continue
            v = self._pick_branch_var()
            if v == 0:  # the trail holds one literal of every variable
                return SolveResult(SAT, frozenset(self.trail), self.stats)
            self.stats.decisions += 1
            self.trail_lim.append(len(self.trail))
            self.enqueue(v if self.phase[v] else -v, None)
            if (deadline is not None and not self.stats.decisions % clock_every
                    and time.monotonic() > deadline):
                return SolveResult(RESOURCE_LIMIT, stats=self.stats)


def _luby(i: int) -> int:
    """The i-th term (1-based) of the Luby restart sequence 1,1,2,1,1,2,4,..."""
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


def solve(cnf: CnfInstance, cfg: SolverConfig = SolverConfig()) -> SolveResult:
    """Solve a CNF instance.  A SAT answer is re-verified against every
    clause before it is returned."""
    return next(_answers(cnf, cfg, []))


def iter_assignments(cnf: CnfInstance, cfg: SolverConfig = SolverConfig(),
                     projection: list[int] | None = None) -> Iterator[SolveResult]:
    """Yield SolveResults for successive solutions, blocking each one on the
    ``projection`` variables (all variables when None).  The final non-SAT
    result (UNSAT when the space is exhausted, or RESOURCE_LIMIT) is yielded
    last.  With the internal engine the search is incremental: learned
    clauses and saved phases carry over between solutions.  The first
    solution is the one :func:`solve` finds, with the same counts; after it
    the engine decides the projection variables first and blocks each later
    solution by its projection decisions (see ``_Cdcl.add_blocking_clause``).
    Each result has
    its own SolveStats: its counts are cumulative over the enumeration so
    far, and its ``solve_seconds`` is that one call's time.  Every SAT
    result is checked before it is yielded: the first on every clause of
    the formula, each later one on the clauses that hold a variable whose
    value it changed, and on the projection against every earlier answer;
    a failed check raises SolverError.  A projection entry outside
    ``1..cnf.num_vars`` raises ValueError before any engine starts."""
    if projection is not None:
        bad = next((v for v in projection if not 1 <= v <= cnf.num_vars), None)
        if bad is not None:
            raise ValueError(f"projection entry {bad} is not a variable of the formula "
                             f"(1..{cnf.num_vars})")
    proj = sorted(set(projection)) if projection is not None else list(range(1, cnf.num_vars + 1))
    if not proj:
        raise ValueError("projection must not be empty")
    return _answers(cnf, cfg, proj)


def _answers(cnf: CnfInstance, cfg: SolverConfig, projection: list[int]) -> Iterator[SolveResult]:
    """Yield the answer for ``cnf`` and, after each SAT answer, the answer
    once a clause blocking it on ``projection`` joins the solver; the first
    non-SAT answer is the last.  The internal engine takes each blocking
    clause into the live search, and blocks every answer after the first by
    its projection decisions, which imply the clause; an external one solves
    every clause afresh.
    Every SAT answer is checked against the formula (by ``_FormulaCheck``)
    and the blocking clauses, as strictly as a test of every clause; a
    variable with neither literal in it reads False, here and in the
    blocking clause.  An answer breaks a blocking clause only if it builds
    the same clause, so the blocking clauses are a set and that check is
    one lookup.  Both checks and the blocking clause read the answer's
    frozenset of true literals, the object that is yielded.
    ``cfg.limits.wall_seconds`` bounds the whole loop: each call gets the
    time that is left."""
    wall = cfg.limits.wall_seconds
    deadline = None if wall is None else time.monotonic() + wall
    solver = (_Cdcl(cnf.num_vars, cfg.limits, deadline) if cfg.engine == "internal"
              else _External(cfg.engine, cnf.num_vars, deadline))
    solver.add_clauses(cnf.clauses)
    formula = _FormulaCheck(cnf.clauses)
    blocking: set[tuple[int, ...]] = set()
    while True:
        start = time.monotonic()
        result = solver.solve()
        result.stats = replace(result.stats, solve_seconds=time.monotonic() - start)
        if result.status == SAT:
            lits = result.literals
            if not formula.passes(lits):
                raise SolverError("solver returned an assignment that does not satisfy the formula")
            clause = tuple(-v if v in lits else v for v in projection)
            if clause in blocking:
                raise SolverError("solver returned an assignment that repeats an earlier "
                                  "answer on the projection")
        yield result
        if result.status != SAT:
            return
        blocking.add(clause)
        solver.add_blocking_clause(clause)


# Conventional solver exit codes, and the verdicts of an 's' line.
_EXIT_STATUS = {10: SAT, 20: UNSAT}
_VERDICTS = {"SATISFIABLE": SAT, "UNSATISFIABLE": UNSAT, "UNKNOWN": RESOURCE_LIMIT, "INDETERMINATE": RESOURCE_LIMIT}


class _External:
    """An external solver behind ``_Cdcl``'s interface.  It keeps the
    clauses added so far, and each ``solve`` runs the executable ``engine``
    on a DIMACS file of all of them.  A run that reaches the monotonic clock
    time ``deadline`` is killed, and one that would start at or after it is
    not started; both are reported as RESOURCE_LIMIT.  There is no portable
    way to give an arbitrary binary a conflict limit, so ``SolverConfig``
    rejects ``SolverLimits.conflicts`` for it.  The verdict is read from
    the 's' line; an exit code of 10 or 20 that disagrees with it, a 'v'
    literal outside ``±1..num_vars``, or an executable that cannot be run,
    raises SolverError."""

    def __init__(self, engine: str, num_vars: int, deadline: float | None):
        self.engine = engine
        self.num_vars = num_vars
        self.deadline = deadline
        self.clauses: list[tuple[int, ...]] = []

    def add_clauses(self, clauses) -> None:
        self.clauses.extend(clauses)

    def add_blocking_clause(self, lits: tuple[int, ...]) -> None:
        self.clauses.append(lits)

    def solve(self) -> SolveResult:
        # Imported here, not with the module: only this method runs a
        # process, and the two cost a plain import about 7-9 ms.
        import subprocess
        import tempfile

        deadline = self.deadline
        if deadline is not None and time.monotonic() >= deadline:
            return SolveResult(RESOURCE_LIMIT)
        with tempfile.NamedTemporaryFile("w", suffix=".cnf", delete=False) as fh:
            fh.write(emit_dimacs(CnfInstance(self.num_vars, tuple(self.clauses))))
            path = fh.name
        try:
            proc = subprocess.run([self.engine, path], capture_output=True, text=True,
                                  timeout=None if deadline is None else deadline - time.monotonic())
        except subprocess.TimeoutExpired:  # run() has killed and reaped the solver
            return SolveResult(RESOURCE_LIMIT)
        except OSError as exc:
            raise SolverError(f"cannot run external solver {self.engine!r}: {exc}") from exc
        finally:
            Path(path).unlink(missing_ok=True)
        result = parse_dimacs_result(proc.stdout)
        expected = _EXIT_STATUS.get(proc.returncode, result.status)
        if expected != result.status:
            raise SolverError(f"external solver exited with code {proc.returncode} "
                              f"but reported {result.status}")
        n = self.num_vars
        bad = next((l for l in result.literals or () if not -n <= l <= n), None)
        if bad is not None:
            raise SolverError(f"external solver set literal {bad}, outside the variables 1..{n}")
        return result


# --- DIMACS ------------------------------------------------------------------

def emit_dimacs(cnf: CnfInstance) -> str:
    lines = [f"c {c}" if c else "c" for c in cnf.comments]
    lines.append(f"p cnf {cnf.num_vars} {len(cnf.clauses)}")
    for clause in cnf.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> CnfInstance:
    """Parse DIMACS CNF (clauses may span lines; 'c' lines are kept as
    comments).  A bad header or clause count, a token that is not an
    integer (named with its line number) or a literal outside
    ``±1..num_vars`` raises SolverError."""
    comments: list[str] = []
    num_vars = declared_clauses = None
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            comments.append(line[1:].strip())
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise SolverError(f"bad DIMACS header: {line!r}")
            num_vars, declared_clauses = _dimacs_int(parts[2], number), _dimacs_int(parts[3], number)
            if num_vars < 0 or declared_clauses < 0:
                raise SolverError(f"negative count in DIMACS header: {line!r}")
            continue
        if line.startswith("%"):
            break
        for tok in line.split():
            lit = _dimacs_int(tok, number)
            if lit == 0:
                clauses.append(tuple(pending))
                pending = []
            else:
                pending.append(lit)
    if pending:
        clauses.append(tuple(pending))
    if num_vars is None:
        raise SolverError("missing DIMACS header")
    if declared_clauses != len(clauses):
        raise SolverError(f"header declares {declared_clauses} clauses, found {len(clauses)}")
    bad = next((l for c in clauses for l in c if not -num_vars <= l <= num_vars), None)
    if bad is not None:
        raise SolverError(f"literal {bad} is outside the variables 1..{num_vars} "
                          f"of the DIMACS header 'p cnf {num_vars} {declared_clauses}'")
    return CnfInstance(num_vars, tuple(clauses), tuple(comments))


def _dimacs_int(tok: str, number: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise SolverError(f"line {number}: {tok!r} is not an integer") from None


def parse_dimacs_result(text: str) -> SolveResult:
    """Parse SAT-competition style solver output ('s' and 'v' lines).  A SAT
    answer's literals are its 'v' literals; a second 's' line or a variable
    set both ways raises SolverError."""
    status = None
    lits: list[int] = []
    seen_v = False
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line.startswith("s "):
            if status is not None:
                raise SolverError(f"line {number}: a second 's' line, {line!r}")
            verdict = line[2:].strip().upper()
            if verdict not in _VERDICTS:
                raise SolverError(f"unrecognized solver verdict {verdict!r}")
            status = _VERDICTS[verdict]
        elif line.startswith("v ") or line == "v":
            seen_v = True
            lits.extend(_dimacs_int(t, number) for t in line[1:].split())
    if status is None:
        raise SolverError("solver output contains no 's' line")
    if status != SAT:
        return SolveResult(status)
    if not seen_v:
        raise SolverError("SAT result without 'v' assignment lines")
    literals = frozenset(l for l in lits if l != 0)
    both = sorted(l for l in literals if l > 0 and -l in literals)
    if both:
        raise SolverError(f"'v' lines set variable {both[0]} both true and false")
    return SolveResult(SAT, literals)
