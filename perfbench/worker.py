"""One workload process of the cncsynth benchmark.

``run.py`` starts this file as a child process, one per measurement, with
``PYTHONPATH`` pointing at the checkout's ``src`` and a fixed
``PYTHONHASHSEED``.  It is single-threaded and closed-loop: one client runs
the items back to back.  The last line on stdout is one JSON object.

Modes:

* ``setup``  - import cncsynth and build the inputs, then report the set-up
  time and exit.
* ``plain``  - repeat passes over the same inputs through the public entry
  points (``synthesize``, ``enumerate_models``, ``solve_3sat``) until
  ``--seconds`` is used up, with the speed probe on; every answer is checked
  after its pass, outside the pass's wall time.
* ``traced`` - one such pass with the module-level names that ``cli``,
  ``reduction`` and ``synth`` call swapped for wrappers that record a span
  around each call, and the per-layer self times and counts of that pass.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import dataclasses
import hashlib
import itertools
import json
import random
import resource
import signal
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

# Generous per-solve limit: an instance that hits it counts as failed
# instead of hanging the run past its deadline.
SOLVE_LIMIT_S = 60.0
ENUM_LIMIT = 250
# A pass runs an instance faster than REPEAT_UNDER_S up to REPEATS times in a
# row, so that the many short 3SAT formulas have enough runs to show their
# best time even when a slow formula leaves room for only a few passes.
REPEAT_UNDER_S = 0.02
REPEATS = 4
# Criterion 6 draws n from [1,8], but at n = 7-8 the solve time has a heavy
# tail: over 1,340 seeded formulas of each size the slowest took 2.6 s
# (n = 7) and 10.4 s (n = 8) against a 99th percentile of 0.2-0.4 s, so one
# formula can outlast a run.  At n = 6 the slowest of 10,000 took 1.0 s.
SAT_MAX_VARS = 6
FORMULAS_PER_SIZE = 2

# (instance id, spec file, port-scope override, expected verdict).  The
# UNSAT verdict of S1lib at ports=10 is frozen from the seed commit, not
# taken from an oracle.
RJ_UNSAT = (
    ("S2", "rotational_joint/S2.cncspec", None, "unsat"),
    ("S2NoNest", "rotational_joint/S2NoNest.cncspec", None, "unsat"),
    ("S1lib@ports=10", "rotational_joint/S1lib.cncspec", 10, "unsat"),
)
ENUM = (("Lander", "lunar_lander/Lander.cncspec", None, "sat"),)
WORKLOADS = ("rj-unsat", "enum", "3sat-sweep")


def now() -> float:
    return time.perf_counter()


# --- inputs -------------------------------------------------------------------

def gen_3sat(seed: int):
    """Criterion 6's generator (m in [1,20], clause width in [1,3]) with n
    in [1,SAT_MAX_VARS], stratified on (n, m): FORMULAS_PER_SIZE formulas
    for each pair, in a seeded order, so that every seed has the same size
    mix."""
    from cncsynth.reduction import Cnf3Formula

    rng = random.Random(seed)
    sizes = [(n, m) for n in range(1, SAT_MAX_VARS + 1) for m in range(1, 21)] * FORMULAS_PER_SIZE
    rng.shuffle(sizes)
    formulas = []
    for n, m in sizes:
        clauses = []
        for _ in range(m):
            vs = rng.sample(range(1, n + 1), min(rng.randint(1, 3), n))
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        formulas.append(Cnf3Formula(n, tuple(clauses)))
    return formulas


def make_inputs(workload: str, seed: int):
    """Fixture instances, or formulas generated from the seed.  The fixture
    order is fixed, not seeded, because order matters in one process."""
    if workload == "3sat-sweep":
        return gen_3sat(seed)
    insts = RJ_UNSAT if workload == "rj-unsat" else ENUM
    for _, path, _, _ in insts:
        if not (FIXTURES / path).is_file():
            raise FileNotFoundError(FIXTURES / path)
    return insts


def load(path: str, ports: int | None):
    from cncsynth import cli

    spec = cli.load_spec(str(FIXTURES / path))
    if ports is not None:  # the CLI's --ports override
        spec = dataclasses.replace(spec, scope_hints=dataclasses.replace(spec.scope_hints, ports=ports))
    return spec


def solver_config():
    from cncsynth.sat import SolverConfig, SolverLimits

    return SolverConfig(limits=SolverLimits(wall_seconds=SOLVE_LIMIT_S))


def item_id(workload: str, i: int, inp) -> str:
    return f"f{i}" if workload == "3sat-sweep" else inp[0]


# --- answer checks (outside the timed pass) ------------------------------------

def truth_table_sat(n: int, clauses) -> bool:
    return any(all(any((lit > 0) == bits[abs(lit) - 1] for lit in c) for c in clauses)
               for bits in itertools.product((False, True), repeat=n))


def check_rows(workload: str, rows: list[dict], answers) -> None:
    """Set ``row["status"]`` to wrong where an item's answer differs from the
    known one: brute force for 3SAT, the documented verdict for fixtures, and
    distinctness plus ``evaluate_spec`` for enumerated models."""
    from cncsynth.checker import evaluate_spec

    if workload == "enum":
        spec, models = answers
        seen = set()
        for row, m in zip(rows, models):
            if row["status"] == "ok" and (m in seen or not evaluate_spec(m, spec).overall):
                row["status"] = "wrong"
            seen.add(m)
        return
    for row, (inp, answer) in zip(rows, answers):
        if row["status"] != "ok":
            continue
        if workload == "3sat-sweep":
            good = (answer is not None) == truth_table_sat(inp.num_vars, inp.clauses) and (
                answer is None or all(any((l > 0) == answer[abs(l)] for l in c) for c in inp.clauses))
        else:
            spec, model = answer
            good = ("unsat" if model is None else "sat") == inp[3] and (
                model is None or evaluate_spec(model, spec).overall)
        if not good:
            row["status"] = "wrong"


# --- one pass -------------------------------------------------------------------

def run_pass(workload: str, inputs, instance=lambda item: contextlib.nullcontext(), clock=now,
             repeats: int = 1):
    """One pass through the public entry points.  ``instance(item)`` is
    entered around each instance.  An instance that takes under REPEAT_UNDER_S
    is run again at once, up to ``repeats`` times in all, with a row for each
    run.  Returns (wall seconds, the rows, the answers to check); a row's
    ``t0`` and ``s`` are the item's start on ``clock`` and its seconds."""
    from cncsynth.reduction import solve_3sat
    from cncsynth.synth import SynthOutcome, enumerate_models, synthesize

    cfg = solver_config()
    rows: list[dict] = []
    answers: list = []
    t_pass = clock()
    if workload == "enum":
        (iid, path, ports, _), = inputs
        spec, models = None, []
        prev = clock()
        try:
            with instance(iid):
                spec = load(path, ports)
                for m in enumerate_models(spec, limit=ENUM_LIMIT, config=cfg):
                    t = clock()
                    rows.append({"id": f"{iid}#{len(rows)}", "t0": prev, "s": t - prev, "status": "ok"})
                    models.append(m)
                    prev = t
        except Exception as exc:  # a raise ends the enumeration; the rest count as failed
            print(f"enum: {type(exc).__name__}: {exc}", file=sys.stderr)
        rows += [{"id": f"{iid}#{i}", "t0": None, "s": None, "status": "failed"} for i in range(len(rows), ENUM_LIMIT)]
        return clock() - t_pass, rows, (spec, models)
    for i, inp in enumerate(inputs):
        iid = item_id(workload, i, inp)
        for _ in range(repeats):
            t0, status, answer = clock(), "ok", None
            try:
                with instance(iid):
                    if workload == "3sat-sweep":
                        answer = solve_3sat(inp, cfg)
                    else:
                        spec = load(inp[1], inp[2])
                        r = synthesize(spec, config=cfg)
                        answer = (spec, r.model)
                        if r.outcome is SynthOutcome.RESOURCE_LIMIT:
                            status = "failed"
            except Exception as exc:  # TimeoutError on the solver limit, or a soundness failure
                status = "failed"
                print(f"{iid}: {type(exc).__name__}: {exc}", file=sys.stderr)
            rows.append({"id": iid, "t0": t0, "s": clock() - t0, "status": status})
            answers.append((inp, answer))
            if rows[-1]["s"] >= REPEAT_UNDER_S or status != "ok":
                break
    return clock() - t_pass, rows, answers


# --- speed probe ----------------------------------------------------------------

PROBE_INTERVAL_S = 0.02
SETUP_PROBE_SAMPLES = 50
PROBE_MIN_SAMPLES = 10
PROBE_WINDOW_S = 1.0
# The reference loop's time at full speed on the machine the baseline was
# measured on; it only sets the scale of the calibrated seconds.
REFERENCE_S = 5e-4


def reference_loop() -> int:
    x = 0
    for i in range(8_000):
        x += i * i
    return x


class SpeedProbe:
    """Samples how fast the machine runs while the workload runs.

    On shared vCPUs the same pass can take a third longer or more for
    minutes at a time, and that slowdown hits every run of a set alike, so
    more passes do not average it out.  Every PROBE_INTERVAL_S a timer signal
    runs ``reference_loop`` in the workload's own thread and records how long
    it took.  ``clock`` excludes the time spent in the probe, so items are
    timed without it; sample start times are on the same clock."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0

    def clock(self) -> float:
        # A tick between reading the time and reading ``spent`` would take
        # its duration off a reading taken before it, and a sub-millisecond
        # item could then read negative; read again if ``spent`` moved.
        while True:
            spent = self.spent
            t = now()
            if self.spent == spent:
                return t - spent

    def _tick(self, signum, frame) -> None:
        t = now()
        reference_loop()
        d = now() - t
        self.starts.append(t - self.spent)
        self.durations.append(d)
        self.spent += now() - t

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def reference_s(self, t0: float, t1: float) -> float:
        """The reference loop's time while the machine ran the item that
        spanned [t0, t1].  An item that holds PROBE_MIN_SAMPLES samples or
        more averages over the machine's changes of speed, so the mean of its
        samples is used.  A shorter item's best time over the passes comes
        from a fast moment, so the 10th percentile of the samples within
        PROBE_WINDOW_S of it is used."""
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.starts, t1)
        if hi - lo >= PROBE_MIN_SAMPLES:
            return statistics.fmean(self.durations[lo:hi])
        lo = bisect.bisect_left(self.starts, t0 - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + PROBE_WINDOW_S)
        window = sorted(self.durations[max(0, lo - 1):hi + 1])
        return window[len(window) // 10]

    def calibrate(self, rows: list[dict]) -> None:
        """Add each timed row's calibrated seconds ``cs``: its seconds scaled
        by REFERENCE_S over the reference loop's time around it."""
        for row in rows:
            if row["s"] is not None:
                row["cs"] = row["s"] * REFERENCE_S / self.reference_s(row["t0"], row["t0"] + row["s"])


# --- tracing --------------------------------------------------------------------

class Tracer:
    """Spans kept in memory: [name, instance, parent index, start, end].
    Solver counts and the encoding are kept per instance."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.item = None
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.encodings: dict[str, object] = {}

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, self.item, self._stack[-1] if self._stack else None, now(), None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[4] = now()
            self._stack.pop()

    @contextlib.contextmanager
    def instance(self, item: str):
        self.item = item
        with self.span("bench.instance"):
            yield

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def wrap_encode(self, fn):
        def traced(*args, **kwargs):
            with self.span("encoder.encode"):
                enc = fn(*args, **kwargs)
            self.encodings[self.item] = enc
            return enc
        return traced

    def _stats(self, res, cumulative: bool) -> None:
        s, c = res.stats, self.counts[self.item]
        for key, v in (("sat.conflicts", s.conflicts), ("sat.decisions", s.decisions),
                       ("sat.propagations", s.propagations)):
            c[key] = v if cumulative else c[key] + v

    def wrap_solve(self, fn):
        def traced(*args, **kwargs):
            with self.span("sat.solve"):
                res = fn(*args, **kwargs)
            self._stats(res, cumulative=False)
            return res
        return traced

    def wrap_iter(self, fn):
        """Each step of the generator is one ``sat.solve`` span; the counts
        are those of the one incremental solver, so the last step's stand."""
        def traced(*args, **kwargs):
            steps = fn(*args, **kwargs)
            while True:
                with self.span("sat.solve"):
                    res = next(steps, None)
                if res is None:
                    return
                self._stats(res, cumulative=True)
                yield res
        return traced

    def self_times(self) -> Counter:
        """Per span name: duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, _, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Counter = Counter()
        for (name, _, _, start, end), c in zip(self.spans, child):
            out[name] += (end - start) - c
        return out


@contextlib.contextmanager
def layers_traced(tr: Tracer):
    """Swap the module-level names through which ``cli``, ``reduction`` and
    ``synth`` call the other layers for traced wrappers, and restore them."""
    from cncsynth import cli, reduction, synth

    swaps = [(cli, "load_spec", tr.wrap("dsl.load", cli.load_spec)),
             (cli, "resolve", tr.wrap("speclang.resolve", cli.resolve)),
             (reduction, "reduce_3sat", tr.wrap("reduction.reduce", reduction.reduce_3sat)),
             (reduction, "reduction_scope", tr.wrap("reduction.reduce", reduction.reduction_scope)),
             (reduction, "resolve", tr.wrap("speclang.resolve", reduction.resolve)),
             (reduction, "extract_assignment", tr.wrap("reduction.extract", reduction.extract_assignment)),
             (synth, "encode", tr.wrap_encode(synth.encode)),
             (synth, "solve", tr.wrap_solve(synth.solve)),
             (synth, "iter_assignments", tr.wrap_iter(synth.iter_assignments)),
             (synth, "decode", tr.wrap("encoder.decode", synth.decode)),
             (synth, "verify_closures", tr.wrap("synth.verify_closures", synth.verify_closures)),
             (synth, "validate_model", tr.wrap("model.validate", synth.validate_model)),
             (synth, "evaluate_spec", tr.wrap("checker.evaluate", synth.evaluate_spec))]
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in swaps]
    for mod, name, fn in swaps:
        setattr(mod, name, fn)
    try:
        yield
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)


LAYERS = ("dsl.load", "speclang.resolve", "reduction.reduce", "reduction.extract",
          "encoder.encode", "encoder.decode", "sat.solve", "synth.verify_closures",
          "model.validate", "checker.evaluate")


def encoding_counts(enc) -> Counter:
    c = Counter({"encoder.vars": enc.cnf.num_vars, "encoder.clauses": len(enc.cnf.clauses)})
    for v in range(1, enc.varmap.num_vars + 1):
        c["encoder.vars." + enc.varmap.describe(v).split(" ", 1)[0]] += 1
    for group, lo, hi in enc.cnf.groups:
        c["encoder.clauses." + group] += hi - lo
    return c


def layer_metrics(tr: Tracer, wall: float) -> dict:
    self_s = tr.self_times()
    m: dict[str, float] = {f"{name}_s": self_s[name] for name in LAYERS}
    m["bench.self_s"] = self_s["bench.instance"]
    m["trace.wall_s"] = wall
    m["trace.covered_frac"] = sum(self_s[name] for name in LAYERS) / wall
    steps = [end - start for name, _, _, start, end in tr.spans if name == "sat.solve"]
    m["sat.calls"] = len(steps)
    m["sat.next_s_first50_p50"] = statistics.median(steps[:50])
    m["sat.next_s_last50_p50"] = statistics.median(steps[-50:])
    for c in tr.counts.values():
        m.update((k, m.get(k, 0) + v) for k, v in c.items())
    m["sat.conflicts_per_s"] = m["sat.conflicts"] / m["sat.solve_s"]
    m["sat.props_per_s"] = m["sat.propagations"] / m["sat.solve_s"]
    for enc in tr.encodings.values():
        m.update((k, m.get(k, 0) + v) for k, v in encoding_counts(enc).items())
    return m


def digest(enc) -> str:
    return hashlib.sha256(repr(enc.cnf.clauses).encode()).hexdigest()[:16]


# --- entry point ----------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "plain", "traced"))
    ap.add_argument("workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--t0-ns", type=int, required=True, help="launcher's time.time_ns() before the spawn")
    ap.add_argument("--out", help="file for the traced pass's rows and spans")
    args = ap.parse_args()

    import cncsynth
    if Path(cncsynth.__file__).resolve().parent != ROOT / "src" / "cncsynth":
        raise SystemExit(f"cncsynth imported from {cncsynth.__file__}, not from {ROOT / 'src'}")
    import cncsynth.cli  # noqa: F401  (the import cost belongs to set-up)
    import cncsynth.reduction  # noqa: F401

    inputs = make_inputs(args.workload, args.seed)
    setup_s = (time.time_ns() - args.t0_ns) / 1e9
    out: dict = {"setup_s": setup_s}

    if args.mode == "setup":
        durations = []
        for _ in range(SETUP_PROBE_SAMPLES):
            t = now()
            reference_loop()
            durations.append(now() - t)
        out["setup_cs"] = setup_s * REFERENCE_S / statistics.fmean(durations)
    elif args.mode == "plain":
        # A single pass (--seconds 0) runs each instance once, as the traced
        # pass does, so that the two can be compared.
        repeats = REPEATS if args.seconds > 0 else 1
        passes, items = [], []
        with SpeedProbe() as probe:
            t_run = probe.clock()
            while True:
                wall, rows, answers = run_pass(args.workload, inputs, clock=probe.clock, repeats=repeats)
                check_rows(args.workload, rows, answers)
                for row in rows:
                    row["pass"] = len(passes)
                passes.append(wall)
                items += rows
                if probe.clock() - t_run + wall > args.seconds:
                    break
        probe.calibrate(items)
        out.update(passes=passes, rows=items, probe_samples=len(probe.durations),
                   probe_spent_s=probe.spent)
    elif args.mode == "traced":
        tr = Tracer()
        with layers_traced(tr):
            wall, rows, answers = run_pass(args.workload, inputs, tr.instance)
        check_rows(args.workload, rows, answers)
        counts = {item: dict(c) for item, c in tr.counts.items()}
        for item, enc in tr.encodings.items():
            counts.setdefault(item, {}).update({"encoder.vars": enc.cnf.num_vars,
                                                "encoder.clauses": len(enc.cnf.clauses)})
        out.update(passes=[wall], rows=rows, layers=layer_metrics(tr, wall), counts=counts,
                   digests={item: digest(enc) for item, enc in tr.encodings.items()})
        if args.out:
            Path(args.out).write_text(json.dumps({"rows": rows, "counts": counts, "spans": tr.spans}))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
