"""cncsynth benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload rj-unsat --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics named in BENCHMARK.json,
measured through the public entry points with tracing off.  With
``--trace 1`` it prints the per-layer metrics of a separate traced pass,
re-runs that pass in a second process to check that the solver and encoder
counts repeat, and runs it once more under another hash seed to list the
instances whose clause lists depend on the hash seed.  The last stdout line
is one JSON object; per-instance rows and spans go to ``perfbench/out/``.
See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("rj-unsat", "enum", "3sat-sweep")
HASH_SEED = "0"  # recorded; every workload process runs under it
PROBE_HASH_SEED = "1"
SETUP_SAMPLES = 9
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


class Runner:
    """Starts worker processes against one run deadline."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.deadline = time.monotonic() + DEADLINE_S

    def worker(self, mode: str, seconds: float = 0.0, hash_seed: str = HASH_SEED,
               out: Path | None = None) -> dict:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)
        cmd = [sys.executable, str(HERE / "worker.py"), mode, self.workload,
               "--seed", str(self.seed), "--seconds", str(seconds)]
        if out is not None:
            cmd += ["--out", str(out)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline passed")
        cmd += ["--t0-ns", str(time.time_ns())]
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            raise BenchError(f"{mode} worker passed the run deadline") from None
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"{mode} worker exited with code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(xs: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def tally(rows: list[dict]) -> tuple[int, int, int]:
    wrong = sum(r["status"] == "wrong" for r in rows)
    failed = sum(r["status"] != "ok" for r in rows)
    return len(rows), failed, wrong


def end_to_end(r: Runner, seconds: float) -> tuple[dict, list[dict], dict]:
    setups = [r.worker("setup") for _ in range(SETUP_SAMPLES)]
    res = r.worker("plain", seconds)
    # Every pass repeats the same deterministic items, so an item's figure is
    # its best calibrated time over the passes (see worker.SpeedProbe).
    best: dict[str, float] = {}
    raw: dict[str, float] = {}
    for row in res["rows"]:
        if row["s"] is not None:
            best[row["id"]] = min(row["cs"], best.get(row["id"], math.inf))
            raw[row["id"]] = min(row["s"], raw.get(row["id"], math.inf))
    if not best:
        raise BenchError("no item completed")
    metrics = item_metrics(list(best.values()))
    metrics["setup_s"] = statistics.median(w["setup_cs"] for w in setups)
    uncalibrated = item_metrics(list(raw.values()))
    uncalibrated["setup_s"] = statistics.median(w["setup_s"] for w in setups)
    extra = {"uncalibrated": uncalibrated, "verdict_s_p90": percentile(list(best.values()), 0.90),
             "passes": res["passes"], "items": len(best),
             "probe_samples": res["probe_samples"], "probe_spent_s": res["probe_spent_s"],
             "verdict_s_max": max(best.values()), "peak_rss_mb": res["peak_rss_mb"]}
    return metrics, res["rows"], extra


def item_metrics(times: list[float]) -> dict:
    return {"verdict_s_geomean": math.exp(statistics.fmean(math.log(t) for t in times)),
            "verdict_s_p50": statistics.median(times)}


def per_layer(r: Runner) -> tuple[dict, list[dict], dict]:
    plain = r.worker("plain")
    first = r.worker("traced", out=OUT / f"{r.workload}-seed{r.seed}-spans.json")
    second = r.worker("traced")
    other_hash = r.worker("traced", hash_seed=PROBE_HASH_SEED)
    layers = dict(first["layers"])
    layers["trace.overhead_s"] = first["passes"][0] - plain["passes"][0]
    layers["proc.peak_rss_mb"] = plain["peak_rss_mb"]
    a, b, c = first["counts"], second["counts"], other_hash["digests"]
    extra = {"layers": layers, "untraced_wall_s": plain["passes"][0],
             "count_mismatches": sorted(i for i in a.keys() | b.keys() if a.get(i) != b.get(i)),
             "hashseed_sensitive": sorted(i for i in first["digests"] if first["digests"][i] != c.get(i))}
    return layers, first["rows"], extra


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "cncsynth" / "__init__.py").is_file():
        print(f"perfbench: no cncsynth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = manifest["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)

    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            values, rows, extra = per_layer(runner)
        else:
            values, rows, extra = end_to_end(runner, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    attempted, failed, wrong = tally(rows)
    correct = wrong == 0 and failed == 0 and not extra.get("count_mismatches")
    # A variable kind or clause group that an encoding does not have reads 0.
    metrics = {m["name"]: {"value": values[m["name"]] if not m["name"].startswith("encoder.")
                           else values.get(m["name"], 0), "unit": m["unit"]} for m in spec}

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "pythonhashseed": HASH_SEED, "nproc": os.cpu_count(),
              "python": platform.python_version(), "attempted": attempted, "failed": failed,
              "wrong_results": wrong, "failed_frac": failed / attempted, **extra,
              "metrics": metrics, "rows": rows}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    for name, m in metrics.items():
        print(f"{args.workload:>10}  {name:<32} {m['value']:>14.6g} {m['unit']}")
    print(f"{args.workload:>10}  {'wrong_results':<32} {wrong:>14d} count")
    print(f"{args.workload:>10}  {'failed_frac':<32} {failed / attempted:>14.6g} fraction")
    for key in ("uncalibrated", "verdict_s_p90", "verdict_s_max", "peak_rss_mb", "count_mismatches", "hashseed_sensitive"):
        if key in extra:
            print(f"{args.workload:>10}  {key:<32} {extra[key]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
