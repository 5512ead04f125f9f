#!/usr/bin/env python3
"""Record baseline numbers: run the benchmark once per seed and summarize.

    python3 perfbench/baseline.py [--seeds 1-10] [--no-trace] [--out FILE]

For each workload, runs ``run.py --trace 0`` once per seed (one process at a
time) and reports, per end-to-end metric, the median, the quartiles and the
spread (quartile distance over median, as ``statistics.quantiles(n=4)``
gives them) against the metric's bound.  Unless ``--no-trace`` is given, it
then runs ``run.py --trace 1`` once and collects the per-layer metrics and
the time shares of ``cli.main`` that the traced call left in
``shares.json``.  Writes everything as JSON to ``--out`` (default:
perfbench/baseline.json).

The second set of the two-set check is
``python3 perfbench/baseline.py --seeds 11-20 --no-trace --out .bench_build/perfbench/set2.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
from run import WORK, WORKLOADS, machine  # noqa: E402


def run_bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=400)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "bound": bound, "values": values}


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out", default=str(BENCH / "baseline.json"))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    result = {"machine": machine(), "run_seconds": seconds, "workloads": {}}
    for name in WORKLOADS:
        w = WORKLOADS[name]
        entry = {"experiment": w.experiment, "base_config": f"perfbench/configs/{w.base}",
                 "drawn": {"key": w.key, "band": list(w.band)}}
        values: dict[str, list[float]] = {}
        for seed in parse_seeds(args.seeds):
            start = time.monotonic()
            out = run_bench(name, seed, seconds, 0)
            if not out["correct"]:
                raise SystemExit(f"{name} seed {seed}: {out['failed']} failed calls")
            for metric, v in out["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(f"{name} seed {seed} ({time.monotonic() - start:.0f} s): "
                  + " ".join(f"{k}={v['value']:.4f}" for k, v in out["metrics"].items()),
                  flush=True)
        entry["end_to_end"] = {k: summarize(v, bounds[k]) for k, v in values.items()}
        for k, row in entry["end_to_end"].items():
            print(f"  {k}: median {row['median']:.4f} spread {row['spread']:.4f} "
                  f"(bound {row['bound']})", flush=True)
        if not args.no_trace:
            out = run_bench(name, 1, seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in out["metrics"].items()}
            shares = json.loads((WORK / name / "shares.json").read_text(encoding="utf-8"))
            entry["time_shares"] = shares
            print(f"  time shares: {shares}", flush=True)
        result["workloads"][name] = entry
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
