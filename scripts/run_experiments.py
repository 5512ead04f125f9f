#!/usr/bin/env python3
"""Run every committed experiment config through the CLI.

Usage: python scripts/run_experiments.py [--out-root OUT] [--only NAME ...]

The script runs the package of its own checkout: it puts that checkout's
src/ first on sys.path, ahead of any installed copy and of PYTHONPATH.

Each config in scripts/configs/ maps to one experiment; outputs land in
OUT/<config-stem>/, and OUT/timings.json records each config's exit code and
wall time in seconds.  Exits nonzero if any experiment reports a check failure.
The package starts BLAS on one thread unless OPENBLAS_NUM_THREADS or
OMP_NUM_THREADS says otherwise: the grids are small, and with two BLAS
threads stationary_dh took 1.08 s in one full run against 0.13 s in
another.  On a 2-CPU x86-64 VM the configs take 1.02 to 1.19 seconds
together in nine runs, depending on its load: verify 0.52 to 0.63 seconds,
limit_heat 0.08 to 0.12 seconds, stationary_dh 0.07 to 0.10 seconds (61
split steps), stationary_dmr 0.07 to 0.08 seconds (59), heat_bump 0.07 to
0.13 seconds and every other config 0.10 seconds or less.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from relgeneric.cli import main as cli_main  # noqa: E402  (after the path)

CONFIGS = Path(__file__).resolve().parent / "configs"


def experiment_of(path: Path) -> str:
    for line in path.read_text().splitlines():
        stripped = line.split("#", 1)[0].strip()
        if stripped.startswith("experiment"):
            return stripped.split("=", 1)[1].strip()
    raise SystemExit(f"{path}: missing 'experiment =' line")


def run():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out-root", default="out")
    parser.add_argument("--only", nargs="*", default=None,
                        help="config stems to run (default: all)")
    args = parser.parse_args()

    failures, timings = [], {}
    for cfg in sorted(CONFIGS.glob("*.cfg")):
        if args.only and cfg.stem not in args.only:
            continue
        out = Path(args.out_root) / cfg.stem
        print(f"== {cfg.stem} ({experiment_of(cfg)}) -> {out}")
        t0 = time.perf_counter()
        code = cli_main([experiment_of(cfg), "--config", str(cfg), "--out", str(out)])
        wall_s = time.perf_counter() - t0
        print(f"   exit {code} in {wall_s:.1f}s")
        timings[cfg.stem] = {"exit": code, "wall_s": wall_s}
        if code != 0:
            failures.append(cfg.stem)
    Path(args.out_root).mkdir(parents=True, exist_ok=True)
    (Path(args.out_root) / "timings.json").write_text(json.dumps(timings, indent=1) + "\n")
    if failures:
        print(f"failed experiments: {', '.join(failures)}")
        return 1
    print("all experiments passed")
    return 0


if __name__ == "__main__":
    sys.exit(run())
