#!/usr/bin/env python3
"""Run the four simulation sweeps at desk scale and write one CSV each.

Usage:
    python scripts/run_scenarios.py --out-dir results
    python scripts/run_scenarios.py --scenario s3 --trials 50 --jobs 4
    python scripts/run_scenarios.py --full-scale   # N up to 30,000; slow

The desk defaults finish in a few minutes on one core. --full-scale
switches to the full-size parameter blocks (N up to 30,000, T=100), which
needs patience but no extra memory: the full-network baseline rows of s1
run up to N = 5000 (bench.FULL_BASELINE_MAX_N) and are marked skipped above.
"""

import argparse
import time
from dataclasses import replace
from pathlib import Path

from sscluster import bench


def full_scale(cfg: bench.ScenarioConfig) -> bench.ScenarioConfig:
    if cfg.scenario == "s1":
        return replace(cfg, N_grid=(5000, 10000, 15000, 20000, 25000, 30000),
                       trials=100)
    if cfg.scenario == "s2":
        return replace(cfg, N=12000, trials=100)
    if cfg.scenario == "s3":
        return replace(cfg, N=12000, n=100, trials=100)
    if cfg.scenario == "s4":
        return replace(cfg, N=12000, n=100, trials=100,
                       delta_grid=(0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3))
    return cfg


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", type=Path, default=Path("results"))
    ap.add_argument("--scenario", choices=("s1", "s2", "s3", "s4"), default=None,
                    help="run a single sweep (default: all four)")
    ap.add_argument("--trials", type=int, default=None)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--full-scale", action="store_true")
    args = ap.parse_args()

    args.out_dir.mkdir(parents=True, exist_ok=True)
    scenarios = (args.scenario,) if args.scenario else ("s1", "s2", "s3", "s4")

    for scenario in scenarios:
        cfg = bench.default_config(scenario)
        if args.full_scale:
            cfg = full_scale(cfg)
        if args.trials is not None:
            cfg.trials = args.trials
        cfg.master_seed = args.seed
        cfg.jobs = args.jobs
        cfg.out = str(args.out_dir / f"{scenario}.csv")

        print(f"== {scenario}: trials={cfg.trials} seed={cfg.master_seed} "
              f"jobs={cfg.jobs} -> {cfg.out}")
        t0 = time.perf_counter()
        records = bench.run_scenario(cfg)
        print(f"   {len(records)} trial rows in {time.perf_counter() - t0:.1f}s")
        for a in bench.aggregate(records):
            print(f"   cell {a['cell']:>3} {a['method']:>4} N={a['N']} "
                  f"n={a['n']} beta={a['beta']} zeta={a['zeta']} "
                  f"delta={a['delta']} rate={a['rate_mean']:.4f}"
                  f"({a['rate_se']:.4f})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
