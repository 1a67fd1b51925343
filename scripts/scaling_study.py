#!/usr/bin/env python3
"""Wall-clock scaling of the subsampled pipeline versus network size.

Holds the subsample size fixed, sweeps N, and fits a log-log slope of the
total pipeline time (near 1 expected: the work grows linearly in N at
fixed n). Optionally times the full-network baseline (Lanczos top-K
eigensolve and k-means) at the largest N for a speedup ratio.

Usage:
    python scripts/scaling_study.py
    python scripts/scaling_study.py --sizes 2000,4000,8000,16000 --trials 9
    python scripts/scaling_study.py --with-full-baseline
"""

import argparse

import numpy as np

from sscluster import bench, sampling, sbm
from sscluster.bench import _stage, run_full_sc, run_ssc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=lambda s: tuple(int(x) for x in s.split(",")),
                    default=(2000, 4000, 8000))
    ap.add_argument("--n", type=int, default=100)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--beta", type=float, default=0.02)
    ap.add_argument("--zeta", type=float, default=0.05)
    ap.add_argument("--trials", type=int, default=7)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--method", choices=("srs", "dcs"), default="srs")
    ap.add_argument("--with-full-baseline", action="store_true")
    ap.add_argument("--out", type=str, default=None, help="records CSV path")
    args = ap.parse_args()

    B = sbm.block_matrix(args.beta, args.zeta, args.k)
    records = []
    largest_graph = None
    for N in args.sizes:
        for trial in range(args.trials):
            seed = bench.derive_seed(args.seed, "scaling", N, trial)
            rng = np.random.default_rng(seed)
            z = sbm.sample_memberships([1 / args.k] * args.k, N, rng)
            g = sbm.generate_adjacency(z, B, rng)
            times = {}
            with _stage(times, "sampling"):
                s = sampling.draw(args.method, g, args.n, args.k, rng)
            _, _, pipeline_times = run_ssc(g, s, args.k, rng)
            times.update(pipeline_times)
            records.append(bench.TrialRecord.from_times(
                times, scenario="scaling", cell=args.sizes.index(N), N=N,
                n=args.n, K=args.k, beta=args.beta, zeta=args.zeta, delta=0.0,
                method=args.method, trial=trial, seed=seed, rate=0.0,
            ))
            if N == max(args.sizes) and trial == 0:
                largest_graph = g

    summary = bench.timing_summary(records)
    for row in summary["rows"]:
        print(f"N={row['N']:>6} n={row['n']}: total {row['t_total']*1e3:8.2f} ms "
              f"(sampling {row['t_sampling']*1e3:.2f}, laplacian "
              f"{row['t_laplacian']*1e3:.2f}, eig {row['t_eig']*1e3:.2f}, "
              f"kmeans {row['t_kmeans']*1e3:.2f})")
    slope = summary["slopes"][args.method]
    print(f"log-log slope of total time vs N: {slope:.3f}")

    if args.with_full_baseline:
        N_max = max(args.sizes)
        _, _, times = run_full_sc(largest_graph, args.k,
                                  np.random.default_rng(args.seed))
        t_full = sum(times.values())
        ssc_at_max = [r.t_total for r in records if r.N == N_max]
        print(f"full SC at N={N_max}: {t_full:.2f} s; subsampled pipeline "
              f"at N={N_max}: {np.median(ssc_at_max)*1e3:.1f} ms")

    if args.out:
        bench.write_records_csv(records, args.out)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
