"""Command-line interface.

Subcommands:
    generate   sample an SBM network to an edge-list file (+ labels)
    cluster    subsampled spectral clustering of an edge-list file
    bench      run a simulation sweep (s1..s4) and write the records CSV
    eval       misclustered rate between two label files
    timing     per-stage medians and a log-log slope from a records CSV

Flags override values from an optional "key = value" config file.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bench, graph, metrics, sbm
from .errors import ResourceLimitError


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--out", type=str, default=None, help="output path")


def _parse_pi(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.replace(",", " ").split())


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sscluster",
                                 description="Subsampled spectral clustering toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate an SBM network")
    _add_common(g)
    g.add_argument("--nodes", type=int, required=True, help="network size N")
    g.add_argument("--k", type=int, default=3, help="number of communities")
    g.add_argument("--beta", type=float, default=0.1)
    g.add_argument("--zeta", type=float, default=0.05)
    g.add_argument("--pi", type=_parse_pi, default=None,
                   help="community probabilities, e.g. '0.3,0.3,0.4'")
    g.add_argument("--labels-out", type=str, default=None,
                   help="also write planted labels ('node_id label' lines)")

    c = sub.add_parser("cluster", help="cluster an edge-list file")
    _add_common(c)
    c.add_argument("--edges", type=str, required=True, help="edge-list file")
    c.add_argument("--nodes", type=int, default=None,
                   help="node count (default: inferred from the file)")
    c.add_argument("--method", choices=("srs", "dcs", "full"), default="srs",
                   help="subsampling strategy, or 'full' for the "
                        "whole-network baseline")
    c.add_argument("--n", type=int, default=None,
                   help="subsample size (required unless --method full)")
    c.add_argument("--k", type=str, default="auto",
                   help="community count, integer or 'auto' (eigengap)")
    c.add_argument("--iterative", action="store_true",
                   help="also run the full-SC comparison of a subsampled "
                        f"run above N={bench.FULL_BASELINE_MAX_N}")

    b = sub.add_parser("bench", help="run a simulation sweep")
    _add_common(b)
    # Unset unless given, so that --seed 0 still overrides a config file.
    b.set_defaults(seed=None)
    b.add_argument("scenario", choices=("s1", "s2", "s3", "s4"))
    b.add_argument("--config", type=str, default=None,
                   help="'key = value' config file; flags override it")
    b.add_argument("--trials", type=int, default=None)
    b.add_argument("--jobs", type=int, default=None)
    b.add_argument("--method", choices=("srs", "dcs", "both"), default=None)
    b.add_argument("--n", type=int, default=None, help="fixed subsample size")
    b.add_argument("--nodes", type=int, default=None, help="fixed network size")
    b.add_argument("--k", type=int, default=None)
    b.add_argument("--beta", type=float, default=None)
    b.add_argument("--zeta", type=float, default=None)
    b.add_argument("--pi", type=_parse_pi, default=None)

    e = sub.add_parser("eval", help="misclustered rate between two label files")
    e.add_argument("predicted", type=str)
    e.add_argument("reference", type=str)

    t = sub.add_parser("timing", help="timing summary from a records CSV")
    t.add_argument("records", type=str)
    t.add_argument("--out", type=str, default=None)

    return ap


_CONFIG_KEYS = {
    "trials": int, "jobs": int, "n": int, "nodes": int, "k": int,
    "beta": float, "zeta": float, "seed": int, "out": str, "method": str,
    "pi": _parse_pi, "n_grid": None, "N_grid": None, "delta_grid": None,
    "beta_grid": None, "zeta_grid": None, "full_sc": None,
}


_BOOLS = {"1": True, "true": True, "yes": True,
          "0": False, "false": False, "no": False}


def _apply_config_file(cfg: bench.ScenarioConfig, path) -> bench.ScenarioConfig:
    raw = bench.read_config_file(path)
    for key, value in raw.items():
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown key {key!r}")
        if key == "nodes":
            cfg.N = int(value)
        elif key == "k":
            cfg.K = int(value)
        elif key == "seed":
            cfg.master_seed = int(value)
        elif key == "method":
            cfg.methods = ("srs", "dcs") if value == "both" else (value,)
        elif key == "pi":
            cfg.pi = _parse_pi(value)
        elif key in ("n_grid", "N_grid", "delta_grid", "beta_grid", "zeta_grid"):
            parse = float if key in ("delta_grid", "beta_grid", "zeta_grid") else int
            setattr(cfg, key, tuple(parse(x) for x in value.replace(",", " ").split()))
        elif key == "full_sc":
            if value.lower() not in _BOOLS:
                raise ValueError("full_sc must be one of 1/0/true/false/yes/no, "
                                 f"got {value!r}")
            cfg.full_sc = _BOOLS[value.lower()]
        else:
            setattr(cfg, key, _CONFIG_KEYS[key](value))
    return cfg


def cmd_generate(args) -> int:
    rng = np.random.default_rng(args.seed)
    B = sbm.block_matrix(args.beta, args.zeta, args.k)  # checks k >= 1 first
    pi = args.pi if args.pi else tuple([1.0 / args.k] * args.k)
    z = sbm.sample_memberships(pi, args.nodes, rng)
    g = sbm.generate_adjacency(z, B, rng)
    out = args.out or "network.edges"
    graph.write_edge_list(g, out)
    print(f"wrote {g.n_nodes} nodes, {g.n_edges} edges to {out}")
    if args.labels_out:
        sbm.write_labels(z, args.labels_out)
        print(f"wrote labels to {args.labels_out}")
    return 0


def cmd_cluster(args) -> int:
    if args.k == "auto":
        k = "auto"
    elif args.k.isdigit():
        k = int(args.k)
    else:
        raise ValueError(f"--k must be an integer or 'auto', got {args.k!r}")
    if args.method != "full" and args.n is None:
        raise ValueError("--n is required unless --method full")
    out_prefix = args.out or "cluster_out"
    summary = bench.run_real(
        args.edges, n=args.n, k=k, method=args.method, seed=args.seed,
        out_prefix=out_prefix, n_nodes=args.nodes,
        full_baseline_max_n=None if args.iterative else bench.FULL_BASELINE_MAX_N,
    )
    sampled = summary["sample"] is not None
    print(f"N={summary['N']} edges={summary['n_edges']} n={summary['n']} "
          f"K={summary['K']} method={summary['method']}")
    if sampled:
        print(f"nodes with no connection to the sample: "
              f"{summary['n_disconnected_from_sample']}")
    print("stages: " + ", ".join(f"{name} {t:.3f}s"
                                 for name, t in summary["times"].items()))
    if "disagreement_rate" in summary:
        print(f"disagreement rate vs full SC: {summary['disagreement_rate']:.4f}")
    print(f"labels -> {out_prefix}.labels"
          + (f", sample -> {out_prefix}.sample" if sampled else ""))
    return 0


def _bench_config(args) -> bench.ScenarioConfig:
    """The scenario's defaults, then the config file, then the flags."""
    cfg = bench.default_config(args.scenario)
    if args.config:
        cfg = _apply_config_file(cfg, args.config)
    if args.trials is not None:
        cfg.trials = args.trials
    if args.jobs is not None:
        cfg.jobs = args.jobs
    if args.method is not None:
        cfg.methods = ("srs", "dcs") if args.method == "both" else (args.method,)
    if args.n is not None:
        cfg.n = args.n
    if args.nodes is not None:
        cfg.N = args.nodes
    if args.k is not None:
        cfg.K = args.k
    if args.beta is not None:
        cfg.beta = args.beta
    if args.zeta is not None:
        cfg.zeta = args.zeta
    if args.pi is not None:
        cfg.pi = args.pi
    if args.seed is not None:
        cfg.master_seed = args.seed
    cfg.out = args.out or f"bench_{args.scenario}.csv"
    return cfg


def cmd_bench(args) -> int:
    try:
        cfg = _bench_config(args)
        records = bench.SCENARIOS[args.scenario](cfg)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    aggs = bench.aggregate(records)
    for a in aggs:
        print(f"cell {a['cell']:>3} {a['method']:>4} N={a['N']} n={a['n']} "
              f"beta={a['beta']} zeta={a['zeta']} delta={a['delta']} "
              f"rate={a['rate_mean']:.4f} se={a['rate_se']:.4f}")
    print(f"wrote {cfg.out}")
    return 0


def cmd_eval(args) -> int:
    zhat = sbm.read_labels(args.predicted)
    z = sbm.read_labels(args.reference)
    if len(zhat) != len(z):
        raise ValueError("label files cover different node sets")
    rate = metrics.misclustered_rate(zhat, z, int(max(zhat.max(), z.max())))
    print(f"misclustered rate: {rate:.6f}")
    return 0


def cmd_timing(args) -> int:
    rows = bench.read_records_csv(args.records)
    if rows and not set(bench.COLUMNS) <= rows[0].keys():
        raise ValueError(f"{args.records} is not a bench records CSV")
    records = []
    for r in rows:
        if r["row_type"] != "TRIAL" or not r["rate"]:
            continue
        records.append(bench.TrialRecord(
            scenario=r["scenario"], cell=int(r["cell"]), N=int(r["N"]),
            n=int(r["n"]), K=int(r["K"]), beta=float(r["beta"]),
            zeta=float(r["zeta"]), delta=float(r["delta"]), method=r["method"],
            trial=int(r["trial"]), seed=int(r["seed"]), status=r["status"],
            rate=float(r["rate"]), t_sampling=float(r["t_sampling"]),
            t_laplacian=float(r["t_laplacian"]), t_eig=float(r["t_eig"]),
            t_kmeans=float(r["t_kmeans"]),
        ))
    summary = bench.timing_summary(records)
    if summary is None:
        print("timing summary omitted: need >= 2 distinct N at a fixed n")
        return 0
    for method, slope in sorted(summary["slopes"].items()):
        print(f"{method}: log-log slope of total time vs N = {slope:.3f} "
              f"(n = {summary['n']})")
    if args.out:
        bench.write_timing_csv(summary, args.out)
        print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "cluster": cmd_cluster,
        "bench": cmd_bench,
        "eval": cmd_eval,
        "timing": cmd_timing,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ValueError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
