"""Command-line interface.

Subcommands:
    generate   sample an SBM network to an edge-list file (+ labels)
    cluster    subsampled spectral clustering of an edge-list file
    bench      run a simulation sweep (s1..s4) and write the records CSV
    eval       misclustered rate between two label files

Each ``bench`` flag sets one ``bench.ScenarioConfig`` field; ``_BENCH_FLAGS``
gives its field, value parser and help. There is no ``--k``: sweeps plant
``bench.SWEEP_K`` = 3 communities. ``generate``, ``cluster`` and ``bench``
check their output paths with ``check_output_path`` before any work.

``bench`` and ``metrics`` are imported by the handlers that use them, so
``generate`` loads numpy only.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import graph, sbm


def check_output_path(name: str, path: str) -> None:
    """Raise ValueError, naming ``name``, unless ``path`` can be created."""
    if not path or os.path.isdir(path):
        raise ValueError(f"{name}: must name a file, got {path!r}")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError(f"{name}: {os.path.dirname(path)} is not a directory")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--out", type=str, default=None, help="output path")


def _parse_pi(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.replace(",", " ").split())


def _grid(parse):
    """Parser of a comma- or space-separated list of at least one value."""
    def parse_grid(text: str) -> tuple:
        values = tuple(parse(x) for x in text.replace(",", " ").split())
        if not values:
            raise ValueError("needs at least one value")
        return values
    return parse_grid


def _parse_methods(text: str) -> tuple[str, ...]:
    if text not in ("srs", "dcs", "both"):
        raise ValueError(f"must be srs, dcs or both, got {text!r}")
    return ("srs", "dcs") if text == "both" else (text,)


# The bench scenarios: bench.SWEEPS's keys, stated here so that building
# the parser does not import bench.
_SCENARIOS = ("s1", "s2", "s3", "s4")

# bench settings: flag -> (ScenarioConfig field, value parser, help).
_BENCH_FLAGS = {
    "nodes": ("N", _grid(int), "network size, one value or a list"),
    "n": ("n", _grid(int), "subsample size, one value or a list"),
    "beta": ("beta", _grid(float), None), "zeta": ("zeta", _grid(float), None),
    "delta": ("delta", _grid(float), "s4 imbalance, one value or a list"),
    "pi": ("pi", _parse_pi, "community probabilities, e.g. '0.3,0.3,0.4'"),
    "trials": ("trials", int, None), "jobs": ("jobs", int, None),
    "seed": ("master_seed", int, "master seed"), "out": ("out", str, "output path"),
    "method": ("methods", _parse_methods, "srs, dcs or both"),
}


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

    b = sub.add_parser("bench", help="run a simulation sweep")
    b.add_argument("scenario", choices=_SCENARIOS)
    # Values stay text until _bench_config parses them, so that a bad one
    # is one "config error:" line that names its flag.
    for flag, (_, _, help_text) in _BENCH_FLAGS.items():
        b.add_argument(f"--{flag}", default=None, help=help_text)

    e = sub.add_parser("eval", help="misclustered rate between two label files")
    e.add_argument("predicted", type=str)
    e.add_argument("reference", type=str)

    return ap


def cmd_generate(args) -> int:
    out = args.out or "network.edges"
    check_output_path("out", out)
    if args.labels_out:
        check_output_path("labels-out", args.labels_out)
    rng = np.random.default_rng(args.seed)
    B = sbm.block_matrix(args.beta, args.zeta, args.k)  # checks k >= 1 first
    pi = sbm.community_probs(args.pi, args.k)
    z = sbm.sample_memberships(pi, args.nodes, rng)
    g = sbm.generate_adjacency(z, B, rng)
    graph.write_edge_list(g, out)
    print(f"wrote {g.n_nodes} nodes, {g.n_edges} edges to {out}")
    if args.labels_out:
        sbm.write_labels(z, args.labels_out)
        print(f"wrote labels to {args.labels_out}")
    return 0


def cmd_cluster(args) -> int:
    from . import bench

    if args.k == "auto":
        k = "auto"
    elif args.k.isdecimal():
        k = int(args.k)
    else:
        raise ValueError(f"--k must be an integer or 'auto', got {args.k!r}")
    if args.method != "full" and args.n is None:
        raise ValueError("--n is required unless --method full")
    if args.method == "full" and args.n is not None:
        raise ValueError("--n does not apply to --method full")
    if k == "auto" and args.n is not None and args.n < 2:
        # The eigengap compares two eigenvalues of the n x n Gram matrix.
        raise ValueError(f"--k auto needs --n >= 2, got --n {args.n}")
    out_prefix = args.out or "cluster_out"
    check_output_path("out", f"{out_prefix}.labels")
    summary = bench.run_real(
        args.edges, n=args.n, k=k, method=args.method, seed=args.seed,
        out_prefix=out_prefix, n_nodes=args.nodes)
    sampled = summary["sample"] is not None
    print(f"N={summary['N']} edges={summary['n_edges']} n={summary['n']} "
          f"K={summary['K']} method={summary['method']}")
    if summary["n_self_loops_dropped"]:
        print(f"self-loops dropped: {summary['n_self_loops_dropped']}")
    if sampled:
        print(f"nodes with no connection to the sample: "
              f"{summary['n_disconnected_from_sample']}")
    print("stages: " + ", ".join(f"{name} {t:.3f}s"
                                 for name, t in summary["times"].items()))
    if "disagreement_rate" in summary:
        print(f"disagreement rate vs full SC: {summary['disagreement_rate']:.4f}")
    print(f"labels -> {out_prefix}.labels"
          + (f", sample -> {out_prefix}.sample" if sampled else "")
          + (f", idmap -> {out_prefix}.idmap" if summary["relabeled"] else ""))
    return 0


def _bench_config(args):
    """The scenario's ``bench.ScenarioConfig``: its defaults, then the flags."""
    from . import bench

    cfg = bench.ScenarioConfig(scenario=args.scenario, out=f"bench_{args.scenario}.csv")
    for flag, (field, parse, _) in _BENCH_FLAGS.items():
        if (text := getattr(args, flag)) is not None:
            try:
                setattr(cfg, field, parse(text))
            except ValueError as exc:
                raise ValueError(f"{flag}: {exc}") from None
    return cfg


def cmd_bench(args) -> int:
    from . import bench

    try:
        cfg = _bench_config(args)
        records = bench.run_scenario(cfg)
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
    from . import metrics

    zhat = sbm.read_labels(args.predicted)
    z = sbm.read_labels(args.reference)
    if len(zhat) != len(z):
        raise ValueError("label files cover different node sets")
    rate = metrics.misclustered_rate(zhat, z, int(max(zhat.max(), z.max())))
    print(f"misclustered rate: {rate:.6f}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "cluster": cmd_cluster,
        "bench": cmd_bench,
        "eval": cmd_eval,
    }
    try:
        return handlers[args.command](args)
    # MemoryError: a size too large to allocate, e.g. --nodes 10**15.
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
