"""End-to-end benchmark of ``sscluster`` CLI runs, with a per-layer traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Each operation is one ``sscluster.cli.main`` call, made in this
process. Inputs come from ``--seed``; operations repeat (each one on the
same inputs, with the same arguments) until ``--seconds`` have passed, and
every output is checked. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. A JSON record of the run, with the environment, is kept under
``.perfbench_work/results/``. See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_TIMEOUT_S = 150

# A set-up repetition runs in a fresh interpreter, so its time includes the
# imports a user's `sscluster` process pays, and its memory stays out of
# this process's peak RSS.
_SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import sscluster.cli as cli; "
    "sys.exit(cli.main(sys.argv[2:]) if len(sys.argv) > 2 else 0)"
)


@dataclass(frozen=True)
class Workload:
    kind: str                    # "file": generate, then cluster the file; "sweep": bench
    setup: tuple[str, ...]       # `sscluster generate` flags (file workloads)
    op: tuple[str, ...]          # CLI arguments of one operation, before seed and paths
    setup_repeats: int
    n: int = 0                   # subsample size a cluster op must write
    trials: int = 0              # TRIAL rows a sweep op must write


WORKLOADS = {
    "cluster_file_30k": Workload(
        kind="file",
        setup=("--nodes", "30000", "--k", "3", "--beta", "0.01", "--zeta", "0.05"),
        op=("cluster", "--method", "srs", "--n", "200", "--k", "auto"),
        setup_repeats=3, n=200),
    "cluster_file_5k_full": Workload(
        kind="file",
        setup=("--nodes", "5000", "--k", "3", "--beta", "0.1", "--zeta", "0.05"),
        op=("cluster", "--method", "dcs", "--n", "150", "--k", "auto"),
        setup_repeats=3, n=150),
    # Desk defaults of s4: N=2000, n=100, 4 cells x 20 trials, srs and dcs.
    "sweep_s4": Workload(
        kind="sweep", setup=(), op=("bench", "s4", "--jobs", "1"),
        setup_repeats=5, trials=4 * 20 * 2),
}

# Per-layer metrics: (name, unit, source). Sources: ("span", name, stat)
# per operation, ("setup", name, stat) per set-up, ("count", counter) per
# operation, ("mean", counter, span) per call of that span, ("run", key).
LAYER_METRICS = [
    ("cli.main.self_s", "s", ("span", "cli.main", "self_s")),
    ("bench.run_real.self_s", "s", ("span", "bench.run_real", "self_s")),
    ("bench.run_ssc.self_s", "s", ("span", "bench.run_ssc", "self_s")),
    ("bench.run_full_sc.self_s", "s", ("span", "bench.run_full_sc", "self_s")),
    ("bench.write_records_csv.s", "s", ("span", "bench.write_records_csv", "s")),
    ("graph.graph_from_file.self_s", "s", ("span", "graph.graph_from_file", "self_s")),
    ("graph.read_edge_list.s", "s", ("span", "graph.read_edge_list", "s")),
    ("graph.from_edge_list.s", "s", ("span", "graph.from_edge_list", "s")),
    ("graph.edges", "count", ("count", "graph.edges")),
    ("graph.bi_adjacency.s", "s", ("span", "graph.bi_adjacency", "s")),
    ("graph.write_edge_list.s", "s", ("span", "graph.write_edge_list", "s")),
    ("sbm.generate_adjacency.self_s", "s", ("span", "sbm.generate_adjacency", "self_s")),
    ("sbm.write_labels.s", "s", ("span", "sbm.write_labels", "s")),
    ("sampling.srs.s", "s", ("span", "sampling.srs", "s")),
    ("sampling.dcs.self_s", "s", ("span", "sampling.dcs", "self_s")),
    ("kmeans.kmeans_1d.s", "s", ("span", "kmeans.kmeans_1d", "s")),
    ("sampling.coverage_event.s", "s", ("span", "sampling.coverage_event", "s")),
    ("sampling.write_sample.s", "s", ("span", "sampling.write_sample", "s")),
    ("spectral.subsampled_laplacian.s", "s", ("span", "spectral.subsampled_laplacian", "s")),
    ("spectral.zero_row_frac", "frac", ("mean", "spectral.zero_rows", "spectral.subsampled_laplacian")),
    ("spectral.subsampled_spectrum.self_s", "s", ("span", "spectral.subsampled_spectrum", "self_s")),
    ("spectral.select_k.s", "s", ("span", "spectral.select_k", "s")),
    ("spectral.embed.self_s", "s", ("span", "spectral.embed", "self_s")),
    ("spectral.gram.s", "s", ("span", "spectral.gram", "s")),
    ("spectral.symmetric_eig.s", "s", ("span", "spectral.symmetric_eig", "s")),
    ("spectral.symmetric_eig.calls", "count", ("span", "spectral.symmetric_eig", "calls")),
    ("spectral.full_laplacian.s", "s", ("span", "spectral.full_laplacian", "s")),
    ("spectral.full_embed.s", "s", ("span", "spectral.full_embed", "s")),
    ("spectral.full_embed.self_s", "s", ("span", "spectral.full_embed", "self_s")),
    ("kmeans.kmeans.s", "s", ("span", "kmeans.kmeans", "s")),
    ("kmeans.kmeans.calls", "count", ("span", "kmeans.kmeans", "calls")),
    ("kmeans.kmeans.iterations", "count", ("mean", "kmeans.iterations", "kmeans.kmeans")),
    ("kmeans.kmeans.converged_frac", "frac", ("mean", "kmeans.converged", "kmeans.kmeans")),
    ("metrics.misclustered_rate.s", "s", ("span", "metrics.misclustered_rate", "s")),
    ("setup.cli.main.self_s", "s", ("setup", "cli.main", "self_s")),
    ("setup.sbm.generate_adjacency.self_s", "s", ("setup", "sbm.generate_adjacency", "self_s")),
    ("setup.graph.from_edge_list.s", "s", ("setup", "graph.from_edge_list", "s")),
    ("setup.graph.write_edge_list.s", "s", ("setup", "graph.write_edge_list", "s")),
    ("setup.sbm.write_labels.s", "s", ("setup", "sbm.write_labels", "s")),
    ("rate", "frac", ("run", "rate")),
    ("fail_frac", "frac", ("run", "fail_frac")),
    ("trace.untraced_op_s", "s", ("run", "untraced_op_s")),
    ("trace.traced_op_s", "s", ("run", "traced_op_s")),
    ("trace.overhead_s", "s", ("run", "overhead_s")),
]


def trace_targets():
    """The module attributes a traced operation wraps, as
    ``(module, attr, span name, observe)``.

    A function is wrapped where its caller looks it up: ``bench`` imported
    ``kmeans`` by name, and ``sbm`` imported ``from_edge_list``, so those
    names are wrapped in the importing module.
    """
    from sscluster import bench, cli, graph, metrics, sampling, sbm, spectral

    def edges(t, g):
        t.count("graph.edges", g.n_edges)

    def zero_rows(t, ls):
        t.count("spectral.zero_rows", ls.n_zero_rows / ls.shape[0])

    def kmeans_result(t, km):
        t.count("kmeans.iterations", km.iterations)
        t.count("kmeans.converged", float(km.converged))

    return [
        (cli, "main", "cli.main", None),
        (bench, "run_real", "bench.run_real", None),
        (bench, "run_ssc", "bench.run_ssc", None),
        (bench, "run_full_sc", "bench.run_full_sc", None),
        (bench, "write_records_csv", "bench.write_records_csv", None),
        (bench, "kmeans", "kmeans.kmeans", kmeans_result),
        (graph, "graph_from_file", "graph.graph_from_file", None),
        (graph, "read_edge_list", "graph.read_edge_list", None),
        (graph, "from_edge_list", "graph.from_edge_list", edges),
        (sbm, "from_edge_list", "graph.from_edge_list", edges),
        (graph, "bi_adjacency", "graph.bi_adjacency", None),
        (graph, "write_edge_list", "graph.write_edge_list", None),
        (sbm, "generate_adjacency", "sbm.generate_adjacency", None),
        (sbm, "write_labels", "sbm.write_labels", None),
        (sampling, "srs", "sampling.srs", None),
        (sampling, "dcs", "sampling.dcs", None),
        (sampling, "kmeans_1d", "kmeans.kmeans_1d", None),
        (sampling, "coverage_event", "sampling.coverage_event", None),
        (sampling, "write_sample", "sampling.write_sample", None),
        (spectral, "subsampled_laplacian", "spectral.subsampled_laplacian", zero_rows),
        (spectral, "subsampled_spectrum", "spectral.subsampled_spectrum", None),
        (spectral, "select_k", "spectral.select_k", None),
        (spectral, "embed", "spectral.embed", None),
        (spectral, "gram", "spectral.gram", None),
        (spectral, "symmetric_eig", "spectral.symmetric_eig", None),
        (spectral, "full_laplacian", "spectral.full_laplacian", None),
        (spectral, "full_embed", "spectral.full_embed", None),
        (metrics, "misclustered_rate", "metrics.misclustered_rate", None),
    ]


def environment(workload: str, seed: int, trace: int, seconds: int) -> dict:
    """Versions, cores, BLAS build and thread settings, commit and seed."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, check=False)
            commit = proc.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    return {
        "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "machine": platform.machine(),
    }


class Runner:
    """One workload at one seed, in a scratch directory of its own."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.w, self.seed, self.dir = WORKLOADS[name], seed, workdir
        self.op_times: list[float] = []
        self.rates: list[float] = []
        self.failures: list[str] = []

    def setup_argv(self) -> list[str]:
        if self.w.kind != "file":
            return []
        return ["generate", *self.w.setup, "--seed", str(self.seed),
                "--out", str(self.dir / "net.edges"),
                "--labels-out", str(self.dir / "truth.labels")]

    def op_argv(self) -> list[str]:
        if self.w.kind == "file":
            return [*self.w.op, "--edges", str(self.dir / "net.edges"),
                    "--seed", str(self.seed), "--out", str(self.dir / "result")]
        return [*self.w.op, "--seed", str(self.seed), "--out", str(self.dir / "sweep.csv")]

    def timed_setups(self) -> list[float]:
        """Each repetition generates the same inputs in a fresh interpreter."""
        times = []
        for _ in range(self.w.setup_repeats):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", _SETUP_CODE, str(SRC), *self.setup_argv()],
                cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
            times.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up failed ({proc.returncode}): {proc.stderr.strip()}")
        return times

    def op(self, tracer=None) -> float:
        """One checked operation; returns its wall seconds."""
        from sscluster import bench, cli, metrics, sbm

        argv = self.op_argv()
        out, err = io.StringIO(), io.StringIO()
        error = None
        installed = tracer.installed(trace_targets()) if tracer else contextlib.nullcontext()
        gc.collect()  # start each operation without the previous one's garbage
        t0 = time.perf_counter()
        try:
            with installed, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except (Exception, SystemExit) as exc:  # the program failed: count it, go on
            traceback.print_exc()
            rc, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        self.op_times.append(elapsed)
        if error is None and rc != 0:
            error = f"exit code {rc}: {err.getvalue().strip()}"
        if error is None:
            try:
                if self.w.kind == "file":
                    rate = checks.check_cluster_output(
                        str(self.dir / "result"), str(self.dir / "truth.labels"),
                        self.w.n, out.getvalue(), metrics, sbm)
                else:
                    rate = checks.check_sweep_output(
                        str(self.dir / "sweep.csv"), self.w.trials, bench)
                self.rates.append(rate)
            except (checks.CheckError, OSError, ValueError) as exc:
                error = f"check: {exc}"
        if error is not None:
            self.failures.append(error)
            print(f"operation failed: {error}", file=sys.stderr)
        return elapsed

    def rate(self) -> float:
        return statistics.median(self.rates) if self.rates else 1.0


def run_untraced(r: Runner, seconds: int) -> tuple[dict, dict]:
    """Timed set-ups, then operations back to back until ``seconds`` have
    passed (at least one)."""
    setups = r.timed_setups()
    times = []
    t0 = time.perf_counter()
    while not times or time.perf_counter() - t0 < seconds:
        times.append(r.op())
    metrics = {
        "op_s": (statistics.median(times), "s"),
        "accuracy": (1.0 - r.rate(), "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return metrics, {"setup_times": setups}


def run_traced(r: Runner, seconds: int) -> tuple[dict, dict]:
    """The set-up traced once, in this process; then a warm-up operation, and
    pairs of one untraced and one traced operation until ``seconds`` have
    passed.

    Pairs alternate which one runs first, so a steady drift in the
    machine's speed cancels out of the tracing overhead.
    """
    setup_tracer, op_tracer = spans.Tracer(), spans.Tracer()
    if r.setup_argv():
        from sscluster import cli

        with setup_tracer.installed(trace_targets()), \
                contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(r.setup_argv())
        if rc != 0:
            raise RuntimeError(f"set-up failed ({rc})")
    r.op()
    untraced, traced = [], []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        if len(traced) % 2:
            traced.append(r.op(op_tracer))
            untraced.append(r.op())
        else:
            untraced.append(r.op())
            traced.append(r.op(op_tracer))

    ops = len(traced)
    per_op = spans.layer_totals(op_tracer.spans)
    per_setup = spans.layer_totals(setup_tracer.spans)
    run = {
        "rate": r.rate(),
        "fail_frac": len(r.failures) / len(r.op_times),
        "untraced_op_s": statistics.median(untraced),
        "traced_op_s": statistics.median(traced),
    }
    run["overhead_s"] = run["traced_op_s"] - run["untraced_op_s"]

    metrics = {}
    for name, unit, source in LAYER_METRICS:
        kind = source[0]
        if kind == "span":
            value = per_op.get(source[1], {}).get(source[2], 0) / ops
        elif kind == "setup":
            value = per_setup.get(source[1], {}).get(source[2], 0.0)
        elif kind == "count":
            value = op_tracer.counters.get(source[1], 0.0) / ops
        elif kind == "mean":
            calls = per_op.get(source[2], {}).get("calls", 0)
            value = op_tracer.counters.get(source[1], 0.0) / calls if calls else 0.0
        else:
            value = run[source[1]]
        metrics[name] = (float(value), unit)

    op_total = per_op["cli.main"]["s"]
    shares = {k: v["self_s"] / op_total for k, v in per_op.items()}
    return metrics, {"stage_shares": dict(sorted(shares.items(), key=lambda kv: -kv[1]))}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sscluster" / "__init__.py").is_file():
        print(f"error: no sscluster sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        r = Runner(args.workload, args.seed, workdir)
        run = run_traced if args.trace else run_untraced
        metrics, details = run(r, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not r.failures,
        "attempted": len(r.op_times),
        "failed": len(r.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "environment": environment(args.workload, args.seed, args.trace, args.seconds),
        "op_times": r.op_times, "failures": r.failures, **details, "result": result,
    }
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")

    print("environment: " + json.dumps(record["environment"]))
    for stage, share in details.get("stage_shares", {}).items():
        print(f"self-time share {stage:<34} {share:7.2%}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
