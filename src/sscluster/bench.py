"""Pipelines, benchmark harness and real-network runs.

``run_ssc`` (subsampled spectral clustering of a drawn sample) and
``run_full_sc`` (the full-network baseline) are the only pipeline
definitions: the scenario sweeps and ``run_real`` (the ``cluster``
command) call them. Each runs three stages: laplacian, eig and kmeans.
The eig stage is ``spectral.embed`` or ``spectral.full_embed``, which
also choose K by the eigengap when asked to. Each pipeline returns its
stage seconds in a ``times`` dict; callers record the stages they own
(sampling, and load and write in ``run_real``) into the same kind of
dict. No other module of the package knows the records CSV schema below:
this one writes the per-trial stage seconds and reads rows back as text
with ``read_records_csv``. Rows, TRIAL, AGG and TREND alike, are dicts
keyed by ``COLUMNS`` names; a column a row lacks is written empty.

Four simulation scenarios sweep network size, subsample size, signal
strength, and community imbalance. ``SWEEPS`` states each scenario's
swept axes (its ``*_grid`` settings); its cells are the product of the
axes N, n, beta, zeta and delta, each a grid or a single value, and its
TREND rows follow its one swept axis (s3 sweeps two and has none). Every
cell passes the model's own checks before any trial runs. Every trial is
driven by a seed derived from (master seed, scenario, cell index, trial
index), so identical configurations reproduce the CSV byte for byte
except for the timing columns.

CSV schema (version header "# sscluster bench csv v1"):
    row_type   TRIAL | AGG | TREND
    scenario   s1..s4 | real
    cell       cell index within the sweep grid
    N, n, K    network size, subsample size, community count
    beta, zeta, delta   SBM signal and imbalance parameters
    method     srs | dcs | full
    trial      trial index within the cell (TRIAL rows)
    seed       derived per-trial seed
    status     ok | degenerate | skipped
    covered    1 if the sample hit every community, else 0
    rate       per-trial misclustered rate (TRIAL rows)
    rate_mean, rate_se   aggregates over the cell (AGG rows)
    trend      per-method monotonicity summary of mean rates (TREND rows)
    t_sampling, t_laplacian, t_eig, t_kmeans   stage seconds (TRIAL rows)
    t_total    their sum (TRIAL rows), its mean over the cell (AGG rows)
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace

import numpy as np

from . import graph, metrics, sampling, sbm, spectral
from .errors import DegenerateInputError
from .kmeans import kmeans

CSV_VERSION = "# sscluster bench csv v1"
COLUMNS = [
    "row_type", "scenario", "cell", "N", "n", "K", "beta", "zeta", "delta",
    "method", "trial", "seed", "status", "covered", "rate",
    "rate_mean", "rate_se", "trend",
    "t_sampling", "t_laplacian", "t_eig", "t_kmeans", "t_total",
]
TIMING_COLUMNS = [col for col in COLUMNS if col.startswith("t_")]

# Largest N at which run_real adds the full-SC comparison by default and
# scenario sweeps add full rows (larger cells are marked skipped).
FULL_BASELINE_MAX_N = 5000

# Degree-partition count of dcs sampling when run_real picks K by eigengap,
# which needs the sample first.
DCS_AUTO_PARTITION_K = 3


def derive_seed(master: int, scenario: str, cell: int, trial: int) -> int:
    """Stable per-trial seed: no correlation across cells or trials."""
    key = f"{master}|{scenario}|{cell}|{trial}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def subsample_size_rule(N: int) -> int:
    """Growth rule for the consistency sweep: ceil(2 * (log N)^2), natural log."""
    return math.ceil(2.0 * math.log(N) ** 2)


@dataclass
class ScenarioConfig:
    """Parameters for one scenario sweep.

    The sweep settings (N through delta_grid) stay None unless given:
    ``run_scenario`` fills in the scenario's desk defaults from ``SWEEPS``
    and rejects a setting the scenario does not read. The full-size
    settings (N up to 30,000, T=100) go through the same fields.
    """

    scenario: str                       # s1 | s2 | s3 | s4
    K: int = 3
    N: int | None = None
    n: int | None = None
    beta: float | None = None
    zeta: float | None = None
    pi: tuple[float, ...] | None = None
    N_grid: tuple[int, ...] | None = None
    n_grid: tuple[int, ...] | None = None
    beta_grid: tuple[float, ...] | None = None
    zeta_grid: tuple[float, ...] | None = None
    delta_grid: tuple[float, ...] | None = None
    trials: int = 20
    master_seed: int = 0
    out: str = "bench.csv"
    jobs: int = 1
    methods: tuple[str, ...] = ("srs", "dcs")
    full_sc: bool = False               # add full-SC baseline rows (1 per cell)


@dataclass(frozen=True)
class _Cell:
    """One grid point of a sweep, fully resolved."""

    index: int
    N: int
    n: int
    beta: float
    zeta: float
    delta: float
    pi: tuple[float, ...]


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

@contextmanager
def _stage(times: dict, name: str):
    """Record the wall seconds of the ``with`` block as ``times[name]``."""
    t0 = time.perf_counter()
    yield
    times[name] = time.perf_counter() - t0


def run_ssc(g: graph.SparseGraph, ids: np.ndarray, K, rng: np.random.Generator):
    """Subsampled spectral clustering of ``g`` from the sampled node ``ids``.

    ``K`` goes to ``spectral.embed``, which may choose it by the eigengap.
    Returns (labels, embedding, times): the embedding's column count is
    the K used, and ``times`` holds the laplacian, eig and kmeans stage
    seconds. An all-zero bi-adjacency (no edges touch the sample) raises
    DegenerateInputError.
    """
    times = {}
    with _stage(times, "laplacian"):
        ls = spectral.subsampled_laplacian(graph.bi_adjacency(g, ids))
    with _stage(times, "eig"):
        emb = spectral.embed(ls, K)
    with _stage(times, "kmeans"):
        km = kmeans(emb.matrix, emb.matrix.shape[1], rng=rng)
    return km.labels, emb, times


def run_full_sc(g: graph.SparseGraph, K, rng: np.random.Generator):
    """Full-network spectral clustering baseline, returning (labels,
    embedding, times) as ``run_ssc`` does.

    ``K`` goes to ``spectral.full_embed``, which may choose it by the
    eigengap of the full Laplacian's top eigenvalues.
    """
    times = {}
    with _stage(times, "laplacian"):
        lap = spectral.full_laplacian(g)
    with _stage(times, "eig"):
        emb = spectral.full_embed(lap, K)
    with _stage(times, "kmeans"):
        km = kmeans(emb.matrix, emb.matrix.shape[1], rng=rng)
    return km.labels, emb, times


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------

def _trial_row(times: dict, **fields) -> dict:
    """A TRIAL row: ``fields``, one t_<stage> value per stage of ``times``
    (0 for a stage that did not run) and t_total, their sum."""
    stages = {col: times.get(col[2:], 0.0) for col in TIMING_COLUMNS[:-1]}
    return {"row_type": "TRIAL", **fields, **stages, "t_total": sum(stages.values())}


def _sbm_trial(scenario: str, cell: _Cell, trial: int, seed: int, K: int,
               methods: tuple[str, ...], with_full: bool) -> list[dict]:
    """Run one seeded replication of a scenario cell.

    Draws labels and a graph, then evaluates each subsampling method (and
    optionally the full-SC baseline) against the planted communities.
    Returns one TRIAL row per method, in the order srs/dcs, then full.
    """
    rng = np.random.default_rng(seed)
    z = sbm.sample_memberships(cell.pi, cell.N, rng)
    B = sbm.block_matrix(cell.beta, cell.zeta, K)
    g = sbm.generate_adjacency(z, B, rng)

    base = dict(scenario=scenario, cell=cell.index, N=cell.N, n=cell.n, K=K,
                beta=cell.beta, zeta=cell.zeta, delta=cell.delta, trial=trial,
                seed=seed)
    rows = []
    for method in methods:
        times = {}
        with _stage(times, "sampling"):
            ids = sampling.draw(method, g, cell.n, K, rng)
        covered = sampling.coverage_event(ids, z, K)
        try:
            labels, _, pipeline_times = run_ssc(g, ids, K, rng)
            times.update(pipeline_times)
            status = "ok"
        except DegenerateInputError:
            # No signal at all (e.g. beta = 0): score the trivial one-block
            # labeling, which sits at chance level for the given pi.
            labels, status = np.ones(cell.N, dtype=np.int64), "degenerate"
        rows.append(_trial_row(
            times, **base, method=method, status=status, covered=int(covered),
            rate=metrics.misclustered_rate(labels, z, K)))

    if with_full:
        times, status, rate = {}, "skipped", None
        if cell.N <= FULL_BASELINE_MAX_N:
            try:
                labels, _, times = run_full_sc(g, K, rng)
                status, rate = "ok", metrics.misclustered_rate(labels, z, K)
            except DegenerateInputError:
                status = "degenerate"
        rows.append(_trial_row(times, **base, method="full", status=status,
                               covered=None, rate=rate))
    return rows


def _run_sweep(cfg: ScenarioConfig, cells: list[_Cell]) -> list[dict]:
    """Execute every (cell, trial), serially or on a process pool.

    Rows come back in (cell, trial) order either way: ``Executor.map``
    returns results in task order.
    """
    tasks = []
    for cell in cells:
        for t in range(cfg.trials):
            seed = derive_seed(cfg.master_seed, cfg.scenario, cell.index, t)
            with_full = cfg.full_sc and t == 0
            tasks.append((cfg.scenario, cell, t, seed, cfg.K, cfg.methods,
                          with_full))

    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            chunks = list(pool.map(_sbm_trial, *zip(*tasks)))
    else:
        chunks = list(itertools.starmap(_sbm_trial, tasks))
    return [row for chunk in chunks for row in chunk]


# ---------------------------------------------------------------------------
# Scenario sweeps
# ---------------------------------------------------------------------------

# The sweep settings each scenario reads, with their desk defaults (pi None:
# uniform over the K communities). Every other sweep setting is rejected.
SWEEPS = {
    "s1": {"N_grid": (1000, 2000, 4000), "beta": 0.1, "zeta": 0.05, "pi": None},
    "s2": {"N": 2000, "n_grid": (100, 300, 500, 700, 900, 1100),
           "beta": 0.03, "zeta": 0.05, "pi": None},
    "s3": {"N": 2000, "n": 100, "beta_grid": (0.05, 0.35, 0.65, 0.95),
           "zeta_grid": (0.05, 0.35, 0.65, 0.95), "pi": None},
    "s4": {"N": 2000, "n": 100, "beta": 0.1, "zeta": 0.05,
           "delta_grid": (0.0, 0.1, 0.2, 0.3)},
}


def default_config(scenario: str) -> ScenarioConfig:
    """Desk-scale defaults: s1 adds the full-SC baseline rows."""
    return ScenarioConfig(scenario=scenario, full_sc=scenario == "s1")


def _sweep_cells(cfg: ScenarioConfig) -> list[_Cell]:
    """The product of the sweep's axes N, n, beta, zeta and delta, in that
    order (delta varies fastest), each the scenario's grid when set, else
    its single value (delta 0). An unset n follows ``subsample_size_rule``
    (s1), and a delta grid sets pi = (1/3 - delta, 1/3, 1/3 + delta) (s4)."""
    if cfg.N_grid is not None and list(cfg.N_grid) != sorted(cfg.N_grid):
        raise ValueError("N grid must be ascending")
    if cfg.delta_grid is not None and cfg.K != 3:
        raise ValueError("the imbalance sweep is defined for K = 3")
    grids = (cfg.N_grid, cfg.n_grid, cfg.beta_grid, cfg.zeta_grid, cfg.delta_grid)
    values = (cfg.N, cfg.n, cfg.beta, cfg.zeta, 0.0)
    axes = [grid if grid is not None else (value,)
            for grid, value in zip(grids, values)]
    return [_Cell(index=i, N=N, n=subsample_size_rule(N) if n is None else n,
                  beta=beta, zeta=zeta, delta=delta,
                  pi=cfg.pi if cfg.delta_grid is None
                  else (1 / 3 - delta, 1 / 3, 1 / 3 + delta))
            for i, (N, n, beta, zeta, delta) in enumerate(itertools.product(*axes))]


def run_scenario(cfg: ScenarioConfig) -> list[dict]:
    """Run ``cfg.scenario``'s sweep, write its CSV to ``cfg.out`` and
    return its TRIAL rows.

    Unset sweep settings take the scenario's defaults from ``SWEEPS``. A
    sweep setting the scenario does not read, or any invalid setting,
    raises ValueError before any trial runs, so no partial CSV is written.
    """
    if cfg.scenario not in SWEEPS:
        raise ValueError(f"unknown scenario {cfg.scenario!r}")
    reads = SWEEPS[cfg.scenario]
    unread = [f.name for f in fields(cfg) if f.default is None
              and f.name not in reads and getattr(cfg, f.name) is not None]
    if unread:
        raise ValueError(f"{cfg.scenario} does not use {', '.join(unread)}")
    cfg = replace(cfg, **{key: value for key, value in reads.items()
                          if getattr(cfg, key) is None})
    if "pi" in reads:
        cfg.pi = sbm.community_probs(cfg.pi, cfg.K)
    if cfg.trials < 1:
        raise ValueError("trials must be >= 1")
    if cfg.jobs < 1:
        raise ValueError("jobs must be >= 1")
    if not cfg.out:
        raise ValueError("out must name a file")
    if not all(m in ("srs", "dcs") for m in cfg.methods):
        raise ValueError(f"methods must be srs/dcs, got {cfg.methods}")

    cells = _sweep_cells(cfg)
    _check_cells(cells, cfg)
    rows = _run_sweep(cfg, cells)
    # TREND rows follow the one axis a scenario sweeps; s3 sweeps two.
    swept = [key.removesuffix("_grid") for key in reads if key.endswith("_grid")]
    trend_axis = swept[0] if len(swept) == 1 else None
    write_records_csv(rows, cfg.out, trend_axis=trend_axis)
    return rows


def _check_cells(cells: list[_Cell], cfg: ScenarioConfig) -> None:
    """Validate every cell against the pipeline preconditions and the
    model's own checks up front, so an invalid config fails before any
    trial runs (no partial CSV)."""
    for c in cells:
        try:
            if not 1 <= c.n <= c.N:
                raise ValueError(f"need 1 <= n <= N, got n={c.n}, N={c.N}")
            if cfg.K > c.n:
                raise ValueError(f"K={cfg.K} exceeds subsample size {c.n}")
            sbm.block_matrix(c.beta, c.zeta, cfg.K)
            sbm.community_probs(c.pi, cfg.K)
        except ValueError as exc:
            raise ValueError(f"cell {c.index}: {exc}") from None


# ---------------------------------------------------------------------------
# Aggregation and CSV
# ---------------------------------------------------------------------------

def aggregate(records: list[dict]) -> list[dict]:
    """AGG rows: mean and standard error of the rate per (cell, method),
    in the order the pairs first occur in ``records``, and the mean
    t_total."""
    groups: dict[tuple[int, str], list[dict]] = {}
    for r in records:
        if r["rate"] is not None:
            groups.setdefault((r["cell"], r["method"]), []).append(r)
    rows = []
    for rs in groups.values():
        rates = np.array([r["rate"] for r in rs])
        se = rates.std(ddof=1) / math.sqrt(len(rates)) if len(rates) > 1 else 0.0
        rows.append({
            "row_type": "AGG",
            **{col: rs[0][col] for col in ("scenario", "cell", "N", "n", "K",
                                           "beta", "zeta", "delta", "method")},
            "status": "degenerate" if any(r["status"] == "degenerate" for r in rs) else "ok",
            "rate_mean": float(rates.mean()), "rate_se": float(se),
            "t_total": float(np.mean([r["t_total"] for r in rs])),
        })
    return rows


def _trend_rows(aggs: list[dict], axis: str) -> list[dict]:
    """One TREND row per method: how its mean rate moves along ``axis``."""
    by_method: dict[str, list[dict]] = {}
    for a in aggs:
        by_method.setdefault(a["method"], []).append(a)
    return [{"row_type": "TREND", "scenario": rows[0]["scenario"],
             "K": rows[0]["K"], "method": method,
             "trend": f"{axis}:{_trend_label([a['rate_mean'] for a in rows])}"}
            for method, rows in by_method.items()]


def _trend_label(means: list[float]) -> str:
    if all(b <= a + 1e-12 for a, b in zip(means, means[1:])):
        return "non-increasing"
    if all(b >= a - 1e-12 for a, b in zip(means, means[1:])):
        return "non-decreasing"
    return "mixed"


# Columns written with 10 significant digits; the timing columns get 6
# decimals and the rest their str().
_G10_COLUMNS = {"beta", "zeta", "delta", "rate", "rate_mean", "rate_se"}


def _csv_text(col: str, value) -> str:
    if value is None:
        return ""
    if col in TIMING_COLUMNS:
        return f"{value:.6f}"
    if col in _G10_COLUMNS:
        return f"{value:.10g}"
    return str(value)


def write_records_csv(records: list[dict], path,
                      trend_axis: str | None = None) -> None:
    """The TRIAL rows ``records``, then their AGG rows and, for sweeps
    along a single axis, a TREND row per method."""
    aggs = aggregate(records)
    trends = _trend_rows(aggs, trend_axis) if trend_axis is not None else []
    with open(path, "w", newline="") as fh:
        fh.write(CSV_VERSION + "\n")
        w = csv.DictWriter(fh, fieldnames=COLUMNS)
        w.writeheader()
        for row in (*records, *aggs, *trends):
            w.writerow({col: _csv_text(col, value) for col, value in row.items()})


def read_records_csv(path) -> list[dict]:
    """Read any bench CSV back as a list of dict rows (strings)."""
    with open(path) as fh:
        first = fh.readline()
        if not first.startswith("#"):
            fh.seek(0)
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# Real-network pipeline
# ---------------------------------------------------------------------------

def run_real(edge_list_path, n: int | None, k, method: str, seed: int,
             out_prefix: str | None = None, n_nodes: int | None = None) -> dict:
    """Cluster a network from an edge-list file.

    ``method`` selects srs/dcs subsampling (size ``n``) or "full" for the
    whole-network baseline (``n`` ignored). ``k`` may be an integer or
    "auto", which the pipeline's embedding resolves by the eigengap.
    Degree-corrected sampling needs a community count before the eigengap
    is available, so with ``k="auto"`` its degree partition uses
    ``DCS_AUTO_PARTITION_K``; the clustering K still comes from the
    eigengap, and the full-SC comparison uses that K. When N is at most
    ``FULL_BASELINE_MAX_N``, subsampled runs also report the disagreement
    rate against full spectral clustering. Nodes with no connection to the
    sample are counted, not fatal, and so are the self-loops the edge list
    held (``n_self_loops_dropped``).

    The summary's ``times`` holds the seconds of every stage that ran:
    load, sampling (subsampled runs only), laplacian, eig, kmeans, full_sc
    (when the comparison runs) and write. The load stage is
    ``graph.graph_from_file``: it parses the text on a first run, and on a
    later run on the same bytes hashes the file and loads and checks the
    graph from the sidecar the first run wrote. The summary's ``sample``
    holds the sampled node ids, or None for ``method="full"``, and its
    ``relabeled`` whether the file's ids were relabeled, which writes the
    id map ``<out_prefix>.idmap``.
    """
    if k != "auto" and (not isinstance(k, int) or k < 1):
        raise ValueError(f"k must be a positive int or 'auto', got {k!r}")
    rng = np.random.default_rng(seed)
    times = {}
    with _stage(times, "load"):
        g, ext_ids = graph.graph_from_file(edge_list_path, n_nodes=n_nodes)
    if method == "full":
        ids = None
        labels, emb, pipeline_times = run_full_sc(g, k, rng)
    else:
        with _stage(times, "sampling"):
            ids = sampling.draw(
                method, g, n, DCS_AUTO_PARTITION_K if k == "auto" else k, rng)
        labels, emb, pipeline_times = run_ssc(g, ids, k, rng)
    times.update(pipeline_times)
    k = emb.matrix.shape[1]

    summary = {
        "N": g.n_nodes, "n_edges": g.n_edges,
        "n_self_loops_dropped": g.n_self_loops_dropped,
        "n": g.n_nodes if ids is None else n, "K": k,
        "method": method, "seed": seed,
        "n_disconnected_from_sample": emb.n_zero_rows,
        "relabeled": ext_ids is not None,
        "times": times,
        "labels": labels,
        "sample": ids,
    }

    if ids is not None and g.n_nodes <= FULL_BASELINE_MAX_N:
        with _stage(times, "full_sc"):
            full_labels, _, _ = run_full_sc(g, k, rng)
        summary["disagreement_rate"] = metrics.misclustered_rate(labels, full_labels, k)

    with _stage(times, "write"):
        if out_prefix:
            sbm.write_labels(labels, f"{out_prefix}.labels")
            if ids is not None:
                sampling.write_sample(ids, f"{out_prefix}.sample")
            if ext_ids is not None:
                graph.write_relabel_map(ext_ids, f"{out_prefix}.idmap")
    return summary


# ---------------------------------------------------------------------------
# Config files: plain "key = value" lines, '#' comments. Flags override.
# ---------------------------------------------------------------------------

def read_config_file(path) -> dict[str, str]:
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out
