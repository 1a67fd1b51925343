"""Output checks and an independent misclustered-rate scorer.

The scorer shares no code with ``sscluster.metrics``: it builds the
confusion matrix with ``np.bincount`` and matches labels with
``scipy.optimize.linear_sum_assignment`` on the zero-padded square matrix,
so an estimate with more or fewer than K communities is scored too.
"""

from __future__ import annotations

import re

import numpy as np
from scipy.optimize import linear_sum_assignment


class CheckError(Exception):
    """An operation's output failed a check."""


def misclustered_rate(zhat: np.ndarray, z: np.ndarray) -> float:
    """Smallest fraction of disagreeing labels over all relabelings of zhat.

    Labels are 1-based; the confusion matrix is padded to the larger of
    the two label counts.
    """
    zhat = np.asarray(zhat, dtype=np.int64)
    z = np.asarray(z, dtype=np.int64)
    k = int(max(zhat.max(), z.max()))
    m = np.bincount((zhat - 1) * k + (z - 1), minlength=k * k).reshape(k, k)
    rows, cols = linear_sum_assignment(m, maximize=True)
    return 1.0 - int(m[rows, cols].sum()) / len(z)


def read_label_file(path, n_nodes: int, k: int) -> np.ndarray:
    """Labels from a "node_id label" file that must name every node in
    0..n_nodes-1 exactly once, with labels in 1..k."""
    rows = np.loadtxt(path, dtype=np.int64, ndmin=2)
    if rows.shape != (n_nodes, 2):
        raise CheckError(f"{path}: {rows.shape[0]} rows, expected {n_nodes}")
    ids, labels = rows[:, 0], rows[:, 1]
    if not np.array_equal(np.sort(ids), np.arange(n_nodes)):
        raise CheckError(f"{path}: node ids are not 0..{n_nodes - 1}, each once")
    if labels.min() < 1 or labels.max() > k:
        raise CheckError(f"{path}: labels outside 1..{k}")
    z = np.empty(n_nodes, dtype=np.int64)
    z[ids] = labels
    return z


def check_cluster_output(prefix: str, truth_path: str, n: int, stdout: str,
                         metrics, sbm) -> float:
    """Check a ``sscluster cluster`` run's label and sample files and return
    the misclustered rate of its labels against the planted truth.

    ``metrics`` and ``sbm`` are the package modules; the rate must equal
    ``metrics.misclustered_rate`` on the same two label files.
    """
    found = re.search(r"\bK=(\d+)\b", stdout)
    if found is None:
        raise CheckError("cluster printed no K=")
    k = int(found.group(1))
    truth = np.loadtxt(truth_path, dtype=np.int64, ndmin=2)[:, 1]
    n_nodes = len(truth)
    zhat = read_label_file(f"{prefix}.labels", n_nodes, k)

    sample = np.loadtxt(f"{prefix}.sample", dtype=np.int64, ndmin=1)
    if len(sample) != n or len(np.unique(sample)) != n:
        raise CheckError(f"{prefix}.sample: expected {n} distinct ids")
    if sample.min() < 0 or sample.max() >= n_nodes:
        raise CheckError(f"{prefix}.sample: ids outside 0..{n_nodes - 1}")

    rate = misclustered_rate(zhat, truth)
    lib_rate = metrics.misclustered_rate(
        sbm.read_labels(f"{prefix}.labels"), sbm.read_labels(truth_path), max(k, 3))
    if rate != lib_rate:
        raise CheckError(f"rate {rate!r} != metrics.misclustered_rate {lib_rate!r}")
    return rate


def check_sweep_output(path: str, expected_trials: int, bench) -> float:
    """Check a ``sscluster bench`` CSV and return the mean TRIAL rate."""
    trials = [r for r in bench.read_records_csv(path) if r["row_type"] == "TRIAL"]
    if len(trials) != expected_trials:
        raise CheckError(f"{path}: {len(trials)} TRIAL rows, expected {expected_trials}")
    try:
        rates = [float(r["rate"]) for r in trials]
    except ValueError as exc:
        raise CheckError(f"{path}: unreadable rate ({exc})") from None
    if not all(0.0 <= r <= 1.0 for r in rates):
        raise CheckError(f"{path}: a TRIAL rate lies outside [0, 1]")
    return sum(rates) / len(rates)
