"""Clustering accuracy: the misclustered rate.

The misclustered rate is the fraction of label disagreements minimized
over all relabelings of the estimate. It is computed from the confusion
matrix as an exact maximum-trace linear assignment.

``misclustered_rate`` imports scipy.optimize when it first runs, so a
command that scores nothing never loads it.
"""

from __future__ import annotations

import numpy as np


def misclustered_rate(zhat: np.ndarray, z: np.ndarray, K: int,
                      method: str = "assignment") -> float:
    """Minimum disagreement fraction over all relabelings of zhat.

    The best relabeling is the maximum-trace assignment on the confusion
    matrix, solved exactly; "assignment" is the only ``method``. The
    matrix has one row per label that occurs in ``zhat`` and one column
    per label that occurs in ``z``, whatever the label values. Rows and
    columns of labels that do not occur would be all zero, and those never
    change the best matching, so estimates using more than K labels are
    handled and K itself never changes the rate.
    """
    if method != "assignment":
        raise ValueError(f"unknown method {method!r}")
    zhat = np.asarray(zhat, dtype=np.int64)
    z = np.asarray(z, dtype=np.int64)
    if zhat.shape != z.shape or zhat.ndim != 1 or zhat.size == 0:
        raise ValueError("label vectors must be 1-d, nonempty, equal length")
    if zhat.min() < 1 or z.min() < 1:
        raise ValueError("labels must be >= 1")

    from scipy.optimize import linear_sum_assignment

    zhat_labels, zhat_idx = np.unique(zhat, return_inverse=True)
    z_labels, z_idx = np.unique(z, return_inverse=True)
    shape = (len(zhat_labels), len(z_labels))
    m = np.bincount(zhat_idx * shape[1] + z_idx,
                    minlength=shape[0] * shape[1]).reshape(shape)
    rows, cols = linear_sum_assignment(-m)
    return 1.0 - int(m[rows, cols].sum()) / len(z)
