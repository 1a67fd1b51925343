"""Self-tests of the benchmark's own code: scorer, span arithmetic, output
checks and the restoring of traced module attributes.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from sscluster import cli, metrics, sbm  # noqa: E402


def test_scorer_matches_library_on_random_labels():
    rng = np.random.default_rng(0)
    for trial in range(300):
        n = int(rng.integers(1, 60))
        k_hat = int(rng.integers(1, 7))
        z = rng.integers(1, 4, size=n)
        zhat = rng.integers(1, k_hat + 1, size=n)
        assert checks.misclustered_rate(zhat, z) == metrics.misclustered_rate(zhat, z, 3)


@pytest.mark.parametrize("k_hat", [1, 2, 5])
def test_scorer_with_estimated_k_other_than_three(k_hat):
    z = np.repeat([1, 2, 3], 10)
    zhat = (np.arange(30) % k_hat) + 1
    expected = metrics.misclustered_rate(zhat, z, 3, method="assignment")
    assert checks.misclustered_rate(zhat, z) == expected


def test_scorer_ignores_label_names():
    z = np.array([1, 1, 2, 2, 3, 3])
    assert checks.misclustered_rate(np.array([3, 3, 1, 1, 2, 2]), z) == 0.0
    assert checks.misclustered_rate(np.array([3, 3, 1, 1, 2, 1]), z) == pytest.approx(1 / 6)


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
    t = spans.Tracer(clock=_fake_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    with t.span("root"):
        with t.span("a"):
            with t.span("a1"):
                pass
        with t.span("b"):
            pass
    totals = spans.layer_totals(t.spans)
    assert totals["root"] == {"s": 10, "self_s": 3, "calls": 1}
    assert totals["a"] == {"s": 3, "self_s": 2, "calls": 1}
    assert totals["a1"] == {"s": 1, "self_s": 1, "calls": 1}
    assert totals["b"] == {"s": 4, "self_s": 4, "calls": 1}


def _originals():
    return [(m, a, getattr(m, a)) for m, a, _, _ in run.trace_targets()]


def test_traced_run_restores_every_attribute(tmp_path):
    before = _originals()
    edges, truth, out = tmp_path / "g.edges", tmp_path / "t.labels", tmp_path / "r"
    t = spans.Tracer()
    with t.installed(run.trace_targets()):
        assert all(getattr(m, a) is not f for m, a, f in before)
        assert cli.main(["generate", "--nodes", "300", "--beta", "0.3", "--seed", "1",
                         "--out", str(edges), "--labels-out", str(truth)]) == 0
        assert cli.main(["cluster", "--edges", str(edges), "--method", "srs",
                         "--n", "40", "--k", "auto", "--seed", "1", "--out", str(out)]) == 0
    assert all(getattr(m, a) is f for m, a, f in before)
    totals = spans.layer_totals(t.spans)
    assert totals["spectral.symmetric_eig"]["calls"] == 2 + 1  # k=auto, embed, full SC
    assert totals["graph.read_edge_list"]["calls"] == 1
    assert t.counters["graph.edges"] > 0


def test_restored_after_error():
    before = _originals()
    with pytest.raises(RuntimeError):
        with spans.Tracer().installed(run.trace_targets()):
            raise RuntimeError("boom")
    assert all(getattr(m, a) is f for m, a, f in before)


def _cluster_files(tmp_path):
    truth = tmp_path / "t.labels"
    sbm.write_labels(np.array([1, 1, 2, 2, 3, 3]), truth)
    (tmp_path / "r.labels").write_text("0 2\n1 2\n2 1\n3 1\n4 3\n5 1\n")
    (tmp_path / "r.sample").write_text("4\n0\n")
    return str(tmp_path / "r"), str(truth)


def test_cluster_check_accepts_good_output(tmp_path):
    prefix, truth = _cluster_files(tmp_path)
    rate = checks.check_cluster_output(prefix, truth, 2, "N=6 K=3", metrics, sbm)
    assert rate == pytest.approx(1 / 6)


@pytest.mark.parametrize("labels, sample, n, stdout", [
    ("0 2\n1 2\n2 1\n3 1\n4 3\n", "4\n0\n", 2, "K=3"),        # node 5 missing
    ("0 2\n1 2\n2 1\n3 1\n4 3\n4 1\n", "4\n0\n", 2, "K=3"),   # node 4 twice
    ("0 2\n1 2\n2 1\n3 1\n4 3\n5 4\n", "4\n0\n", 2, "K=3"),   # label above K
    ("0 2\n1 2\n2 1\n3 1\n4 3\n5 1\n", "4\n4\n", 2, "K=3"),   # repeated sample id
    ("0 2\n1 2\n2 1\n3 1\n4 3\n5 1\n", "4\n6\n", 2, "K=3"),   # sample id out of range
    ("0 2\n1 2\n2 1\n3 1\n4 3\n5 1\n", "4\n0\n", 3, "K=3"),   # wrong sample size
    ("0 2\n1 2\n2 1\n3 1\n4 3\n5 1\n", "4\n0\n", 2, ""),      # no K printed
])
def test_cluster_check_rejects_bad_output(tmp_path, labels, sample, n, stdout):
    prefix, truth = _cluster_files(tmp_path)
    Path(f"{prefix}.labels").write_text(labels)
    Path(f"{prefix}.sample").write_text(sample)
    with pytest.raises(checks.CheckError):
        checks.check_cluster_output(prefix, truth, n, stdout, metrics, sbm)


def test_sweep_check(tmp_path):
    from sscluster import bench

    path = tmp_path / "s4.csv"
    assert cli.main(["bench", "s4", "--trials", "1", "--nodes", "300", "--n", "30",
                     "--out", str(path)]) == 0
    assert 0.0 <= checks.check_sweep_output(str(path), 4 * 2, bench) <= 1.0
    with pytest.raises(checks.CheckError):
        checks.check_sweep_output(str(path), 4 * 2 + 1, bench)


def test_benchmark_json_names_match_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in run.LAYER_METRICS]
