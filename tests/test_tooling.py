"""The benchmark harness under perfbench/ still finds every name it traces,
and the test settings report a failing test as a failure.

``perfbench/run.py --trace 1`` wraps ``(module, attr)`` pairs of the
package; a renamed or deleted function would only show up there as a
failed traced run, and a call that bypasses a wrapped name only as a
layer metric reading 0. These tests load the harness without running it.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sscluster import sampling, sbm

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


@pytest.fixture
def perfbench_run(monkeypatch):
    """perfbench/run.py as a module, with its sibling modules importable."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules while the file runs.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        for name, mod in list(sys.modules.items()):
            if str(getattr(mod, "__file__", "")).startswith(str(PERFBENCH)):
                del sys.modules[name]


def test_every_trace_target_exists(perfbench_run):
    targets = perfbench_run.trace_targets()
    assert targets
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in targets
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_traced_dcs_records_one_kmeans_1d_span(perfbench_run):
    # perfbench wraps `sampling.kmeans_1d`, so dcs must look the name up in
    # its own module; a call bound any other way records no span and the
    # per-layer `kmeans.kmeans_1d.s` metric reads 0.
    import spans  # importable once the fixture has loaded the harness

    rng = np.random.default_rng(0)
    z = sbm.sample_memberships((0.5, 0.5), 60, rng)
    g = sbm.generate_adjacency(z, sbm.block_matrix(0.3, 0.1, 2), rng)
    tracer = spans.Tracer()
    with tracer.installed(perfbench_run.trace_targets()):
        sampling.dcs(g, 12, 2)
    names = [s.name for s in tracer.spans]
    assert names.count("kmeans.kmeans_1d") == 1
    assert names.count("sampling.dcs") == 1


def test_traced_cluster_reaches_every_wrapped_layer(perfbench_run, tmp_path, capsys):
    # A call that routes around a wrapped name records no span, and the
    # per-layer metric of that layer reads 0. N <= FULL_BASELINE_MAX_N, so
    # the full-SC comparison runs too.
    import spans

    from sscluster import cli

    edges, out = tmp_path / "g.edges", tmp_path / "result"
    tracer = spans.Tracer()
    with tracer.installed(perfbench_run.trace_targets()):
        assert cli.main(["generate", "--nodes", "600", "--beta", "0.2",
                         "--seed", "1", "--out", str(edges)]) == 0
        assert cli.main(["cluster", "--edges", str(edges), "--method", "dcs",
                         "--n", "60", "--k", "auto", "--seed", "1",
                         "--out", str(out)]) == 0
    assert "disagreement rate vs full SC" in capsys.readouterr().out
    names = {s.name for s in tracer.spans}
    expected = {"bench.run_ssc", "sampling.dcs", "kmeans.kmeans_1d",
                "graph.bi_adjacency", "spectral.subsampled_laplacian",
                "spectral.subsampled_spectrum", "spectral.select_k",
                "spectral.symmetric_eig", "kmeans.kmeans", "spectral.full_embed",
                "sampling.write_sample"}
    assert expected - names == set()


def test_second_traced_cluster_reads_the_sidecar(perfbench_run, tmp_path):
    # The second run on an unchanged file loads the graph its sidecar holds:
    # the file-workload layers `graph.read_edge_list.s` and
    # `graph.from_edge_list.s` read 0 there, and the load sits in
    # `graph.graph_from_file.self_s`.
    import spans

    from sscluster import cli

    edges = tmp_path / "g.edges"
    assert cli.main(["generate", "--nodes", "600", "--beta", "0.2",
                     "--seed", "1", "--out", str(edges)]) == 0
    argv = ["cluster", "--edges", str(edges), "--method", "srs", "--n", "60",
            "--k", "3", "--seed", "1", "--out", str(tmp_path / "result")]
    names = []
    for _ in range(2):
        tracer = spans.Tracer()
        with tracer.installed(perfbench_run.trace_targets()):
            assert cli.main(argv) == 0
        names.append([s.name for s in tracer.spans])
    cold, warm = names
    assert {"graph.read_edge_list", "graph.from_edge_list"} <= set(cold)
    assert "graph.graph_from_file" in warm
    assert not {"graph.read_edge_list", "graph.from_edge_list"} & set(warm)


def test_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    # Under the repository's warning filters, Hypothesis's failure reporter
    # must not turn a failing test into an INTERNALERROR (exit 3) that
    # stops the rest of the run.
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n\n"
        "def test_passes():\n"
        "    pass\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "-q", str(tmp_path / "test_fails.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
