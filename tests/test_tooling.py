"""The benchmark harness under perfbench/ still finds every name it traces,
the test settings report a failing test as a failure, no module keeps an
import it does not use, and no package module keeps a private name that
it does not read itself.

``perfbench/run.py --trace 1`` wraps ``(module, attr)`` pairs of the
package; a renamed or deleted function would only show up there as a
failed traced run, and a call that bypasses a wrapped name only as a
layer metric reading 0. These tests load the harness without running it.
"""

import ast
import importlib.util
import shlex
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


def test_every_workload_command_line_parses(perfbench_run, tmp_path):
    # run.py calls cli.main with fixed flags; a flag renamed or removed
    # here would only show up as every operation of a workload failing.
    from sscluster import cli

    for name in perfbench_run.WORKLOADS:
        runner = perfbench_run.Runner(name, 7, tmp_path)
        for argv in (runner.setup_argv(), runner.op_argv()):
            if not argv:
                continue  # a sweep has no set-up command
            try:
                cli.build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"{name} command does not parse: sscluster {shlex.join(argv)}")


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


def test_sweep_check_passes_on_a_bench_s4_csv(perfbench_run, tmp_path):
    # The sweep check counts every TRIAL row, so a full-SC row in an s4
    # CSV would mark every sweep_s4 operation incorrect.
    import checks  # importable once the fixture has loaded the harness

    from sscluster import bench, cli

    out = tmp_path / "s4.csv"
    assert cli.main(["bench", "s4", "--trials", "1", "--out", str(out)]) == 0
    checks.check_sweep_output(str(out), 4 * 1 * 2, bench)
    assert all(r["method"] != "full" for r in bench.read_records_csv(out))


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


def test_every_module_level_import_is_read():
    # A deletion can leave behind an import that nothing reads any more.
    unused = []
    for path in sorted([*(ROOT / "src" / "sscluster").glob("*.py"),
                        *(ROOT / "tests").glob("*.py")]):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                # `import a.b` binds `a`.
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                unused += [f"{path.relative_to(ROOT)}:{node.lineno}: {name}"
                           for name in bound if name not in read]
    assert unused == []


def test_every_private_module_level_name_is_read_in_its_module():
    # A private helper that its own module no longer reads is dead code,
    # even when a test still calls it. Dunders are exempt.
    unread = []
    for path in sorted((ROOT / "src" / "sscluster").glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [(node.name, node.lineno)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [f"{path.relative_to(ROOT)}:{lineno}: {name}"
                       for name, lineno in defined
                       if name.startswith("_") and not name.startswith("__")
                       and name not in read]
    assert unread == []
