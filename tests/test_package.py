"""The package's top level, and which parts of scipy (and whether logging)
each command loads.

Each import check runs the CLI in a fresh interpreter, since this test
process has scipy loaded already.
"""

import json
import subprocess
import sys
from pathlib import Path

import sscluster
from sscluster import bench, cli

# Runs ``sscluster.cli.main(argv)`` when given arguments, then prints the
# loaded modules as the last line of standard output.
_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import sscluster.cli
if len(sys.argv) > 2:
    assert sscluster.cli.main(sys.argv[2:]) == 0
print(json.dumps(sorted(sys.modules)))
"""

SRC = str(Path(sscluster.__file__).resolve().parent.parent)


def modules_loaded(*argv) -> set[str]:
    proc = subprocess.run([sys.executable, "-c", _CHILD, SRC, *map(str, argv)],
                          capture_output=True, text=True, timeout=120, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def scipy_modules_loaded(*argv) -> set[str]:
    return {m for m in modules_loaded(*argv) if m.split(".")[0] == "scipy"}


class TestImportOnUse:
    def test_importing_the_cli_loads_no_scipy(self):
        assert scipy_modules_loaded() == set()

    def test_generate_loads_no_scipy(self, tmp_path):
        assert scipy_modules_loaded(
            "generate", "--nodes", "300", "--seed", "1",
            "--out", tmp_path / "g.edges", "--labels-out", tmp_path / "g.labels") == set()

    def test_importing_the_cli_and_generate_load_no_logging(self, tmp_path):
        # The package's logging set-up sits in kmeans, which neither loads.
        assert "logging" not in modules_loaded()
        assert "logging" not in modules_loaded(
            "generate", "--nodes", "300", "--seed", "1", "--out", tmp_path / "g.edges")

    def test_large_subsampled_cluster_loads_neither_optimize_nor_arpack(self, tmp_path):
        edges = tmp_path / "g.edges"
        n_nodes = bench.FULL_BASELINE_MAX_N + 1
        assert cli.main(["generate", "--nodes", str(n_nodes), "--beta", "0.01",
                         "--seed", "2", "--out", str(edges)]) == 0
        loaded = scipy_modules_loaded("cluster", "--edges", edges, "--method", "srs",
                                      "--n", "20", "--k", "3",
                                      "--out", tmp_path / "result")
        assert {"scipy.sparse", "scipy.linalg"} <= loaded
        assert not {m for m in loaded
                    if m.startswith(("scipy.optimize", "scipy.sparse.linalg"))}


class TestPackageExports:
    def test_cli_scenario_choices_are_the_bench_sweeps(self):
        assert cli._SCENARIOS == tuple(bench.SWEEPS)
        for scenario in bench.SWEEPS:
            assert cli.build_parser().parse_args(["bench", scenario]).scenario == scenario
