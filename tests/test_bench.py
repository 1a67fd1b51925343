import dataclasses
import hashlib
import logging
import math
import os
import re
import shlex
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from sscluster import bench, cli, graph, sampling, sbm, spectral
from sscluster.graph import bi_adjacency, from_edge_list, write_edge_list
from sscluster.kmeans import kmeans
from sscluster.metrics import misclustered_rate
from sscluster.sampling import srs
from sscluster.sbm import block_matrix, generate_adjacency, read_labels, sample_memberships
from sscluster.spectral import (
    embed,
    full_laplacian,
    select_k,
    subsampled_laplacian,
    subsampled_spectrum,
)


ROOT = Path(__file__).resolve().parents[1]


def tiny_cfg(scenario, out, **kw):
    cfg = bench.ScenarioConfig(scenario=scenario, N=(60,))
    if "n" in bench.SWEEPS[scenario]:
        cfg.n = (10,)
    cfg.trials = 2
    cfg.out = str(out)
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


@pytest.fixture
def no_trial(monkeypatch):
    """Fail the test if any trial of a sweep runs."""
    def trial(*args):
        raise AssertionError("a trial ran")
    monkeypatch.setattr(bench, "_sbm_trial", trial)


@pytest.fixture
def swept(monkeypatch):
    """The (config, cells) of each sweep, which runs no trial."""
    calls = []
    monkeypatch.setattr(bench, "_run_sweep",
                        lambda cfg, cells: calls.append((cfg, cells)) or [])
    return calls


class TestSeedDerivation:
    def test_stable(self):
        a = bench.derive_seed(0, "s1", 0, 0)
        assert a == bench.derive_seed(0, "s1", 0, 0)

    def test_distinct_across_cells_and_trials(self):
        seeds = {bench.derive_seed(0, "s1", c, t)
                 for c in range(10) for t in range(10)}
        assert len(seeds) == 100
        assert bench.derive_seed(0, "s1", 0, 0) != bench.derive_seed(0, "s2", 0, 0)
        assert bench.derive_seed(0, "s1", 0, 0) != bench.derive_seed(1, "s1", 0, 0)


class TestSubsampleSizeRule:
    def test_growth_rule_value(self):
        assert bench.subsample_size_rule(5000) == 146

    def test_small_grid(self):
        assert [bench.subsample_size_rule(N) for N in (1000, 2000, 4000)] == [96, 116, 138]


class TestScenario1:
    def test_record_counts(self, tmp_path):
        cfg = tiny_cfg("s1", tmp_path / "s1.csv", N=(60, 80))
        records = bench.run_scenario(cfg)
        trial_srs_dcs = [r for r in records if r["method"] in ("srs", "dcs")]
        assert len(trial_srs_dcs) == 2 * 2 * 2  # cells x trials x methods
        full_rows = [r for r in records if r["method"] == "full"]
        assert len(full_rows) == 2  # one baseline per cell

    def test_n_follows_rule(self, tmp_path):
        cfg = tiny_cfg("s1", tmp_path / "s1.csv", N=(60, 80))
        records = bench.run_scenario(cfg)
        for r in records:
            assert r["n"] == bench.subsample_size_rule(r["N"])

    def test_single_point_grid_valid(self, tmp_path):
        cfg = tiny_cfg("s1", tmp_path / "s1.csv", N=(80,))
        records = bench.run_scenario(cfg)
        assert {r["N"] for r in records} == {80}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rows_keep_the_order_they_are_made_in(self, tmp_path, jobs):
        out = tmp_path / "s1.csv"
        bench.run_scenario(tiny_cfg("s1", out, N=(60, 80), jobs=jobs))
        rows = bench.read_records_csv(out)
        assert [(r["cell"], r["method"]) for r in rows if r["row_type"] == "AGG"] == [
            (cell, method) for cell in ("0", "1") for method in ("srs", "dcs", "full")]

    def test_full_rows_of_a_graph_without_edges_are_degenerate(self, tmp_path,
                                                                 capsys):
        # beta = 0 draws no edges: every row is degenerate, none a traceback.
        out = tmp_path / "s1.csv"
        rc = cli.main(["bench", "s1", "--nodes", "60 90", "--trials", "1", "--beta", "0",
                       "--out", str(out)])
        assert rc == 0 and capsys.readouterr().err == ""
        trials = [r for r in bench.read_records_csv(out) if r["row_type"] == "TRIAL"]
        assert [r["method"] for r in trials] == ["srs", "dcs", "full"] * 2
        assert {r["status"] for r in trials} == {"degenerate"}
        assert [r["rate"] for r in trials if r["method"] == "full"] == ["", ""]

    def test_rejects_an_unknown_scenario(self, tmp_path):
        out = tmp_path / "s9.csv"
        with pytest.raises(ValueError, match="^unknown scenario 's9'$"):
            bench.run_scenario(bench.ScenarioConfig(scenario="s9", out=str(out)))
        assert not out.exists()

    def test_rejects_descending_grid(self, tmp_path):
        out = tmp_path / "s1.csv"
        cfg = tiny_cfg("s1", out, N=(80, 60))
        with pytest.raises(ValueError, match="^nodes must be strictly ascending$"):
            bench.run_scenario(cfg)
        assert not out.exists()

    def test_no_partial_csv_on_invalid_config(self, tmp_path):
        out = tmp_path / "s2.csv"
        cfg = tiny_cfg("s2", out, n=(2,))  # K = 3 > n
        with pytest.raises(ValueError, match="^cell 0: K=3 exceeds subsample size 2$"):
            bench.run_scenario(cfg)
        assert not out.exists()


class TestScenario2:
    def test_grid_echo_and_trend_column(self, tmp_path):
        out = tmp_path / "s2.csv"
        cfg = tiny_cfg("s2", out, n=(8, 16))
        records = bench.run_scenario(cfg)
        assert len(records) == 2 * 2 * 2  # cells x trials x methods
        assert {r["method"] for r in records} == {"srs", "dcs"}  # no full rows
        assert sorted({r["n"] for r in records}) == [8, 16]
        rows = bench.read_records_csv(out)
        assert "trend" not in rows[0]
        assert {r["row_type"] for r in rows} == {"TRIAL", "AGG"}

    def test_rejects_zero_in_n_grid_before_any_trial(self, tmp_path, capsys,
                                                     no_trial):
        # An explicit n is never replaced by s1's subsample-size rule.
        out = tmp_path / "s2.csv"
        rc = cli.main(["bench", "s2", "--n", "0 5", "--nodes", "60", "--trials", "1",
                       "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            "config error: cell 0: need 1 <= n <= N, got n=0, N=60"]


class TestScenario3:
    def test_table_layout(self, tmp_path):
        out = tmp_path / "s3.csv"
        cfg = tiny_cfg("s3", out, beta=(0.3, 0.6), zeta=(0.05, 0.5))
        records = bench.run_scenario(cfg)
        assert {r["method"] for r in records} == {"srs", "dcs"}  # no full rows
        aggs = bench.aggregate(records)
        assert len(aggs) == 2 * 2 * 2  # beta x zeta x method
        cells = {(a["beta"], a["zeta"]) for a in aggs}
        assert cells == {(0.3, 0.05), (0.3, 0.5), (0.6, 0.05), (0.6, 0.5)}

    def test_beta_zero_cell_degenerate_at_chance(self, tmp_path):
        cfg = tiny_cfg("s3", tmp_path / "s3.csv", beta=(0.0,),
                       zeta=(0.5,), N=(90,), trials=3)
        records = bench.run_scenario(cfg)
        assert all(r["status"] == "degenerate" for r in records)
        # The trivial labeling scores at chance level for uniform pi.
        for r in records:
            assert 0.4 <= r["rate"] <= 0.8

    def test_rejects_out_of_range_grid(self, tmp_path):
        # The second beta meets the first of the four default zetas: cell 4.
        out = tmp_path / "s3.csv"
        cfg = tiny_cfg("s3", out, beta=(0.5, 1.5))
        with pytest.raises(ValueError,
                           match=r"^cell 4: beta must be in \[0, 1\], got 1.5$"):
            bench.run_scenario(cfg)
        assert not out.exists()

    def test_degenerate_trial_keeps_coverage_and_sampling_time(self):
        cell = bench._Cell(index=0, N=90, n=10, beta=0.0, zeta=0.5, delta=0.0)
        records = bench._sbm_trial("s3", cell, 0, 11)
        # Replay the draws: a degenerate trial runs no k-means, so the
        # generator state after the first sample is the state dcs sees.
        rng = np.random.default_rng(11)
        z = sample_memberships((1 / 3, 1 / 3, 1 / 3), cell.N, rng)
        g = generate_adjacency(z, block_matrix(0.0, 0.5, 3), rng)
        assert [r["method"] for r in records] == ["srs", "dcs"]
        for r in records:
            s = sampling.draw(r["method"], g, cell.n, 3, rng)
            assert r["status"] == "degenerate"
            assert r["covered"] == sampling.coverage_event(s, z, 3)
            assert r["t_sampling"] > 0
            assert r["t_laplacian"] == r["t_eig"] == r["t_kmeans"] == 0.0


class TestScenario4:
    def test_delta_grid_echo(self, tmp_path):
        cfg = tiny_cfg("s4", tmp_path / "s4.csv", delta=(0.0, 0.2))
        records = bench.run_scenario(cfg)
        assert {r["method"] for r in records} == {"srs", "dcs"}  # no full rows
        assert sorted({r["delta"] for r in records}) == [0.0, 0.2]
        balanced = [r for r in records if r["delta"] == 0.0]
        assert balanced  # delta = 0 reduces to the balanced setting

    def test_rejects_delta_above_third(self, tmp_path):
        out = tmp_path / "s4.csv"
        cfg = tiny_cfg("s4", out, delta=(0.1, 0.4))
        with pytest.raises(ValueError,
                           match="^cell 1: pi entries must be >= 0 and sum to 1$"):
            bench.run_scenario(cfg)
        assert not out.exists()


@pytest.mark.parametrize("scenario, setting, cell, message", [
    ("s1", {"beta": (1.5,)}, 0, "beta must be in [0, 1], got 1.5"),
    ("s1", {"zeta": (-0.1,)}, 0, "zeta must be in [0, 1], got -0.1"),
    ("s2", {"beta": (-0.1,), "n": (8,)}, 0, "beta must be in [0, 1], got -0.1"),
    ("s2", {"zeta": (1.5,), "n": (8,)}, 0, "zeta must be in [0, 1], got 1.5"),
    ("s3", {"beta": (0.5, 1.5)}, 4, "beta must be in [0, 1], got 1.5"),
    ("s3", {"zeta": (0.1, 1.2)}, 1, "zeta must be in [0, 1], got 1.2"),
    ("s4", {"beta": (1.5,)}, 0, "beta must be in [0, 1], got 1.5"),
    ("s4", {"zeta": (-0.1,)}, 0, "zeta must be in [0, 1], got -0.1"),
], ids=["s1-beta", "s1-zeta", "s2-beta", "s2-zeta", "s3-beta", "s3-zeta", "s4-beta",
        "s4-zeta"])
def test_out_of_range_signal_rejected_before_any_trial(tmp_path, no_trial, scenario,
                                                       setting, cell, message):
    out = tmp_path / "x.csv"
    with pytest.raises(ValueError, match=f"^{re.escape(f'cell {cell}: {message}')}$"):
        bench.run_scenario(tiny_cfg(scenario, out, **setting))
    assert not out.exists()


class TestUnreadConfigFields:
    @pytest.mark.parametrize("scenario, field, value", [
        ("s1", "n", (10,)),
        ("s1", "n", (8, 10)),
        ("s1", "delta", (0.0, 0.1)),
        ("s2", "delta", (0.1,)),
        ("s3", "delta", (0.0, 0.1)),
    ], ids=["s1-n-10", "s1-n-8,10", "s1-delta-0.0,0.1", "s2-delta-0.1",
            "s3-delta-0.0,0.1"])
    def test_rejected_before_any_trial(self, tmp_path, no_trial, scenario, field,
                                       value):
        out = tmp_path / "x.csv"
        cfg = tiny_cfg(scenario, out, **{field: value})
        with pytest.raises(ValueError, match=f"^{scenario} does not use {field}$"):
            bench.run_scenario(cfg)
        assert not out.exists()

    @pytest.mark.parametrize("scenario", ["s1", "s2", "s3"])
    def test_config_file_is_one_error_line(self, tmp_path, capsys, no_trial,
                                           scenario):
        # The settings each scenario leaves unread: s1's n follows
        # subsample_size_rule, and only s4 has a delta. s4 reads every axis.
        unread = {"s1": ("n", "5 7"), "s2": ("delta", "0.1"),
                  "s3": ("delta", "0.1")}
        key, value = unread[scenario]
        out = tmp_path / "x.csv"
        rc = cli.main(["bench", scenario, f"--{key}", value, "--nodes", "60",
                       "--trials", "1", "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {scenario} does not use {key}"]

    @pytest.mark.parametrize("via", ["flag", "twice"])
    @pytest.mark.parametrize("scenario, key, field", [
        ("s1", "nodes", "N"), ("s2", "n", "n"),
        ("s3", "beta", "beta"), ("s3", "zeta", "zeta"),
    ])
    def test_fixed_setting_of_a_swept_axis(self, tmp_path, capsys, no_trial, swept,
                                           scenario, key, field, via):
        # One value of the axis a scenario sweeps by default runs, from a
        # flag or from the last of a flag given twice.
        value, other = ("0.2", "0.9") if field in ("beta", "zeta") else ("50", "70")
        flags = [f"--{key}", other] if via == "twice" else []
        rc = cli.main(["bench", scenario, *flags, f"--{key}", value, "--trials", "1",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 0 and capsys.readouterr().err == ""
        (_, cells), = swept
        assert {getattr(c, field) for c in cells} == {float(value)}
        # The other axes keep the scenario's defaults.
        assert len(cells) == math.prod(len(values) for axis, values
                                       in bench.SWEEPS[scenario].items()
                                       if axis != field)


@pytest.mark.parametrize("scenario, settings, n_cells", [
    ("s1", {}, 3), ("s2", {}, 6), ("s3", {}, 16), ("s4", {}, 4),
    ("s1", {"N": (80,)}, 1),
    ("s2", {"N": (60,), "n": (8,)}, 1),
    ("s3", {"beta": (0.3,)}, 4),
    ("s2", {"beta": (0.03, 0.05), "n": (100, 300)}, 4),
    ("s4", {"N": (60, 90), "n": (10,)}, 8),
], ids=["s1-desk", "s2-desk", "s3-desk", "s4-desk", "s1-one-N", "s2-one-n",
        "s3-zetas", "s2-betas-and-ns", "s4-Ns-and-deltas"])
def test_cells_are_the_product_of_the_axes(tmp_path, swept, scenario, settings,
                                           n_cells):
    bench.run_scenario(bench.ScenarioConfig(scenario=scenario,
                                            out=str(tmp_path / "x.csv"), **settings))
    (_, cells), = swept
    assert len(cells) == n_cells


# The full-size parameter blocks of each sweep (N up to 30,000, T = 100).
FULL_SCALE = {
    "s1": dict(N=(5000, 10000, 15000, 20000, 25000, 30000), trials=100),
    "s2": dict(N=(12000,), trials=100),
    "s3": dict(N=(12000,), n=(100,), trials=100),
    "s4": dict(N=(12000,), n=(100,), trials=100,
               delta=(0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3)),
}


def readme_commands() -> list[list[str]]:
    """The arguments of each ``sscluster`` line of the README's bash blocks."""
    readme = (ROOT / "README.md").read_text()
    script = "".join(re.findall(r"```bash\n(.*?)```", readme, flags=re.S))
    commands = [shlex.split(line, comments=True)
                for line in script.replace("\\\n", " ").splitlines()]
    return [argv[1:] for argv in commands if argv[:1] == ["sscluster"]]


@pytest.mark.parametrize("scenario, n_cells", [
    ("s1", 6), ("s2", 6), ("s3", 16), ("s4", 7),
])
def test_full_scale_readme_commands(tmp_path, swept, scenario, n_cells):
    # The README's full-size commands are its bench commands with T = 100.
    full_size = [argv for argv in readme_commands()
                 if argv[:2] == ["bench", scenario] and "--trials" in argv
                 and argv[argv.index("--trials") + 1] == "100"]
    assert len(full_size) == 1
    out = str(tmp_path / f"{scenario}.csv")
    cfg = cli._bench_config(cli.build_parser().parse_args([*full_size[0], "--out", out]))
    assert cfg == bench.ScenarioConfig(scenario=scenario, out=out,
                                       **FULL_SCALE[scenario])
    # The settings pass run_scenario's checks; no trial runs.
    assert bench.run_scenario(cfg) == []
    (_, cells), = swept
    assert len(cells) == n_cells


class TestCsvContract:
    def test_reproducible_except_timing(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        records1 = bench.run_scenario(tiny_cfg("s2", out1, n=(8, 12)))
        records2 = bench.run_scenario(tiny_cfg("s2", out2, n=(8, 12)))
        rows1 = bench.read_records_csv(out1)
        rows2 = bench.read_records_csv(out2)
        assert len(rows1) == len(rows2)
        for r1, r2 in zip(rows1, rows2):
            for col in bench.COLUMNS:
                if col in bench.TIMING_COLUMNS:
                    continue
                assert r1[col] == r2[col], col

    @pytest.mark.parametrize("text, rows", [
        ("row_type,cell\nTRIAL,0\nAGG,0\n",
         [{"row_type": "TRIAL", "cell": "0"}, {"row_type": "AGG", "cell": "0"}]),
        # A v1 file: its trend column and TREND rows come back as they are.
        ("# sscluster bench csv v1\nrow_type,cell,trend\nTRIAL,0,\nTREND,,n:mixed\n",
         [{"row_type": "TRIAL", "cell": "0", "trend": ""},
          {"row_type": "TREND", "cell": "", "trend": "n:mixed"}]),
    ], ids=["plain", "v1"])
    def test_reads_csv_without_version_line(self, tmp_path, text, rows):
        path = tmp_path / "old.csv"
        path.write_text(text)
        assert bench.read_records_csv(path) == rows

    def test_version_header(self, tmp_path):
        out = tmp_path / "s2.csv"
        bench.run_scenario(tiny_cfg("s2", out, n=(8,)))
        assert out.read_text().splitlines()[0] == bench.CSV_VERSION

    def test_agg_recomputable_from_trials(self, tmp_path):
        out = tmp_path / "s2.csv"
        bench.run_scenario(tiny_cfg("s2", out, n=(8, 12), trials=4))
        rows = bench.read_records_csv(out)
        trials = [r for r in rows if r["row_type"] == "TRIAL"]
        aggs = [r for r in rows if r["row_type"] == "AGG"]
        assert aggs
        for a in aggs:
            rates = [float(t["rate"]) for t in trials
                     if t["cell"] == a["cell"] and t["method"] == a["method"]
                     and t["rate"] != ""]
            mean = np.mean(rates)
            se = np.std(rates, ddof=1) / math.sqrt(len(rates)) if len(rates) > 1 else 0.0
            assert float(a["rate_mean"]) == pytest.approx(mean, abs=1e-9)
            assert float(a["rate_se"]) == pytest.approx(se, abs=1e-9)

    def test_parallel_matches_serial(self, tmp_path):
        out1, out2 = tmp_path / "ser.csv", tmp_path / "par.csv"
        bench.run_scenario(tiny_cfg("s2", out1, n=(8,), trials=3))
        bench.run_scenario(tiny_cfg("s2", out2, n=(8,), trials=3, jobs=2))
        rows1 = bench.read_records_csv(out1)
        rows2 = bench.read_records_csv(out2)
        for r1, r2 in zip(rows1, rows2):
            for col in bench.COLUMNS:
                if col not in bench.TIMING_COLUMNS:
                    assert r1[col] == r2[col]

    def test_blas_threads_do_not_change_results(self, tmp_path):
        # k-means multiplies all restarts' centroids in one stacked matmul,
        # and the full-SC rows of s1 run full_laplacian and eigsh; the
        # results must not depend on how OpenBLAS splits that work.
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)

        def run(args, name):
            """Run the CLI on one BLAS thread ("one") or on the default."""
            threads = {"OPENBLAS_NUM_THREADS": "1"} if name == "one" else {}
            proc = subprocess.run([sys.executable, "-m", "sscluster.cli", *args],
                                  env={**env, **threads}, capture_output=True,
                                  text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr

        for scenario, trials in (("s4", "2"), ("s1", "1")):
            rows = []
            for name in ("one", "default"):
                out = tmp_path / f"{scenario}-{name}.csv"
                run(["bench", scenario, "--trials", trials, "--jobs", "1",
                     "--out", str(out)], name)
                rows.append(bench.read_records_csv(out))
            assert len(rows[0]) == len(rows[1]) > 0
            if scenario == "s1":
                assert any(r["method"] == "full" for r in rows[0])
            for r1, r2 in zip(*rows):
                for col in bench.COLUMNS:
                    if col not in bench.TIMING_COLUMNS:
                        assert r1[col] == r2[col], (scenario, col)

        # The cluster command with K by eigengap (the Gram solve) at an N
        # that also runs the full-SC comparison: labels and sample files.
        rng = np.random.default_rng(31)
        z = sample_memberships((1 / 3, 1 / 3, 1 / 3), 3000, rng)
        edges = tmp_path / "net.edges"
        write_edge_list(generate_adjacency(z, block_matrix(0.05, 0.02, 3), rng), edges)
        for method in ("srs", "dcs"):
            outputs = []
            for name in ("one", "default"):
                prefix = tmp_path / f"{method}-{name}"
                run(["cluster", "--edges", str(edges), "--method", method,
                     "--n", "150", "--k", "auto", "--seed", "1",
                     "--out", str(prefix)], name)
                outputs.append([Path(f"{prefix}.{ext}").read_bytes()
                                for ext in ("labels", "sample")])
            assert outputs[0] == outputs[1], method


class TestRunReal:
    @pytest.fixture
    def network(self, tmp_path):
        rng = np.random.default_rng(21)
        z = sample_memberships((1 / 3, 1 / 3, 1 / 3), 300, rng)
        g = generate_adjacency(z, block_matrix(0.4, 0.05, 3), rng)
        path = tmp_path / "net.edges"
        write_edge_list(g, path)
        return g, z, path

    def test_round_trip_matches_in_memory(self, network, tmp_path):
        g, z, path = network
        seed = 5
        summary = bench.run_real(path, n=40, k=3, method="srs", seed=seed,
                                 out_prefix=str(tmp_path / "out"),
                                 n_nodes=g.n_nodes)
        # Replicate the pipeline in memory with the same draw order.
        rng = np.random.default_rng(seed)
        s = srs(g.n_nodes, 40, rng)
        emb = embed(subsampled_laplacian(bi_adjacency(g, s)), 3)
        km = kmeans(emb.matrix, 3, rng=rng)
        assert np.array_equal(summary["labels"], km.labels)
        file_labels = read_labels(tmp_path / "out.labels")
        assert np.array_equal(file_labels, km.labels)
        rate_file = misclustered_rate(file_labels, z, 3)
        rate_mem = misclustered_rate(km.labels, z, 3)
        assert rate_file == rate_mem

    def test_auto_k_finds_planted_value(self, network, tmp_path):
        g, z, path = network
        summary = bench.run_real(path, n=60, k="auto", method="srs", seed=3,
                                 out_prefix=str(tmp_path / "out"), n_nodes=g.n_nodes)
        assert summary["K"] == 3

    def test_auto_k_solves_the_gram_once(self, network, tmp_path, monkeypatch):
        g, z, path = network
        calls = []
        solve = spectral.symmetric_eig
        monkeypatch.setattr(spectral, "symmetric_eig",
                            lambda *a, **kw: calls.append(1) or solve(*a, **kw))
        monkeypatch.setattr(bench, "FULL_BASELINE_MAX_N", 10)
        summary = bench.run_real(path, n=60, k="auto", method="srs", seed=3,
                                 out_prefix=str(tmp_path / "out"), n_nodes=g.n_nodes)
        assert len(calls) == 1
        # Two-solve route: the spectrum for K, then a fresh solve in embed.
        rng = np.random.default_rng(3)
        ls = subsampled_laplacian(bi_adjacency(g, srs(g.n_nodes, 60, rng)))
        K = select_k(subsampled_spectrum(ls)[0])
        km = kmeans(embed(ls, K).matrix, K, rng=rng)
        assert summary["K"] == K
        assert np.array_equal(summary["labels"], km.labels)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_auto_k_one_solve_matches_two_solves(self, seed):
        rng = np.random.default_rng(40 + seed)
        z = sample_memberships((0.3, 0.3, 0.4), 240, rng)
        g = generate_adjacency(z, block_matrix(0.3, 0.05, 3), rng)
        # Two-solve route: the whole spectrum for K, then a top-K solve.
        w = np.linalg.eigvalsh(full_laplacian(g).matrix.toarray())[::-1]
        K = select_k(w)
        labels, emb, _ = bench.run_full_sc(g, K, np.random.default_rng(seed))
        auto_labels, auto_emb, _ = bench.run_full_sc(g, "auto",
                                                     np.random.default_rng(seed))
        assert auto_emb.matrix.shape == emb.matrix.shape == (240, K)
        assert np.array_equal(auto_labels, labels)

    def test_full_sc_hands_its_laplacian_to_arpack_unchecked(self, network,
                                                               monkeypatch):
        # full_laplacian's matrix is exactly symmetric as built, so K < N
        # goes to ARPACK without symmetric_eig's symmetry check.
        g, z, path = network
        calls = []
        solve = spectral.symmetric_eig
        monkeypatch.setattr(spectral, "symmetric_eig",
                            lambda *a, **kw: calls.append(1) or solve(*a, **kw))
        bench.run_full_sc(g, 3, np.random.default_rng(0))
        assert calls == []

    @pytest.mark.parametrize("K", [3, "auto"])
    def test_full_sc_draws_only_in_kmeans(self, network, K):
        g, z, path = network
        rng = np.random.default_rng(5)
        labels, emb, _ = bench.run_full_sc(g, K, rng)
        # Replay: the same generator state goes straight into k-means.
        replay = np.random.default_rng(5)
        km = kmeans(emb.matrix, emb.matrix.shape[1], rng=replay)
        assert np.array_equal(labels, km.labels)
        assert rng.bit_generator.state == replay.bit_generator.state

    def test_full_comparison_included_under_guard(self, network, tmp_path):
        g, z, path = network
        summary = bench.run_real(path, n=40, k=3, method="dcs", seed=1,
                                 out_prefix=str(tmp_path / "out"), n_nodes=g.n_nodes)
        assert "disagreement_rate" in summary
        assert 0.0 <= summary["disagreement_rate"] <= 1.0
        assert summary["times"]["full_sc"] > 0

    @pytest.mark.parametrize("k", [3, "auto"])
    def test_every_method_reports_its_stages_and_seed(self, network, tmp_path,
                                                      monkeypatch, k):
        g, z, path = network
        monkeypatch.setattr(bench, "FULL_BASELINE_MAX_N", 0)
        for method in ("srs", "dcs", "full"):
            summary = bench.run_real(path, n=40, k=k, method=method, seed=8,
                                     out_prefix=str(tmp_path / method),
                                     n_nodes=g.n_nodes)
            assert summary["seed"] == 8
            # Only a subsampled run draws a sample, so only it has a
            # sampling stage.
            sampled = ["sampling"] if method != "full" else []
            assert list(summary["times"]) == [
                "load", *sampled, "laplacian", "eig", "kmeans", "write"]
            assert all(t >= 0 for t in summary["times"].values())
            assert summary["K"] == 3

    def test_method_full_clusters_whole_network(self, network, tmp_path):
        g, z, path = network
        summary = bench.run_real(path, n=None, k="auto", method="full",
                                 seed=2, out_prefix=str(tmp_path / "full"),
                                 n_nodes=g.n_nodes)
        assert summary["K"] == 3
        assert summary["method"] == "full"
        labels = read_labels(tmp_path / "full.labels")
        assert misclustered_rate(labels, z, 3) <= 0.02

    def test_disconnected_nodes_reported_not_fatal(self, tmp_path):
        g = from_edge_list([(0, 1), (1, 2), (3, 4)], 5)
        path = tmp_path / "tiny.edges"
        write_edge_list(g, path)
        summary = bench.run_real(path, n=2, k=2, method="srs", seed=0,
                                 out_prefix=str(tmp_path / "out"), n_nodes=5)
        assert summary["n_disconnected_from_sample"] >= 1


class TestSidecarRuns:
    """A second ``cluster`` on an unchanged edge list reads the graph from
    the sidecar the first one wrote, with the same outputs byte for byte."""

    N = 240
    # External ids of each id kind, and the extra cluster arguments.
    IDS = {"dense": (lambda i: i, []),
           "relabeled": (lambda i: 7 * i - 500, []),
           "nodes": (lambda i: i, ["--nodes", str(N + 1)])}

    @pytest.fixture(scope="class")
    def edges_text(self):
        rng = np.random.default_rng(31)
        z = sample_memberships((1 / 3, 1 / 3, 1 / 3), self.N, rng)
        g = generate_adjacency(z, block_matrix(0.3, 0.03, 3), rng)
        rows = np.repeat(np.arange(g.n_nodes), np.diff(g.indptr))
        upper = g.indices > rows
        return lambda ext: "".join(f"{ext(u)} {ext(v)}\n"
                                   for u, v in zip(rows[upper], g.indices[upper]))

    @staticmethod
    def cluster(edges, out, argv, capsys):
        """stdout but its "stages:" line, and each output file's bytes."""
        assert cli.main(["cluster", "--edges", str(edges), *argv, "--seed", "4",
                         "--out", str(out)]) == 0
        stdout = [line for line in capsys.readouterr().out.splitlines()
                  if not line.startswith("stages:")]
        files = {}
        for ext in ("labels", "sample", "idmap"):
            path = Path(f"{out}.{ext}")
            if path.exists():
                files[ext] = path.read_bytes()
                path.unlink()
        return stdout, files

    @pytest.mark.parametrize("ids", list(IDS))
    @pytest.mark.parametrize("k", ["3", "auto"])
    @pytest.mark.parametrize("method", ["srs", "dcs", "full"])
    def test_warm_run_matches_cold_run(self, edges_text, tmp_path, monkeypatch,
                                       capsys, method, k, ids):
        ext, extra = self.IDS[ids]
        edges, out = tmp_path / "net.edges", tmp_path / "out" / "result"
        out.parent.mkdir()
        edges.write_text(edges_text(ext))
        argv = ["--method", method, "--k", k, *extra,
                *(["--n", "40"] if method != "full" else [])]
        cold = self.cluster(edges, out, argv, capsys)
        assert Path(f"{edges}{graph.SIDECAR_SUFFIX}").is_file()
        assert ("idmap" in cold[1]) == (ids == "relabeled")

        def parse(path):
            raise AssertionError("warm run parsed the text")
        monkeypatch.setattr(graph, "read_edge_list", parse)
        assert self.cluster(edges, out, argv, capsys) == cold

    def test_unwritable_directory_is_neither_hashed_nor_written(
            self, edges_text, tmp_path, monkeypatch, capsys):
        argv = ["--method", "dcs", "--n", "40", "--k", "auto"]
        writable, locked = tmp_path / "writable", tmp_path / "locked"
        for d in (writable, locked):
            d.mkdir()
            (d / "net.edges").write_text(edges_text(lambda i: 3 * i))
        want = self.cluster(writable / "net.edges", tmp_path / "result", argv, capsys)

        # What os.access reports to a user who may not write there (root may).
        access = os.access
        monkeypatch.setattr(os, "access", lambda path, mode, **kw: False
                            if Path(path) == locked and mode & os.W_OK
                            else access(path, mode, **kw))

        def sha256():
            raise AssertionError("hashed an edge list whose sidecar cannot be written")
        monkeypatch.setattr(hashlib, "sha256", sha256)
        locked.chmod(0o555)
        try:
            got = self.cluster(locked / "net.edges", tmp_path / "result", argv, capsys)
        finally:
            locked.chmod(0o755)
        assert got == want
        assert [p.name for p in locked.iterdir()] == ["net.edges"]

    @pytest.mark.parametrize("text, loops", [
        ("0 1\n1 2\n2 2\n2 0\n", 1),
        ("0 1\n1 2\n2 0\n", 0),
    ], ids=["self-loop", "none"])
    def test_dropped_self_loops_are_reported_cold_and_warm(
            self, tmp_path, monkeypatch, capsys, text, loops):
        edges = tmp_path / "net.edges"
        edges.write_text(text)
        argv = ["--method", "srs", "--n", "2", "--k", "2"]
        cold = self.cluster(edges, tmp_path / "result", argv, capsys)
        assert Path(f"{edges}{graph.SIDECAR_SUFFIX}").is_file()

        def parse(path):
            raise AssertionError("warm run parsed the text")
        monkeypatch.setattr(graph, "read_edge_list", parse)
        warm = self.cluster(edges, tmp_path / "result", argv, capsys)
        reported = [line for line in cold[0] if line.startswith("self-loops")]
        assert reported == ([f"self-loops dropped: {loops}"] if loops else [])
        assert warm == cold

    def test_fifo_is_read_once_and_gets_no_sidecar(self, edges_text, tmp_path, capsys):
        argv = ["--method", "srs", "--n", "40", "--k", "3"]
        text = edges_text(lambda i: i)
        regular, piped = tmp_path / "regular", tmp_path / "piped"
        for d in (regular, piped):
            d.mkdir()
        (regular / "net.edges").write_text(text)
        want = self.cluster(regular / "net.edges", tmp_path / "result", argv, capsys)

        fifo = piped / "net.edges"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
        writer.start()
        got = self.cluster(fifo, tmp_path / "result", argv, capsys)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert got == want
        assert [p.name for p in piped.iterdir()] == ["net.edges"]


# A 4-cycle: every degree is 2, so a degree partition into 3 leaves two
# clusters empty.
CYCLE = "0 1\n1 2\n2 3\n3 0\n"

# The whole error line of the test_bad_input_is_one_error_line cases that
# pin one ({tmp}: the test's directory).
EXACT_ERRORS = {
    "argv19": "config error: out: must name a file, got ''",
    "argv14": "config error: cell 0: K=3 exceeds subsample size 2",
    "argv15": "config error: cell 0: K=3 exceeds subsample size 1",
    "argv20": "config error: out: {tmp}/no_dir is not a directory",
    "argv26": "config error: cell 1: pi entries must be >= 0 and sum to 1",
    "argv28": "error: {tmp}/float.labels:2: could not convert string '1.5' to int64",
    "argv29": "error: {tmp}/float.edges:4: could not convert string '2.5' to int64",
    "argv30": "error: {tmp}/big.edges:5: could not convert string "
              "'99999999999999999999' to int64",
    "argv31": "error: {tmp}/x.labels:4: could not convert string 'x' to int64",
    "argv32": "error: --k must be an integer or 'auto', got '²'",
    "argv33": "error: pi entries must be >= 0 and sum to 1",
    "argv34": "config error: cell 0: pi entries must be >= 0 and sum to 1",
    "argv36": "error: {tmp}/oor.edges:3: node id 7 is outside [0, 3)",
    "argv37": "error: {tmp}/neg.edges:2: node id -2 is outside [0, 3)",
    "argv41": "config error: cell 1: Gram matrix would be 4050x4050 dense; guard is 4000",
    "argv42": "config error: n must be strictly ascending",
    "argv43": "config error: nodes must be strictly ascending",
    "argv44": "config error: out: must name a file, got '{tmp}'",
    "argv45": "error: out: {tmp}/no_dir is not a directory",
    "argv46": "error: out: {tmp}/no_dir is not a directory",
    "argv47": "error: labels-out: {tmp}/no_dir is not a directory",
}

# Output paths in a missing directory, each checked before any stage runs.
NO_DIR_ARGV = {
    "argv45": ["cluster", "--edges", "{tmp}/cycle.edges", "--n", "2",
               "--out", "{tmp}/no_dir/r"],
    "argv46": ["generate", "--nodes", "10", "--out", "{tmp}/no_dir/g.edges"],
    "argv47": ["generate", "--nodes", "10", "--out", "{tmp}/g.edges",
               "--labels-out", "{tmp}/no_dir/t.labels"],
}


class TestCli:
    def test_generate_cluster_eval_round_trip(self, tmp_path, capsys):
        edges = tmp_path / "net.edges"
        labels = tmp_path / "truth.labels"
        rc = cli.main(["generate", "--nodes", "200", "--k", "2",
                       "--beta", "0.4", "--zeta", "0.05", "--seed", "9",
                       "--out", str(edges), "--labels-out", str(labels)])
        assert rc == 0 and edges.exists() and labels.exists()

        out_prefix = tmp_path / "result"
        rc = cli.main(["cluster", "--edges", str(edges), "--nodes", "200",
                       "--method", "srs", "--n", "30", "--k", "2",
                       "--seed", "1", "--out", str(out_prefix)])
        assert rc == 0
        assert (tmp_path / "result.labels").exists()
        assert (tmp_path / "result.sample").exists()

        rc = cli.main(["eval", str(tmp_path / "result.labels"), str(labels)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "misclustered rate" in out

    def test_cluster_id_map_keeps_negative_and_wide_ids(self, tmp_path):
        # Two 4-cliques joined by one edge, on ids below 0 and above 2**32.
        ids = [-2**63, -2**40, -12, -1, 0, 7, 2**32, 2**63 - 1]
        pairs = [(a, b) for half in (ids[:4], ids[4:])
                 for i, a in enumerate(half) for b in half[i + 1:]] + [(ids[3], ids[4])]
        edges = tmp_path / "net.edges"
        edges.write_text("".join(f"{b} {a}\n" for a, b in pairs))
        rc = cli.main(["cluster", "--edges", str(edges), "--method", "full",
                       "--k", "2", "--out", str(tmp_path / "result")])
        assert rc == 0
        assert (tmp_path / "result.idmap").read_bytes() == "".join(
            f"{e} {i}\n" for i, e in enumerate(ids)).encode()

    @pytest.mark.parametrize("ids", [[10, 20, 30, 40, 50, 60], [0, 1, 2, 3, 4, 5]],
                             ids=["sparse", "dense"])
    def test_cluster_names_the_id_map_it_writes(self, tmp_path, capsys, ids):
        # A path on six nodes; only sparse ids are relabeled.
        idmap = ids[0] != 0
        (tmp_path / "net.edges").write_text(
            "".join(f"{a} {b}\n" for a, b in zip(ids, ids[1:])))
        prefix = tmp_path / "r"
        rc = cli.main(["cluster", "--edges", str(tmp_path / "net.edges"), "--n", "3",
                       "--k", "2", "--out", str(prefix)])
        assert rc == 0
        written = f"labels -> {prefix}.labels, sample -> {prefix}.sample"
        if idmap:
            written += f", idmap -> {prefix}.idmap"
        assert capsys.readouterr().out.splitlines()[-1] == written
        assert Path(f"{prefix}.idmap").exists() == idmap

    @pytest.fixture(scope="class")
    def big_network(self, tmp_path_factory):
        # N = 6000: above the full-comparison limit and, for n > 4000, the
        # Gram guard.
        rng = np.random.default_rng(23)
        z = sample_memberships((1 / 3, 1 / 3, 1 / 3), 6000, rng)
        path = tmp_path_factory.mktemp("big") / "net.edges"
        write_edge_list(generate_adjacency(z, block_matrix(0.005, 0.05, 3), rng), path)
        return path

    def test_cluster_gram_guard_is_one_error_line(self, big_network, tmp_path,
                                                   capsys):
        rc = cli.main(["cluster", "--edges", str(big_network), "--method", "srs",
                       "--n", "4500", "--k", "3", "--out", str(tmp_path / "r")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Gram matrix would be 4500x4500 dense")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("k", ["3", "auto"])
    def test_cluster_method_full_at_any_n(self, big_network, tmp_path, k):
        rc = cli.main(["cluster", "--edges", str(big_network), "--method", "full",
                       "--k", k, "--out", str(tmp_path / "r")])
        assert rc == 0
        labels = read_labels(tmp_path / "r.labels")
        assert len(labels) == 6000 and labels.min() >= 1

    @pytest.mark.parametrize("method", ["srs", "dcs"])
    def test_k_auto_needs_two_sample_nodes(self, tmp_path, capsys, method):
        # The eigengap compares two eigenvalues of the n x n Gram matrix.
        edges = tmp_path / "net.edges"
        write_edge_list(from_edge_list([(0, 1), (1, 2), (2, 3)], 4), edges)
        rc = cli.main(["cluster", "--edges", str(edges), "--method", method,
                       "--n", "1", "--k", "auto", "--out", str(tmp_path / "r")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --k auto needs --n >= 2, got --n 1"]
        assert not list(tmp_path.glob("r.*"))

    def test_eval_bad_label_file_is_one_error_line(self, tmp_path, capsys):
        good = tmp_path / "good.labels"
        good.write_text("0 1\n1 2\n2 1\n")
        bad = tmp_path / "bad.labels"
        bad.write_text("0 1\n2 3\n")
        rc = cli.main(["eval", str(bad), str(good)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv, expected", [
        pytest.param(["--seed", "3", "--seed", "7"], 7, id="argv0-7"),  # the last one
        pytest.param(["--seed", "0"], 0, id="argv1-0"),   # 0 is a value, not "unset"
        pytest.param(["--seed", "3"], 3, id="argv2-3"),
        pytest.param([], 0, id="argv3-0"),                # ScenarioConfig's default
    ])
    def test_bench_seed_flag_overrides_config(self, tmp_path, monkeypatch,
                                              argv, expected):
        seen = []
        monkeypatch.setattr(bench, "run_scenario",
                            lambda cfg: seen.append(cfg.master_seed) or [])
        rc = cli.main(["bench", "s4", "--out", str(tmp_path / "s4.csv"), *argv])
        assert rc == 0 and seen == [expected]

    def test_generate_default_seed_unchanged(self):
        assert cli.build_parser().parse_args(
            ["generate", "--nodes", "10"]).seed == 0

    def test_bench_subcommand_writes_csv(self, tmp_path):
        out = tmp_path / "s4.csv"
        rc = cli.main(["bench", "s4", "--nodes", "60", "--n", "10",
                       "--trials", "2", "--out", str(out), "--seed", "4"])
        assert rc == 0 and out.exists()

    def test_bench_config_out_honoured_and_flag_overrides(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["bench", "s4", "--nodes", "60", "--n", "10", "--trials", "1"]
        assert cli.main(argv) == 0
        assert (tmp_path / "bench_s4.csv").exists()
        assert cli.main([*argv, "--out", "flag.csv"]) == 0
        assert (tmp_path / "flag.csv").exists()

    def test_every_scenario_field_has_one_flag(self):
        targets = [field for field, _, _ in cli._BENCH_FLAGS.values()]
        config_fields = [f.name for f in dataclasses.fields(bench.ScenarioConfig)]
        assert sorted(targets) == sorted(config_fields[1:])
        assert config_fields[0] == "scenario"
        args = vars(cli.build_parser().parse_args(["bench", "s1"]))
        assert set(args) == {"command", "scenario", *cli._BENCH_FLAGS}

    def test_sweeps_read_exactly_the_sweep_fields(self):
        # The sweep fields are the ones that stay None until run_scenario
        # fills in a scenario's defaults.
        sweep_fields = {f.name for f in dataclasses.fields(bench.ScenarioConfig)
                        if f.default is None}
        assert set().union(*bench.SWEEPS.values()) == sweep_fields

    @pytest.mark.parametrize("key, value", [
        ("trials", "x"), ("nodes", "10 abc"), ("nodes", ""),
    ])
    def test_unparsable_value_names_its_flag(self, tmp_path, capsys, key, value):
        rc = cli.main(["bench", "s1", f"--{key}", value,
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {key}: ")

    @pytest.mark.parametrize("pi", ["0.5,0.5", "0.2,0.2,0.3,0.3"])
    def test_generate_pi_must_match_k(self, tmp_path, capsys, pi):
        rc = cli.main(["generate", "--nodes", "50", "--k", "3", "--pi", pi,
                       "--out", str(tmp_path / "g.edges")])
        assert rc == 2 and not (tmp_path / "g.edges").exists()
        n_entries = len(pi.split(","))
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: pi must have K=3 entries, got {n_entries}"]

    def test_readme_commands_parse(self, tmp_path, swept):
        # The CLI examples in the README must not name a removed subcommand
        # or flag, and each bench example must resolve to a sweep: no
        # setting its scenario leaves unread. No trial runs.
        commands = readme_commands()
        assert commands
        for argv in commands:
            try:
                args = cli.build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: sscluster {shlex.join(argv)}")
            if args.command == "bench":
                args.out = str(tmp_path / "x.csv")
                try:
                    bench.run_scenario(cli._bench_config(args))
                except ValueError as exc:
                    pytest.fail(f"README command fails: sscluster {shlex.join(argv)}: {exc}")
        assert len(swept) == sum(argv[0] == "bench" for argv in commands)
        # The README's settings sentence names exactly the bench flags.
        readme = (ROOT / "README.md").read_text()
        sentence = re.search(r"settings are its flags(.*?)\.", readme, flags=re.S).group(1)
        assert sorted(re.findall(r"`--([^`]+)`", sentence)) == sorted(cli._BENCH_FLAGS)

    def test_eval_has_no_k_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["eval", "a", "b", "--k", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --k 3" in capsys.readouterr().err

    def test_bench_has_no_config_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench", "s1", "--config", "x.cfg"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --config x.cfg" in capsys.readouterr().err

    def test_bench_has_no_k_flag(self, capsys):
        # Sweeps plant bench.SWEEP_K = 3 communities.
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench", "s1", "--k", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --k 3" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        pytest.param(["s1", "--pi", "0.3,0.3,0.4"], id="pi"),
        pytest.param(["s4", "--method", "srs"], id="method"),
    ])
    def test_bench_has_no_pi_or_method_flag(self, tmp_path, capsys, no_trial, argv):
        # Community sizes come from --delta, and every trial runs srs and dcs.
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench", *argv, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: sscluster")
        assert f"unrecognized arguments: {shlex.join(argv[1:])}" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("case", list(NO_DIR_ARGV))
    def test_output_path_is_checked_before_any_stage(self, tmp_path, monkeypatch,
                                                     case):
        def stage(*args, **kwargs):
            raise AssertionError("a stage ran")
        monkeypatch.setattr(graph, "graph_from_file", stage)
        monkeypatch.setattr(sbm, "generate_adjacency", stage)
        assert cli.main([a.format(tmp=tmp_path) for a in NO_DIR_ARGV[case]]) == 2
        assert list(tmp_path.iterdir()) == []

    def test_bench_invalid_config_exits_nonzero(self, tmp_path):
        rc = cli.main(["bench", "s4", "--nodes", "60", "--trials", "1",
                       "--out", str(tmp_path / "x.csv"), "--beta", "1.5"])
        assert rc == 2

    # Explicit ids: deleting a row leaves the names of the others alone.
    @pytest.mark.parametrize("argv", [
        pytest.param(["cluster", "--edges", "{tmp}/missing.edges", "--n", "10"],
                     id="argv0"),
        pytest.param(["eval", "{tmp}/missing1", "{tmp}/missing2"], id="argv1"),
        pytest.param(["generate", "--nodes", "0", "--out", "{tmp}/g.edges"], id="argv5"),
        pytest.param(["generate", "--nodes", "10", "--beta", "2", "--out", "{tmp}/g.edges"],
                     id="argv6"),
        pytest.param(["generate", "--nodes", "10", "--k", "0", "--out", "{tmp}/g.edges"],
                     id="argv7"),
        pytest.param(["generate", "--nodes", "10", "--k", "3", "--pi", "0.5,0.5",
                      "--out", "{tmp}/g.edges"], id="argv8"),
        pytest.param(["generate", "--nodes", "10", "--k", "3", "--pi", "0.2,0.2,0.3,0.3",
                      "--out", "{tmp}/g.edges"], id="argv9"),
        pytest.param(["bench", "s4", "--jobs", "0", "--out", "{tmp}/x.csv"], id="argv10"),
        pytest.param(["cluster", "--edges", "{tmp}/missing.edges", "--method", "full",
                      "--n", "5"], id="argv11"),
        pytest.param(["cluster", "--edges", "{tmp}/missing.edges", "--k", "two", "--n", "5"],
                     id="argv12"),
        pytest.param(["cluster", "--edges", "{tmp}/missing.edges", "--method", "dcs"],
                     id="argv13"),
        # Sweeps plant bench.SWEEP_K = 3 communities, so a subsample of fewer
        # nodes is rejected before any trial: s2's n, and s1's n from
        # subsample_size_rule.
        pytest.param(["bench", "s2", "--n", "2", "--out", "{tmp}/x.csv"], id="argv14"),
        pytest.param(["bench", "s1", "--nodes", "2", "--out", "{tmp}/x.csv"], id="argv15"),
        pytest.param(["cluster", "--edges", "{tmp}/loops.edges", "--method", "full",
                      "--k", "1", "--out", "{tmp}/r"], id="argv16"),
        # argv17 asks for about 7 PiB, which fails at once and allocates
        # nothing; argv18 meets the graph's node bound first.
        pytest.param(["generate", "--nodes", "1000000000000000", "--out", "{tmp}/g.edges"],
                     id="argv17"),
        pytest.param(["cluster", "--edges", "{tmp}/loops.edges", "--nodes",
                      "1000000000000000", "--n", "2", "--out", "{tmp}/r"], id="argv18"),
        # An empty output path, or one that cannot be written, is rejected
        # before any trial runs.
        pytest.param(["bench", "s4", "--trials", "1", "--out", ""], id="argv19"),
        pytest.param(["bench", "s4", "--trials", "1", "--out", "{tmp}/no_dir/x.csv"],
                     id="argv20"),
        # dcs's degree partition of a 4-cycle leaves two clusters empty,
        # which it logs as a warning, before n < K stops it.
        pytest.param(["cluster", "--edges", "{tmp}/cycle.edges", "--method", "dcs",
                      "--n", "2", "--k", "3", "--out", "{tmp}/r"], id="argv21"),
        pytest.param(["bench", "s1", "--trials", "0", "--out", "{tmp}/x.csv"], id="argv22"),
        pytest.param(["eval", "{tmp}/three.labels", "{tmp}/two.labels"], id="argv24"),
        pytest.param(["cluster", "--edges", "{tmp}/cycle.edges", "--n", "2", "--k", "0",
                      "--out", "{tmp}/r"], id="argv25"),
        # s4's imbalance pi = (1/3 - delta, 1/3, 1/3 + delta) is checked per cell.
        pytest.param(["bench", "s4", "--delta", "0.1,0.4", "--out", "{tmp}/x.csv"],
                     id="argv26"),
        # A negative node count reaches the graph build's own check.
        pytest.param(["cluster", "--edges", "{tmp}/cycle.edges", "--nodes", "-4",
                      "--n", "2", "--out", "{tmp}/r"], id="argv27"),
        # A label that is no integer: the error names its file and line.
        pytest.param(["eval", "{tmp}/float.labels", "{tmp}/two.labels"], id="argv28"),
        # A bad id names its file line, counting comment and blank lines.
        pytest.param(["cluster", "--edges", "{tmp}/float.edges", "--n", "2"], id="argv29"),
        pytest.param(["cluster", "--edges", "{tmp}/big.edges", "--n", "2"], id="argv30"),
        pytest.param(["eval", "{tmp}/two.labels", "{tmp}/x.labels"], id="argv31"),
        # A superscript digit is no decimal integer.
        pytest.param(["cluster", "--edges", "{tmp}/missing.edges", "--k", "²",
                      "--n", "5"], id="argv32"),
        pytest.param(["generate", "--nodes", "10", "--k", "3", "--pi", "nan,nan,nan",
                      "--out", "{tmp}/g.edges"], id="argv33"),
        # A NaN delta fails its cell's community-probability check.
        pytest.param(["bench", "s4", "--delta", "nan", "--out", "{tmp}/x.csv"],
                     id="argv34"),
        # With --nodes, an id outside [0, nodes) names its file line.
        pytest.param(["cluster", "--edges", "{tmp}/oor.edges", "--nodes", "3", "--n", "2",
                      "--out", "{tmp}/r"], id="argv36"),
        pytest.param(["cluster", "--edges", "{tmp}/neg.edges", "--nodes", "3", "--n", "2",
                      "--out", "{tmp}/r"], id="argv37"),
        # The Gram guard stops a sweep before cell 0's trials, not at cell 1.
        pytest.param(["bench", "s2", "--nodes", "4100", "--n", "100,4050", "--trials", "1",
                      "--out", "{tmp}/x.csv"], id="argv41"),
        # Each axis lists strictly ascending values, so no cell repeats.
        pytest.param(["bench", "s2", "--nodes", "60", "--n", "30,8", "--out", "{tmp}/x.csv"],
                     id="argv42"),
        pytest.param(["bench", "s1", "--nodes", "60,60", "--out", "{tmp}/x.csv"],
                     id="argv43"),
        pytest.param(["bench", "s4", "--trials", "1", "--out", "{tmp}"], id="argv44"),
        *(pytest.param(argv, id=case) for case, argv in NO_DIR_ARGV.items()),
    ])
    def test_bad_input_is_one_error_line(self, tmp_path, capsys, request, no_trial,
                                         argv):
        (tmp_path / "loops.edges").write_text("5 5\n7 7\n")  # no edges left
        (tmp_path / "cycle.edges").write_text(CYCLE)
        (tmp_path / "three.labels").write_text("0 1\n1 2\n2 1\n")
        (tmp_path / "two.labels").write_text("0 1\n1 2\n")
        (tmp_path / "float.labels").write_text("0 1\n1 1.5\n")
        (tmp_path / "float.edges").write_text("# c\n\n0 1\n1 2.5\n")
        (tmp_path / "big.edges").write_text("# c\n\n0 1\n1 2\n99999999999999999999 3\n")
        (tmp_path / "x.labels").write_text("# labels\n\n0 1\n1 x\n")
        (tmp_path / "oor.edges").write_text("# c\n0 1\n1 7\n")
        (tmp_path / "neg.edges").write_text("0 1\n1 -2\n")
        argv = [a.format(tmp=tmp_path) for a in argv]
        rc = cli.main(argv)
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(("error: ", "config error: "))
        if request.node.callspec.id in EXACT_ERRORS:
            assert err == [EXACT_ERRORS[request.node.callspec.id].format(tmp=tmp_path)]
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("n, stderr", [
        ("4", []), ("2", ["error: need 1 <= K <= n, got K=3, n=2"])],
        ids=["runs", "fails"])
    def test_warnings_stay_off_stderr(self, tmp_path, n, stderr):
        # In a fresh process, where nothing has configured logging: pytest's
        # own log handlers would keep logging's last-resort handler quiet.
        (tmp_path / "cycle.edges").write_text(CYCLE)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run(
            [sys.executable, "-m", "sscluster.cli", "cluster", "--edges",
             str(tmp_path / "cycle.edges"), "--method", "dcs", "--n", n, "--k", "3",
             "--out", str(tmp_path / "r")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.stderr.splitlines() == stderr

    def test_dcs_warnings_are_still_logged(self, tmp_path, caplog):
        (tmp_path / "cycle.edges").write_text(CYCLE)
        with caplog.at_level(logging.WARNING, logger="sscluster"):
            rc = cli.main(["cluster", "--edges", str(tmp_path / "cycle.edges"),
                           "--method", "dcs", "--n", "4", "--k", "3",
                           "--out", str(tmp_path / "r")])
        assert rc == 0
        assert [(r.name, r.levelno) for r in caplog.records] == [
            ("sscluster.sampling", logging.WARNING)]
