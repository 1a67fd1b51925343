"""Golden outputs: fixed-seed runs of ``generate``, ``cluster`` and ``bench``
keep their bytes.

``tests/data/golden/`` holds what ``COMMANDS`` write:
- the CSVs of four small ``bench`` sweeps, one per scenario, with their
  ``t_*`` fields blanked, since stage seconds vary from run to run;
- the ``generate`` edge and label files;
- the ``.labels`` and ``.sample`` files of ``cluster`` with srs, dcs and
  full, each at ``--k 3`` and ``--k auto``.
The edge-list sidecar that ``cluster`` leaves is a cache, not an output,
and is not kept.

The bits rest on numpy's ``Generator`` streams and on LAPACK, so
``versions.txt`` records the numpy and scipy versions that made the files.
The test runs on any version and never skips. On a mismatch it names the
first line that differs, with the recorded and the running versions, so
that a changed library can be told from a changed result. A change that
moves seeded results regenerates the files and commits them, so that the
diff shows each changed row:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import csv
import io
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from sscluster import bench, cli

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
VERSIONS = "versions.txt"

# Each argv names its files relative to the working directory, {work}.
COMMANDS = [
    ["generate", "--nodes", "300", "--beta", "0.2", "--seed", "3",
     "--out", "{work}/g.edges", "--labels-out", "{work}/g.labels"],
    *(["bench", *argv, "--trials", "2", "--seed", "3", "--out", f"{{work}}/{argv[0]}.csv"]
      for argv in (["s1", "--nodes", "200,400"],
                   ["s2", "--nodes", "400", "--n", "20,60"],
                   ["s3", "--nodes", "300", "--n", "30", "--beta", "0.3,0.6",
                    "--zeta", "0.05,0.5"],
                   ["s4", "--nodes", "400", "--n", "30"])),
    *(["cluster", "--edges", "{work}/g.edges", "--method", method, *size,
       "--k", k, "--seed", "3", "--out", f"{{work}}/{method}_k{k}"]
      for method, size in (("srs", ["--n", "40"]), ("dcs", ["--n", "40"]), ("full", []))
      for k in ("3", "auto")),
]


def versions() -> str:
    return f"numpy {np.__version__}\nscipy {scipy.__version__}\n"


def _without_timing(path: Path) -> bytes:
    """The bench CSV at ``path`` with its t_* fields blanked."""
    with open(path, newline="") as fh:
        version = fh.readline()
        header, *rows = csv.reader(fh)
    text = io.StringIO()
    text.write(version)
    w = csv.writer(text)
    w.writerow(header)
    for row in rows:
        w.writerow(["" if col in bench.TIMING_COLUMNS else value
                    for col, value in zip(header, row)])
    return text.getvalue().encode()


def golden_outputs(work: Path) -> dict[str, bytes]:
    """Run ``COMMANDS`` in ``work`` and return their outputs' bytes by file
    name."""
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in COMMANDS:
            argv = [a.format(work=work) for a in argv]
            if cli.main(argv) != 0:
                raise RuntimeError(f"sscluster {' '.join(argv)} failed")
    return {path.name: _without_timing(path) if path.suffix == ".csv"
            else path.read_bytes()
            for path in sorted(work.iterdir())
            if not path.name.endswith(".sscluster.npz")}


def _first_difference(name: str, golden: bytes, running: bytes) -> str:
    want, got = golden.decode().splitlines(), running.decode().splitlines()
    line = next((i for i, (a, b) in enumerate(zip(want, got)) if a != b),
                min(len(want), len(got)))
    return "\n".join([
        f"{name}:{line + 1} differs from the golden file",
        f"  golden:  {want[line] if line < len(want) else '(end of file)'}",
        f"  running: {got[line] if line < len(got) else '(end of file)'}",
        "golden files made with "
        + ", ".join((GOLDEN / VERSIONS).read_text().splitlines()),
        "running " + ", ".join(versions().splitlines()),
    ])


def test_outputs_match_the_golden_files(tmp_path):
    running = golden_outputs(tmp_path)
    golden = {path.name: path.read_bytes() for path in sorted(GOLDEN.iterdir())
              if path.name != VERSIONS}
    assert sorted(running) == sorted(golden)
    for name, data in golden.items():
        if running[name] != data:
            pytest.fail(_first_difference(name, data, running[name]), pytrace=False)


def regenerate() -> None:
    """Rewrite the golden files and their versions from the running code."""
    with tempfile.TemporaryDirectory() as work:
        outputs = golden_outputs(Path(work))
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for old in GOLDEN.iterdir():
        old.unlink()
    for name, data in outputs.items():
        (GOLDEN / name).write_bytes(data)
    (GOLDEN / VERSIONS).write_text(versions())
    print(f"wrote {len(outputs)} files and {VERSIONS} to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
