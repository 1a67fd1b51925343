"""The benchmark harness under perfbench/ still finds every name it traces.

``perfbench/run.py --trace 1`` wraps ``(module, attr)`` pairs of the
package; a renamed or deleted function would only show up there as a
failed traced run. This test loads the harness without running it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
