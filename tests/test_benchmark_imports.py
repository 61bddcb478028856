"""The benchmark harness under ``ledger/`` imports from ``src/``.

It is run from its own checkout, outside this suite, so a rename or
deletion of a library name it uses would otherwise surface only when
the benchmark runs.  Importing each of its modules here turns that into
a tier-1 failure.
"""

import importlib
from pathlib import Path

import pytest

pytestmark = pytest.mark.fast

ROOT = Path(__file__).resolve().parent.parent

MODULES = ["deploy", "drive", "layers", "measure", "spans", "stats", "workloads", "run"]


@pytest.mark.parametrize("name", MODULES)
def test_benchmark_module_imports(monkeypatch, name):
    monkeypatch.syspath_prepend(str(ROOT))
    importlib.import_module(f"ledger.{name}")
