"""Every function the benchmark tracer wraps still exists under its traced name.

``perfbench/tracer.py`` names the functions it wraps as ``<module>.<name>``
(``controller.OraclePolicy.query`` for a method) and resolves them only when
a traced benchmark run starts. A refactor that moves or renames one of them
would otherwise go unnoticed until ``perfbench/run.py --trace 1``. This test
resolves each name the way the tracer does; it only reads ``perfbench/``.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

sys.path.insert(0, str(PERFBENCH))
try:
    tracer = importlib.import_module("tracer")
finally:
    sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name", tracer.TRACED)
def test_traced_name_resolves(name):
    for layer in tracer.LAYERS:
        importlib.import_module(f"amr_navkit.{layer}")
    owner, attr = tracer._resolve(name)
    assert callable(getattr(owner, attr, None)), f"{name} no longer resolves"
