"""The latency ledger's traced hooks still resolve.

``benchmarks/ledger/trace.py`` times the layers of ``repro`` by wrapping
every function its ``BOUNDARIES`` table names (plus
``MILPBuilder.set_warm_start``); ``Tracer.install()`` crashes on a target
that was deleted or renamed, and every traced ledger run with it.  This
reads the table without installing anything.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACE = Path(__file__).resolve().parents[1] / "benchmarks" / "ledger" / "trace.py"


def _ledger_trace():
    spec = importlib.util.spec_from_file_location("ledger_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name: str, qualname: str):
    target = importlib.import_module(module_name)
    for attr in qualname.split("."):
        target = getattr(target, attr, None)
    return target


def test_every_ledger_boundary_resolves():
    boundaries = _ledger_trace().BOUNDARIES
    assert boundaries
    targets = [(module, qualname) for _, module, qualname, _ in boundaries]
    targets.append(("repro.solver.model", "MILPBuilder.set_warm_start"))
    missing = [
        f"{module}:{qualname}"
        for module, qualname in targets
        if not callable(_resolve(module, qualname))
    ]
    assert not missing, missing
