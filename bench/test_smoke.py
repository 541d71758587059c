"""Smoke test of the benchmark harness: a tiny run of every workload.

    python3 -m pytest -q bench/test_smoke.py

Each run keeps only the first few jobs of its workload, so the exhaustive
miner and the 12-dimensional iso jobs are left out here.
"""

import json
import sys
import types

import pytest

import run
import tracer
from tracer import Tracer

LIMIT = {"fixtures": 12, "scale": 7, "mine": 3}
SEED = 3

with open(run.SPEC) as fh:
    SPEC = json.load(fh)


def _printed(record):
    doc = json.loads(run.result_line(record, SPEC))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    return doc


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _bindings():
    """Every attribute of every weakcp module, and of the traced classes."""
    out = {}
    for name, mod in sys.modules.items():
        if name == "weakcp" or name.startswith("weakcp."):
            for attr, value in vars(mod).items():
                out[name, attr] = value
                if isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        out[name, attr, cattr] = cvalue
    return out


def _from_tracer(value):
    """True for a wrapper made by tracer.py (or a property around one)."""
    fn = value.fget if isinstance(value, property) else value
    return (isinstance(fn, types.FunctionType)
            and fn.__code__.co_filename == tracer.__file__)


@pytest.mark.parametrize("workload", sorted(LIMIT))
def test_end_to_end_metrics_printed(workload):
    record = run.measure(workload, SEED, 0, 0, limit=LIMIT[workload])
    doc = _printed(record)
    assert doc["correct"] and doc["failed"] == 0, record["failures"]
    assert {n: m["unit"] for n, m in doc["metrics"].items()} == _units("end_to_end")
    assert doc["metrics"]["ok_ratio"]["value"] == 1.0
    assert all(m["value"] > 0 for m in doc["metrics"].values())
    assert record["passes"] == run.TAIL_PASSES[workload]
    assert record["job_tail"]["samples"] == run.TAIL_PASSES[workload] * LIMIT[workload]
    assert record["env"]["seed"] == SEED and record["env"]["backend"]


@pytest.mark.parametrize("workload", sorted(LIMIT))
def test_traced_metrics_printed_and_wrappers_gone(workload):
    record = run.measure(workload, SEED, 0, 1, limit=LIMIT[workload])
    doc = _printed(record)
    assert doc["correct"] and doc["failed"] == 0, record["failures"]
    assert {n: m["unit"] for n, m in doc["metrics"].items()} == _units("per_layer")
    assert doc["metrics"]["cli.build_parser.calls"]["value"] == LIMIT[workload]
    left = [key for key, value in _bindings().items() if _from_tracer(value)]
    assert left == []


def test_install_wraps_every_binding_and_uninstall_restores():
    eng = run.import_engine()
    before = _bindings()
    t = Tracer()
    t.install()
    try:
        kernel, fdvect = sys.modules["weakcp.kernel"], sys.modules["weakcp.fdvect"]
        assert kernel.mat_compose is not before["weakcp.kernel", "mat_compose"]
        assert fdvect.mat_compose is kernel.mat_compose
        assert eng["weakcp.cli"].main.__wrapped__ is before["weakcp.cli", "main"]
    finally:
        t.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_counts_repeat_across_traced_runs():
    def counts():
        record = run.measure("fixtures", SEED, 0, 1, limit=LIMIT["fixtures"])
        return {n: v for n, v in record["metrics"].items()
                if not n.endswith("_s")}

    first, second = counts(), counts()
    assert first == second
    assert first["kernel.mat_compose.madds"] > 0
