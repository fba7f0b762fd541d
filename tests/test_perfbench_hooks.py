"""The benchmark's hooks and checks still fit the package.

`perfbench/tracer.py` wraps package functions by (module, attribute) and its
skip functions read private caches, and `perfbench/checks.py` replays probe
results by their fields, and `perfbench/workloads.py` reads corpus entries
and calls the package; a rename or a changed contract would otherwise only
show at the next benchmark run.  The modules are loaded from their files,
not edited or installed, and each workload runs one round and its checks.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from skewpbw import corpus
from skewpbw.probes import BoundedScan, enumerate_bounded_polys, nilpotency_probe

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _load(stem):
    spec = importlib.util.spec_from_file_location(f"perfbench_{stem}", PERFBENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    for modname, attr, *_ in _load("tracer").TARGETS:
        owner = importlib.import_module(modname)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            assert attr in vars(owner), (modname, cls_name, attr)
        assert callable(getattr(owner, attr)), (modname, attr)


def test_skip_functions_read_attributes_that_exist():
    ring = corpus.zn(4)
    for name in ("_radical_cache", "_profile", "_mul_table"):
        assert hasattr(ring, name), name
    entry = corpus.swap_extension()
    scan = BoundedScan(entry.presentation, 1, 1, 4)
    assert scan.ni_result is None
    for modname, attr, _, _, skip in _load("tracer").TARGETS:
        if skip is None:
            continue
        if attr == "bounded_NI_check":
            assert skip((entry.presentation,), {"scan": scan}) is False
        else:
            assert modname == "skewpbw.rings", (modname, attr)
            skip((ring,), {})  # reads the ring's caches without raising


@pytest.mark.parametrize("name, caps", [("q8_twist", (1, 1)), ("poly_z4_2v", (2, 2))])
def test_probe_checks_accept_nilpotency_probe(name, caps):
    # check_probes replays a nilpotent result as f^index = 0 != f^(index-1):
    # every nilpotent probe must carry an integer index
    A = corpus.BUILDERS[name]().presentation
    results = [(f, nilpotency_probe(f, 8)) for f in enumerate_bounded_polys(A, *caps)]
    assert any(r.proved_nilpotent for _, r in results)
    assert _load("checks").check_probes(name, results, 8) == []


@pytest.mark.parametrize("name, caps", [("q8_twist", (1, 1)), ("poly_z4_2v", (2, 2))])
def test_probe_checks_accept_scan_results(name, caps):
    # the scan runs the ladder itself, so its results must replay the same way
    A = corpus.BUILDERS[name]().presentation
    results = list(BoundedScan(A, *caps, 8).results())
    assert any(r.proved_nilpotent for _, r in results)
    assert _load("checks").check_probes(name, results, 8) == []


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_round_passes_its_checks(name, monkeypatch, tmp_path):
    # one set-up, one timed round and the checks, as perfbench/run.py runs
    # them: the workloads read corpus entries and call the package directly
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = importlib.import_module("workloads").WORKLOADS[name]
    inputs = workload.setup(1, tmp_path)
    assert workload.check(inputs, workload.run(inputs)) == []
