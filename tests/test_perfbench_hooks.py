"""The benchmark's tracer hooks still fit the package.

`perfbench/tracer.py` wraps package functions by (module, attribute) and its
skip functions read private caches; a rename would otherwise only show at the
next traced benchmark run.  The tracer module is loaded from its file, not
edited or installed.
"""

import importlib
import importlib.util
from pathlib import Path

from skewpbw import corpus
from skewpbw.probes import BoundedScan

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    for modname, attr, *_ in _tracer().TARGETS:
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
    for modname, attr, _, _, skip in _tracer().TARGETS:
        if skip is None:
            continue
        if attr == "bounded_NI_check":
            assert skip((entry.presentation,), {"scan": scan}) is False
        else:
            assert modname == "skewpbw.rings", (modname, attr)
            skip((ring,), {})  # reads the ring's caches without raising
