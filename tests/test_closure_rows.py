"""NI closure rows in J(R)<x>: decided by one mask test, never as polynomials.

When the scan's certificate J applies (J(R) Sigma-Delta-invariant, with
J(R)^t = 0 for some t within the exponent cap), `_probe_rows` counts every
nonzero row whose coefficients all lie in J as a nilpotent check and
sends only the other rows through `scan.probe`.  On the corpus a block holds
either certified rows only or none, so the property test below builds blocks
that mix both and compares them with the plain per-row walk.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skewpbw import corpus
from skewpbw.extension import DenseProducts
from skewpbw.maps import multi_indices
from skewpbw.probes import UNKNOWN, BoundedScan, NICheckResult, _probe_rows, bounded_NI_check

MAX_NONZERO = 3  # coefficients per generated row: keeps each probe cheap


def _caps(entry):
    b = entry.budget
    return b["degree_cap"], b["support_cap"], b["exponent_cap"]


@pytest.fixture(scope="module", params=["poly_z4_2v", "clifford_trunc_2"])
def certified(request):
    """(scan, dense, scanned rows) of an entry whose certificate has a nonzero J.

    The rows of the scanned polynomials come with those left unknown first.
    Support 3 leaves some unknown (8 and 960), where the recorded budgets
    leave none.
    """
    entry = corpus.BUILDERS[request.param]()
    A = entry.presentation
    caps = (2, 3, 8)
    scan = BoundedScan(A, *caps)
    assert scan.certificate is not None and scan.certificate.mask[1:].any()
    dense = DenseProducts(A, multi_indices(A.n, 0, caps[0]))
    polys = sorted(scan.polys, key=lambda f: scan.status[f].status != UNKNOWN)
    assert scan.status[polys[0]].status == UNKNOWN
    scanned = np.zeros((len(polys), len(dense.out_monos)), dtype=np.int32)
    scanned[:, [dense.out_monos.index(a) for a in dense.monos]] = dense.keys(polys)
    return scan, dense, scanned, scan.scan_unknown


def _walk(scan, dense, rows):
    """The per-row walk: every nonzero row becomes a polynomial and is probed."""
    checks = unknown = 0
    for i, row in enumerate(rows):
        if not row.any():
            continue
        checks += 1
        r = scan.probe(dense.poly(row, dense.out_monos))
        if r.proved_not_nilpotent:
            return checks, unknown, i
        unknown += r.status == UNKNOWN
    return checks, unknown, None


@st.composite
def _blocks(draw, scanned, n_unknown, mask):
    """Rows in J<x> mixed with rows outside it, repeated and shuffled, cut in two.

    Rows outside J<x> are zero rows, random rows with a coefficient outside
    J, and rows of scanned polynomials: unknown ones, or any.
    """
    width = scanned.shape[1]
    in_J = [int(e) for e in np.flatnonzero(mask) if e]
    outside = [int(e) for e in np.flatnonzero(~mask)]

    def random_row(first_pool, rest_pool):
        cols = draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=MAX_NONZERO, unique=True))
        row = [0] * width
        for k, c in enumerate(cols):
            row[c] = draw(st.sampled_from(first_pool if k == 0 else rest_pool))
        return row

    certified = [random_row(in_J, in_J) for _ in range(draw(st.integers(1, 3)))]
    others = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["unknown", "scanned", "random", "zero"]))
        if kind != "random" and kind != "zero":
            last = n_unknown if kind == "unknown" else len(scanned)
            others.append(scanned[draw(st.integers(0, last - 1))].tolist())
        elif kind == "random":
            others.append(random_row(outside, in_J + outside))
        else:
            others.append([0] * width)
    distinct = certified + others
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), max_size=10))
    picks = draw(st.permutations(picks + [0, len(certified)]))
    rows = np.array([distinct[i] for i in picks], dtype=np.int32)
    return rows, draw(st.integers(1, len(rows)))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_bulk_decision_matches_per_row_walk(certified, data):
    scan, dense, scanned, n_unknown = certified
    mask = scan.certificate.mask
    rows, cut = data.draw(_blocks(scanned, n_unknown, mask))
    seen: dict = {}
    checks = unknown = 0
    hit = None
    for lo, hi in ((0, cut), (cut, len(rows))):
        c, u, h = _probe_rows(scan, dense, rows[lo:hi], dense.out_monos, seen)
        checks += c
        unknown += u
        if h is not None:
            hit = (lo + h[0], h[1], h[2])
            break
    assert (checks, unknown, None if hit is None else hit[0]) == _walk(scan, dense, rows)
    if hit is not None:
        f = dense.poly(rows[hit[0]], dense.out_monos)
        assert hit[1] == f and hit[2] == scan.probe(f)
    # only rows outside J<x> were remembered
    assert all(not mask[np.frombuffer(key, dtype=np.int32)].all() for key in seen)


def test_counts_stop_at_the_hit(certified):
    # certified, unknown, not nilpotent, unknown again: the repeat after the
    # hit is not a check, though it is a row of the same sub-block
    scan, dense, scanned, _ = certified
    J_row = np.zeros(scanned.shape[1], dtype=np.int32)
    J_row[0] = np.flatnonzero(scan.certificate.mask)[1]
    statuses = [scan.probe(dense.poly(row, dense.out_monos)) for row in scanned]
    unknown_row = scanned[0]
    hit_row = scanned[next(i for i, r in enumerate(statuses) if r.proved_not_nilpotent)]
    rows = np.array([J_row, unknown_row, hit_row, unknown_row])
    c, u, hit = _probe_rows(scan, dense, rows, dense.out_monos, {})
    assert (c, u, hit[0]) == _walk(scan, dense, rows) == (3, 1, 2)


def test_certified_closure_builds_no_polynomial(q8_twisted, monkeypatch):
    A = q8_twisted.presentation
    caps = _caps(q8_twisted)
    scan = BoundedScan(A, *caps)
    calls = []
    real = DenseProducts.poly

    def counting(self, key, monos):
        calls.append(key)
        return real(self, key, monos)

    monkeypatch.setattr(DenseProducts, "poly", counting)
    result = bounded_NI_check(A, *caps, scan=scan)
    assert result.status == NICheckResult.CONSISTENT
    assert result.stats["closure_checks"] == 281_987
    assert calls == []
