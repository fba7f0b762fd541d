"""NI closure rows in J(R)<x>: decided by one mask test or one join, never as polynomials.

When the scan's certificate J applies (J(R) Sigma-Delta-invariant, with
J(R)^t = 0 for some t within the exponent cap), `_probe_rows` counts every
nonzero row whose coefficients all lie in J as a nilpotent check and
sends only the other rows through `scan.probe`.  A factor in J<x> has all
its rows there, and `bounded_NI_check` counts them by the zero products
that `_count_zero_products` counts.  On the corpus a block holds either certified
rows only or none, and the proved nilpotents are all certified or none, so
the property tests below mix both and compare them with the plain per-row
walk and the scalar scan.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skewpbw import corpus, probes
from skewpbw.extension import AtomTable, make_extension, verify_presentation
from skewpbw.maps import SigmaSystem, make_endomorphism, multi_indices
from skewpbw.probes import (
    UNKNOWN,
    BoundedScan,
    NICheckResult,
    _probe_rows,
    _count_zero_products,
    _row_ids,
    _zero_products,
    bounded_NI_check,
    replay_violation,
)
from skewpbw.rings import Ideal

from scan_oracles import listed_pairs
from test_dense import oracle_NI_check, scalar_reference

MAX_NONZERO = 3  # coefficients per generated row: keeps each probe cheap


def _caps(entry):
    b = entry.budget
    return b["degree_cap"], b["support_cap"], b["exponent_cap"]


@pytest.fixture(scope="module", params=["poly_z4_2v", "clifford_trunc_2"])
def certified(request):
    """(scan, table, scanned rows, unknowns) of an entry whose certificate has a nonzero J.

    The rows of the scanned polynomials come with those left unknown first.
    Support 3 leaves some unknown (8 and 960), where the recorded budgets
    leave none.
    """
    entry = corpus.BUILDERS[request.param]()
    A = entry.presentation
    caps = (2, 3, 8)
    scan = BoundedScan(A, *caps)
    assert scan.certificate is not None and scan.certificate.mask[1:].any()
    table = AtomTable(A, multi_indices(A.n, 0, caps[0]))
    order = np.argsort(scan.status != BoundedScan.UNKNOWN_CODE, kind="stable")
    assert scan.status[order[0]] == BoundedScan.UNKNOWN_CODE
    scanned = np.zeros((len(order), len(table.out_monos)), dtype=np.int32)
    scanned[:, [table.out_monos.index(a) for a in table.monos]] = scan.keys[order]
    return scan, table, scanned, scan.scan_unknown


def _walk(scan, table, rows):
    """The per-row walk: every nonzero row becomes a polynomial and is probed."""
    checks = unknown = 0
    for i, row in enumerate(rows):
        if not row.any():
            continue
        checks += 1
        r = scan.probe(table.poly(row, table.out_monos))
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
    scan, table, scanned, n_unknown = certified
    mask = scan.certificate.mask
    rows, cut = data.draw(_blocks(scanned, n_unknown, mask))
    scan.closure_probes.clear()  # the walk below probes rows in J<x> too
    checks = unknown = 0
    hit = None
    for lo, hi in ((0, cut), (cut, len(rows))):
        c, u, h = _probe_rows(scan, table, rows[lo:hi], table.out_monos)
        checks += c
        unknown += u
        if h is not None:
            hit = (lo + h[0], h[1], h[2])
            break
    # only rows outside J<x> were probed and remembered
    assert all(not mask[list(f.terms.values())].all() for f in scan.closure_probes)
    assert (checks, unknown, None if hit is None else hit[0]) == _walk(scan, table, rows)
    if hit is not None:
        f = table.poly(rows[hit[0]], table.out_monos)
        assert hit[1] == f and hit[2] == scan.probe(f)


def test_counts_stop_at_the_hit(certified):
    # certified, unknown twice, not nilpotent, unknown again: each occurrence
    # before the hit is an unknown check; the repeat after the hit is not a
    # check, though it is a row of the same sub-block
    scan, table, scanned, _ = certified
    J_row = np.zeros(scanned.shape[1], dtype=np.int32)
    J_row[0] = np.flatnonzero(scan.certificate.mask)[1]
    statuses = [scan.probe(table.poly(row, table.out_monos)) for row in scanned]
    unknown_row = scanned[0]
    hit_row = scanned[next(i for i, r in enumerate(statuses) if r.proved_not_nilpotent)]
    rows = np.array([J_row, unknown_row, unknown_row, hit_row, unknown_row])
    c, u, hit = _probe_rows(scan, table, rows, table.out_monos)
    assert (c, u, hit[0]) == _walk(scan, table, rows) == (4, 2, 3)


def test_certified_closure_builds_no_polynomial(q8_twisted, monkeypatch):
    A = q8_twisted.presentation
    caps = _caps(q8_twisted)
    scan = BoundedScan(A, *caps)
    calls = []
    real = AtomTable.poly

    def counting(self, key, monos):
        calls.append(key)
        return real(self, key, monos)

    monkeypatch.setattr(AtomTable, "poly", counting)
    result = bounded_NI_check(scan)
    assert result.status == NICheckResult.CONSISTENT
    assert result.stats["closure_checks"] == 281_987
    assert calls == []


# ---------------------------------------------------------------------------
# the join of value rows
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_join_matches_row_walk(certified, data):
    # factors in J<x>, outside it and random full rows, in one block; every
    # zero product the join finds is a zero row of the walk over all h, and
    # the other way round, and the rows are the engine's products
    scan, table, _, _ = certified
    K = scan.keys
    in_J = scan.certificate.mask[K].all(axis=1)
    kinds = data.draw(st.lists(st.sampled_from(["certified", "uncertified", "random"]), min_size=1, max_size=5))
    factors = []
    width = K.shape[1]
    for kind in kinds + ["certified", "uncertified"]:
        if kind == "random":
            factors.append(data.draw(st.lists(st.integers(0, table.size - 1), min_size=width, max_size=width)))
        else:
            pool = np.flatnonzero(in_J if kind == "certified" else ~in_J)
            factors.append(K[pool[data.draw(st.integers(0, len(pool) - 1))]].tolist())
    Kf = np.array(factors, dtype=np.int32)
    sample = data.draw(st.lists(st.integers(0, len(K) - 1), min_size=1, max_size=4))
    for values, left in ((table.left_values, True), (table.right_values, False)):
        V = values(Kf)
        F, G = listed_pairs(_zero_products(table, V, 3))
        assert len(F) == _count_zero_products(table, V, 3)
        walk = [(i, int(j)) for i in range(len(Kf)) for j in np.flatnonzero(~table.products(V[i], K).any(axis=1))]
        assert list(zip(F.tolist(), G.tolist())) == walk
        for i, key in enumerate(Kf):
            f = table.poly(key, table.monos)
            for j in sample:
                h = scan.poly(j)
                row = table.products(V[i], K[j : j + 1])[0]
                assert table.poly(row, table.out_monos) == (h * f if left else f * h)


@pytest.fixture(scope="module")
def swap_z4():
    """sigma(R)<x> over R = Z_2 x Z_2 x Z_4, sigma swapping the two Z_2.

    J(R) = 0 x 0 x 2Z_4 is sigma-invariant with J^2 = 0, so the certificate
    applies; (1,0,0) x is nilpotent outside J<x>, and (1,1,0) x is not
    nilpotent.  So certified and uncertified proved nilpotents alternate,
    and the NI check finds a violation.
    """
    ring = corpus.product_ring(corpus.product_ring(corpus.zn(2), corpus.zn(2)), corpus.zn(4))
    swap = make_endomorphism(ring, [[0, 1, 0], [1, 0, 0], [0, 0, 1]], name="swap x id")
    return verify_presentation(make_extension(ring, SigmaSystem([swap]), name="swap_z4"))


@pytest.mark.parametrize("caps", [(1, 1, 8), (1, 2, 8), (2, 2, 8)])
@pytest.mark.parametrize("entries", [probes.ROW_ENTRIES, 1])
def test_mixed_certified_factors_match_scalar_scan(swap_z4, caps, entries, monkeypatch):
    monkeypatch.setattr(probes, "ROW_ENTRIES", entries)
    scan = BoundedScan(swap_z4, *caps)
    J = scan.certificate.mask
    certified = [bool(J[list(scan.poly(i).terms.values())].all()) for i in scan.nilpotent_rows]
    assert any(certified) and not all(certified)
    ref = oracle_NI_check(BoundedScan(swap_z4, *caps))
    got = bounded_NI_check(scan)
    assert got.status == ref.status == NICheckResult.VIOLATION
    assert got.stats == ref.stats
    assert got.witness == ref.witness


@pytest.mark.parametrize("name, caps", [("poly_z4_2v", (2, 2, 8)), ("euler_like_3", (2, 1, 8))])
def test_uncertified_walk_matches_scalar_scan(name, caps):
    # with the certificate off, every open closure row is walked through
    # scan.probe, as the scalar scan probes it: the same polynomials are
    # probed outside the scanned set (185 and 344 of them)
    A = corpus.BUILDERS[name]().presentation
    scan = BoundedScan(A, *caps)
    scan.certificate = None
    ref_scan = BoundedScan(A, *caps)
    ref = oracle_NI_check(ref_scan)
    got = bounded_NI_check(scan)
    assert (got.status, got.stats, got.witness) == (ref.status, ref.stats, ref.witness)
    assert scan.closure_probes == ref_scan.closure_probes
    assert len(scan.closure_probes) == {"poly_z4_2v": 185, "euler_like_3": 344}[name]


@pytest.fixture(scope="module")
def cycle_z2_cubed():
    """sigma(R)<x> over R = Z_2^3, sigma shifting the three coordinates cyclically.

    For c != 1, (c x^a)^k has the coefficient c sigma^a(c) ... sigma^((k-1)a)(c),
    which is 0 by k = 3 when a is 1 or 2, so every product of a proved
    nilpotent c x with a polynomial of degree <= 1 and one term is
    nilpotent or 0.  Yet e_1 x + e_2 x + e_3 x = x is not nilpotent: at
    (1, 1, 8) the NI check first fails in the sum face.
    """
    z2 = corpus.zn(2)
    ring = corpus.product_ring(corpus.product_ring(z2, z2), z2)
    shift = make_endomorphism(ring, [[0, 1, 0], [0, 0, 1], [1, 0, 0]], name="cyclic shift")
    return verify_presentation(make_extension(ring, SigmaSystem([shift]), name="cycle_z2_cubed"))


@pytest.mark.parametrize("entries", [probes.ROW_ENTRIES, 1])
def test_sum_witness_is_the_first_failing_pair(cycle_z2_cubed, entries, monkeypatch):
    monkeypatch.setattr(probes, "ROW_ENTRIES", entries)
    caps = (1, 1, 8)
    ref = oracle_NI_check(BoundedScan(cycle_z2_cubed, *caps))
    got = bounded_NI_check(BoundedScan(cycle_z2_cubed, *caps))
    assert got.status == ref.status == NICheckResult.VIOLATION
    assert got.witness["kind"] == ref.witness["kind"] == "sum"
    # (f, g) in the order of the scalar sum loop: f before g among the proved nilpotents
    assert (got.witness["f"], got.witness["g"]) == (ref.witness["f"], ref.witness["g"])
    assert got.witness["f"] != got.witness["g"]
    assert got.witness == ref.witness and got.stats == ref.stats
    assert got.witness["result"] == got.witness["f"] + got.witness["g"]
    assert replay_violation(got.witness, exponent_cap=caps[2])


@settings(max_examples=8, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", ["poly_z4_2v", "clifford_trunc_2"])
def test_partly_certified_factors_match_scalar_scan(name, data):
    # A certificate J' inside J makes only the factors in J'<x> certified,
    # so runs of joined factors alternate with factors whose rows are
    # formed.  Every row is in J<x> and nilpotent either way, so the counts
    # are the scalar scan's.  The probes are copied from it: they are the
    # same nilpotency_probe results at the same cap.
    entry, ref_scan, ref = scalar_reference(name)
    A = entry.presentation
    caps = _caps(entry)
    scan = BoundedScan(A, *caps)
    scan.closure_probes.update(ref_scan.closure_probes)
    J = np.flatnonzero(scan.certificate.mask)
    kept = data.draw(st.sets(st.sampled_from(J[1:].tolist())))
    mask = np.zeros_like(scan.certificate.mask)
    mask[[0, *kept]] = True
    scan.certificate = Ideal.from_mask(A.base, mask)
    got = bounded_NI_check(scan)
    assert (got.status, got.stats, got.witness) == (ref.status, ref.stats, ref.witness)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_row_ids_are_exact(data):
    # wide rows over a large radix fold past int64 and are ranked on the way
    radix = data.draw(st.integers(2, 4096))
    width = data.draw(st.integers(1, 12))
    row = st.lists(st.integers(0, radix - 1), min_size=width, max_size=width)
    pool = data.draw(st.lists(row, min_size=1, max_size=6))
    picks = data.draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, len(pool) - 1)), min_size=1, max_size=20))
    labels = np.array([label for label, _ in picks])
    rows = np.array([pool[k] for _, k in picks], dtype=np.int32)
    ids = _row_ids(labels, rows, radix)
    for i in range(len(picks)):
        for j in range(len(picks)):
            assert (ids[i] == ids[j]) == (picks[i][0] == picks[j][0] and (rows[i] == rows[j]).all())
