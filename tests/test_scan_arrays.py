"""The array-native bounded evidence against the loops it replaced (`scan_oracles`).

The scan's key rows, leading-chain answers and statuses, both value tables,
the counted zero products of J<x> factors and Armendariz's listed pairs are
compared with the old code on every corpus entry, at the recorded budget
and at `SearchBudget.doubled()`.  Then the lazily built module store, the
scan shared with Armendariz, the tracemalloc peak of one `check`, and the
map checks by index tables.
"""

import contextlib
import functools
import gc
import io
import itertools
import random
import tracemalloc
import weakref

import numpy as np
import pytest

from skewpbw import cli, corpus, defio, probes
from skewpbw.corpus import field4, matrix_upper, product_ring, trunc_poly, zn
from skewpbw.errors import LeibnizFails, NotMultiplicative, SkewPBWError
from skewpbw.extension import AtomTable, make_extension, verify_presentation
from skewpbw.harness import SearchBudget
from skewpbw.maps import identity_map, make_endomorphism, make_sigma_derivation, multi_indices
from skewpbw.modules import FiniteModules, finite_modules
from skewpbw.probes import (
    BoundedScan,
    _count_zero_products,
    _factor_block,
    _polys_over_monomials,
    _zero_products,
    bounded_skew_armendariz,
)
from scan_oracles import (
    coefficient_keys,
    listed_pairs,
    oracle_left_values,
    oracle_right_values,
    oracle_scan,
    oracle_zero_products,
)

BUDGETS = ("recorded", "doubled")
FACTORS = 200  # nilpotent factors per entry whose zero products are compared


def _budget(name, which):
    budget = SearchBudget(**corpus.BUILDERS[name]().budget)
    return budget.doubled() if which == "doubled" else budget


@functools.cache
def _scan(name, which):
    """(presentation, scan) of an entry at a budget, once per session."""
    A = corpus.BUILDERS[name]().presentation
    return A, BoundedScan(A, *_budget(name, which).caps())


# ---------------------------------------------------------------------------
# the scan
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("which", BUDGETS)
@pytest.mark.parametrize("name", sorted(corpus.BUILDERS))
def test_scan_matches_the_old_loops(name, which):
    # the same key rows, the same leading-chain answers, the same rows sent
    # on to the power chain or decided by the J(R)<x> mask, and the same
    # statuses.  At doubled budgets the old loops take the power-chain
    # results of the new scan for the rows both send there: `_power_chain`
    # is one function, run on equal polynomials, and the rows that reach it
    # are compared on their own.
    A, scan = _scan(name, which)
    b = _budget(name, which)
    chained = {}

    def power_chain(f, cap):
        chained[f] = scan.probe(f) if which == "doubled" else probes._power_chain(f, cap)
        return chained[f]

    polys, K, leading, status = oracle_scan(A, b.degree_cap, b.support_cap, b.exponent_cap, power_chain)
    assert scan.keys.dtype == np.int32 and np.array_equal(scan.keys, K)
    assert (scan.status == BoundedScan.LEADING_CODE).tolist() == leading
    reached = np.isin(scan.status, [BoundedScan.NILPOTENT_CODE, BoundedScan.UNKNOWN_CODE])
    assert [polys[i] for i in np.flatnonzero(reached)] == list(chained)
    assert [scan.result(i) for i in range(len(polys))] == [status[f] for f in polys]
    assert [scan.poly(i) for i in scan.nilpotent_rows] == [f for f in polys if status[f].proved_nilpotent]
    assert scan.scan_unknown == sum(r.status == probes.UNKNOWN for r in status.values())


@pytest.mark.parametrize("name", sorted(corpus.BUILDERS))
def test_rows_of_the_scanned_polynomials(name):
    # row_of inverts the enumeration, and probe reads the arrays there
    A, scan = _scan(name, "recorded")
    for i, (f, r) in enumerate(scan.results()):
        cols = sorted(scan._col[alpha] for alpha in f.terms)
        coefs = [f.terms[scan.monos[c]] for c in cols]
        assert scan.row_of(cols, coefs) == i
        assert scan.probe(f) == r
    assert scan.closure_probes == {}
    outside = A.monomial((scan.degree_cap + 1,) + (0,) * (A.n - 1))
    scan.probe(outside)
    assert list(scan.closure_probes) == [outside]


def test_keys_are_the_enumeration_past_the_monomials():
    # supports up to, and past, the number of monomials
    A = corpus.swap_extension().presentation
    for degree, support in itertools.product((0, 1, 2), (1, 2, 3, 4)):
        monos = multi_indices(A.n, 0, degree)
        keys = probes._bounded_keys(len(monos), A.base.size, support)
        assert np.array_equal(keys, coefficient_keys(_polys_over_monomials(A, monos, support), monos))


def _certified_rows(scan):
    """The nilpotent rows with every coefficient in the certificate J(R): the rows one mask gather decides."""
    rows = scan.nilpotent_rows
    if scan.certificate is None:
        return rows[:0]
    return rows[scan.certificate.mask[scan.keys[rows]].all(axis=1)]


@pytest.mark.parametrize("name", sorted(corpus.BUILDERS))
def test_check_builds_no_certified_row(name, tmp_path, monkeypatch):
    # during a whole `check`, no row certified in J(R)<x> becomes a
    # polynomial or runs a power chain
    entry = corpus.BUILDERS[name]()
    path = tmp_path / f"{name}.json"
    path.write_text(defio.definition_to_text(defio.entry_to_definition(entry)), encoding="utf-8")
    b = _budget(name, "recorded")
    scans, built, chained = [], [], []
    init, poly, power_chain = BoundedScan.__init__, BoundedScan.poly, probes._power_chain
    monkeypatch.setattr(BoundedScan, "__init__", lambda self, *a: scans.append(self) or init(self, *a))
    monkeypatch.setattr(BoundedScan, "poly", lambda self, i: built.append((self, int(i))) or poly(self, i))
    monkeypatch.setattr(probes, "_power_chain", lambda f, cap: chained.append(f) or power_chain(f, cap))
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["check", str(path), "--json", "--degree", str(b.degree_cap), "--support", str(b.support_cap),
                  "--exponent", str(b.exponent_cap), "--pairs", str(b.pair_budget)])
    monkeypatch.undo()
    (scan,) = scans
    certified = set(_certified_rows(scan).tolist())
    assert not certified & {i for owner, i in built if owner is scan}
    assert not {scan.poly(i) for i in certified} & set(chained)
    assert not scan.index[list(certified)].any()  # no index read either


@pytest.mark.parametrize("name", sorted(corpus.BUILDERS))
def test_certified_rows_read_the_probe_index(name):
    # the index computed on first read is nilpotency_probe's, at most t
    A = corpus.BUILDERS[name]().presentation
    scan = BoundedScan(A, *_budget(name, "recorded").caps())
    rows = _certified_rows(scan)
    assert not scan.index[rows].any()
    for i in rows.tolist():
        want = probes.nilpotency_probe(scan.poly(i), scan.exponent_cap)
        assert scan.result(i) == want and 2 <= want.index <= scan.nil_index, (name, i)
        assert scan.index[i] == want.index
    if name in ("clifford_trunc_2", "euler_like_2", "euler_like_3", "poly_z4_2v", "q8_twist"):
        assert len(rows)


def test_certified_row_past_its_index_raises(q8_twisted):
    # a chain that outlasts t contradicts the certificate: an engine error, not unknown
    scan = BoundedScan(q8_twisted.presentation, 1, 1, 8)
    i = int(_certified_rows(scan)[-1])
    index = probes._power_chain(scan.poly(i), scan.nil_index).index
    scan.nil_index = index - 1
    with pytest.raises(probes.NotProvedNilpotent):
        scan.result(i)
    assert scan.index[i] == 0


# ---------------------------------------------------------------------------
# value tables and zero products
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(corpus.BUILDERS))
def test_value_tables_match_the_oracle(name):
    A, scan = _scan(name, "recorded")
    table = scan.table
    K = scan.keys
    for values, oracle in ((table.left_values, oracle_left_values), (table.right_values, oracle_right_values)):
        for lo in range(0, len(K), 64):
            got = values(K[lo : lo + 64])
            assert got.dtype == np.int16 and np.array_equal(got, oracle(table, K[lo : lo + 64])), (name, lo)


def _factor_blocks(table, K, support_cap, limit=FACTORS):
    for lo in range(0, min(len(K), limit), _factor_block(table, support_cap)):
        yield K[lo : min(lo + _factor_block(table, support_cap), limit)]


@pytest.mark.parametrize("which", BUDGETS)
@pytest.mark.parametrize("name", sorted(corpus.BUILDERS))
def test_counted_zero_products_match_the_pair_join(name, which):
    # both sides of the first nilpotent factors, in J<x> or not
    A, scan = _scan(name, which)
    table = scan.table
    for Kf in _factor_blocks(table, scan.keys[scan.nilpotent_rows], scan.support_cap):
        for values in (table.left_values, table.right_values):
            V = values(Kf)
            want = len(oracle_zero_products(table, V, scan.support_cap)[0])
            assert _count_zero_products(table, V, scan.support_cap) == want, (name, values.__name__)


@pytest.mark.parametrize("which", BUDGETS)
@pytest.mark.parametrize("name", sorted(corpus.BUILDERS))
def test_listed_zero_products_match_the_pair_join(name, which, monkeypatch):
    # Armendariz's pairs, chunk by chunk in their order, at its own caps;
    # with one-pair chunks, every factor with pairs has a chunk of its own
    A = corpus.BUILDERS[name]().presentation
    b = _budget(name, which)
    degree_cap, support_cap = min(b.degree_cap, 2), min(b.support_cap, 2)
    monos = multi_indices(A.n, 0, degree_cap)
    table = AtomTable(A, monos)
    K = probes._bounded_keys(len(monos), A.base.size, support_cap)
    blocks = list(_factor_blocks(table, K, support_cap))
    for entries in (probes.ROW_ENTRIES, 1):
        monkeypatch.setattr(probes, "ROW_ENTRIES", entries)
        for Kf in blocks:
            V = table.right_values(Kf)
            chunks = list(_zero_products(table, V, support_cap))
            got, want = listed_pairs(chunks), oracle_zero_products(table, V, support_cap)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), name
            # at most ROW_ENTRIES pairs in a chunk, unless it is one factor's
            assert all(len(f) <= entries or len(np.unique(f)) == 1 for f, _ in chunks)


def test_row_ids_rank_before_the_tail_would_pass_int64():
    # 3 (2^63 - 2) / 3 + 2 = 2^63: without the ranks, the tail of the first
    # label would wrap to the most negative key and sort before label 0
    big = (2**63 - 1) // 3
    ids = probes._row_ids(np.array([big, big, 0]), np.zeros((3, 0), dtype=np.int16), 2, np.array([0, 2, 1]), 3)
    assert ids[1] == ids[0] + 2 and ids[2] < ids[0] < ids[1]


# ---------------------------------------------------------------------------
# the module store, built on first need
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["heisenberg_2", "q8_twist", "quasi_comm_z3", "euler_like_3"])
def test_scans_that_open_no_module_build_no_shape(name):
    A = corpus.BUILDERS[name]().presentation
    b = corpus.BUILDERS[name]().budget
    BoundedScan(A, b["degree_cap"], b["support_cap"], b["exponent_cap"])
    store = finite_modules(A)
    assert store._modules == [] and store._shapes, name
    assert store.modules  # built on demand, and equal to the eager build (test_modules)


@pytest.mark.parametrize("name", sorted(corpus.BUILDERS))
def test_modules_built_by_the_scan_equal_the_full_build(name):
    A = corpus.BUILDERS[name]().presentation
    b = corpus.BUILDERS[name]().budget
    BoundedScan(A, b["degree_cap"], b["support_cap"], b["exponent_cap"])
    lazy, full = finite_modules(A).modules, FiniteModules(A).modules
    assert [M.shape for M in lazy] == [M.shape for M in full]
    for M, N in zip(lazy, full):
        assert np.array_equal(M.left, N.left) and np.array_equal(M.orders, N.orders)
        assert all(np.array_equal(X, Y) for X, Y in zip(M.ops, N.ops))


def test_store_holds_its_presentation_weakly():
    P = corpus.clifford_trunc(2).presentation
    A = verify_presentation(make_extension(P.base, P.system, d=P.d, tails=P.tails, name=P.name))
    store = finite_modules(A)
    alive = weakref.ref(A)
    del A
    assert alive() is None  # freed by reference counting, with the store still held
    with pytest.raises(ReferenceError):
        store.modules


# ---------------------------------------------------------------------------
# Armendariz on the scan's set
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(corpus.BUILDERS))
def test_armendariz_reads_the_scan(name, monkeypatch):
    A, scan = _scan(name, "recorded")
    b = _budget(name, "recorded")
    caps = (min(b.degree_cap, 2), min(b.support_cap, 2), b.pair_budget)
    alone = bounded_skew_armendariz(A, *caps)
    scan.table  # made by the NI check in a harness run
    built = []
    monkeypatch.setattr(AtomTable, "__init__", lambda *a: built.append(a) or pytest.fail("a second atom table"))
    monkeypatch.setattr(probes, "_bounded_keys", lambda *a: built.append(a) or pytest.fail("a second enumeration"))
    shared = bounded_skew_armendariz(A, *caps, scan=scan)
    assert (shared.holds, shared.witness) == (alone.holds, alone.witness) and built == []


def test_armendariz_meets_its_budgets_before_the_scan(q8_twisted):
    # the CLI default (2, 2) on q8_twist: Armendariz refuses on its counts
    A = q8_twisted.presentation
    scan = BoundedScan(A, 1, 1, 8)
    with pytest.raises(probes.BudgetExceeded, match="Armendariz pair enumeration"):
        bounded_skew_armendariz(A, 2, 2, scan=scan)
    # a scan at another degree cap is not read
    got = bounded_skew_armendariz(A, 0, 1, scan=scan)
    assert (got.holds, got.witness) == (lambda r: (r.holds, r.witness))(bounded_skew_armendariz(A, 0, 1))


# ---------------------------------------------------------------------------
# the tracemalloc peak of one check
# ---------------------------------------------------------------------------

# bytes, one `check --json` at the recorded budget, measured before the
# evidence was array-native: each peak may not pass it by more than 10 %
CHECK_PEAKS = {
    "clifford_trunc_2": 1_004_000,
    "euler_like_2": 102_000,
    "euler_like_3": 307_000,
    "heisenberg_2": 123_000,
    "matrix_poly_2": 468_000,
    "poly_z4_2v": 299_000,
    "q8_twist": 2_396_000,
    "quasi_comm_z3": 125_000,
    "swap_extension": 100_000,
    "weyl_like_2": 96_000,
}


@pytest.mark.parametrize("name", sorted(CHECK_PEAKS))
def test_check_peak_memory(name, tmp_path):
    entry = corpus.BUILDERS[name]()
    path = tmp_path / f"{name}.json"
    path.write_text(defio.definition_to_text(defio.entry_to_definition(entry)), encoding="utf-8")
    b = entry.budget
    argv = ["check", str(path), "--json", "--degree", str(b["degree_cap"]),
            "--support", str(b["support_cap"]), "--exponent", str(b["exponent_cap"])]
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)  # imports and module-level tables first
    gc.collect()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * CHECK_PEAKS[name], (name, peak)


# ---------------------------------------------------------------------------
# map checks by index tables
# ---------------------------------------------------------------------------


def scalar_endomorphism_failure(ring, matrix):
    """(exception class, pair) of the element-arithmetic check, or None when it passes."""
    from skewpbw.maps import ENDOMORPHISM, RingMap

    f = RingMap(ring, matrix, ENDOMORPHISM)
    gens = [ring.generator(i) for i in range(ring.m)]
    for i, a in enumerate(gens):
        for j, b in enumerate(gens):
            if f(a * b) != f(a) * f(b):
                return NotMultiplicative, (i + 1, j + 1)
    return None if f(ring.one) == ring.one else ("DoesNotFixOne", None)


def scalar_derivation_failure(ring, sigma, matrix):
    from skewpbw.maps import SIGMA_DERIVATION, RingMap

    d = RingMap(ring, matrix, SIGMA_DERIVATION, partner=sigma)
    if not d(ring.one).is_zero:
        return "DeltaOneNonzero", None
    gens = [ring.generator(i) for i in range(ring.m)]
    for i, a in enumerate(gens):
        for j, b in enumerate(gens):
            if d(a * b) != sigma(a) * d(b) + d(a) * b:
                return LeibnizFails, (i + 1, j + 1)
    return None


def _outcome(make):
    try:
        make()
    except (NotMultiplicative, LeibnizFails) as exc:
        return type(exc), exc.pair
    except SkewPBWError as exc:
        return type(exc).__name__, None
    return None


MAP_RINGS = {
    "Z2xZ2": lambda: product_ring(zn(2), zn(2)),
    "F4xZ2": lambda: product_ring(field4(), zn(2)),
    "Z3[y]/(y^3)": lambda: trunc_poly(3, 3),
    "Z2[y]/(y^2)": lambda: trunc_poly(2, 2),
    "U2(Z2)": lambda: matrix_upper(2),
}


def test_map_checks_match_element_arithmetic():
    # random matrices, and random derivation matrices with delta(1) = 0, so
    # that the Leibniz check is reached
    outcomes = []
    for ring_name, ring in ((name, MAP_RINGS[name]()) for name in sorted(MAP_RINGS)):
        outcomes += _map_outcomes(ring, random.Random(ring_name))
    assert NotMultiplicative in outcomes and LeibnizFails in outcomes and None in outcomes


def _map_outcomes(ring, rng):
    """Outcomes of both checks on random matrices, each asserted equal to the element arithmetic's."""
    ident = identity_map(ring)
    one = np.array(ring.one.coords)
    outcomes = []
    for _ in range(400):
        matrix = [[rng.randrange(ring.orders[s]) for _ in range(ring.m)] for s in range(ring.m)]
        try:
            want = scalar_endomorphism_failure(ring, matrix)
        except SkewPBWError:
            continue  # not additive: refused before either check
        assert _outcome(lambda: make_endomorphism(ring, matrix)) == want, matrix
        outcomes.append(want and want[0])
        if (np.array(matrix) @ one % np.array(ring.orders)).any():
            continue
        want = scalar_derivation_failure(ring, ident, matrix)
        assert _outcome(lambda: make_sigma_derivation(ring, ident, matrix)) == want, matrix
        outcomes.append(want and want[0])
    return outcomes


def test_first_failing_pair_is_kept():
    # Z2 x Z2 with (a, b) -> (a + b, b): e1 e1 = e1 goes to (1, 0) but
    # f(e1) f(e1) = (1, 0)^2 = (1, 0); e2 e2 = e2 goes to (1, 1), and
    # f(e2)^2 = (1, 1): the first failure is (e1, e2), whose product is 0
    ring = product_ring(zn(2), zn(2))
    with pytest.raises(NotMultiplicative) as exc:
        make_endomorphism(ring, [[1, 1], [0, 1]])
    assert exc.value.pair == scalar_endomorphism_failure(ring, [[1, 1], [0, 1]])[1] == (1, 2)
    # d/dy on Z_3[y]/(y^2) fails Leibniz first on (y, y)
    ring = trunc_poly(3, 2)
    ddy = [[0, 1], [0, 0]]
    with pytest.raises(LeibnizFails) as exc:
        make_sigma_derivation(ring, identity_map(ring), ddy)
    assert exc.value.pair == scalar_derivation_failure(ring, identity_map(ring), ddy)[1] == (2, 2)
