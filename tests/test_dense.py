"""The atom table against the rewriting engine, and the table scans against the scalar ones.

The per-pair loops that `bounded_NI_check` and `bounded_skew_armendariz` ran
before they went through a product table are kept here as oracles, and the
`skewpbw check --json` reports of the corpus are compared byte for byte with
golden files (`tests/golden/check/`).  Those at the recorded budgets were
written by the scalar scans; the doubled, reduced-pair and forced variants
by the hand-written theorem checks that the statement table replaced, but
for `euler_like_3`, `heisenberg_2` and `q8_twist` doubled and `q8_twist` at
the CLI default, which the array-native scan wrote before it certified its
J(R)<x> rows in bulk.
"""

import contextlib
import dataclasses
import functools
import io
import json
import random
from pathlib import Path

import numpy as np
import pytest

from skewpbw import cli, corpus, defio, extension, probes
from skewpbw.errors import TooLarge
from skewpbw.corpus import matrix_upper, product_ring, trunc_poly
from skewpbw.extension import AtomTable, SkewPolynomial, make_extension, verify_presentation
from skewpbw.maps import SigmaSystem, identity_map, multi_indices
from skewpbw.rings import ideal_power_index
from skewpbw.harness import SearchBudget
from scan_oracles import coefficient_keys, listed_pairs
from skewpbw.probes import (
    UNKNOWN,
    BoundedScan,
    NICheckResult,
    _polys_over_monomials,
    _scan_stats,
    bounded_NI_check,
    bounded_skew_armendariz,
)

GOLDEN = Path(__file__).parent / "golden" / "check"
ALL_PAIRS = 10**4  # below this many pairs every pair is checked
SAMPLE = 1500  # seeded pairs per presentation above it


def _budget(entry):
    b = entry.budget
    return b["degree_cap"], b["support_cap"], b["exponent_cap"]


# ---------------------------------------------------------------------------
# the scalar scans, as they were before the product tables
# ---------------------------------------------------------------------------


def oracle_NI_check(scan: BoundedScan) -> NICheckResult:
    pn = [scan.poly(i) for i in scan.nilpotent_rows]
    hs = [scan.poly(i) for i in range(len(scan.keys))]
    unknown_checks = 0
    checks = 0
    for f in pn:
        for h in hs:
            for kind, p in (("left_product", h * f), ("right_product", f * h)):
                if p.is_zero:
                    continue
                checks += 1
                r = scan.probe(p)
                if r.proved_not_nilpotent:
                    return NICheckResult(
                        NICheckResult.VIOLATION,
                        witness={"kind": kind, "f": f, "g": h, "result": p, "probe": r},
                        stats=_scan_stats(scan, checks, unknown_checks),
                    )
                if r.status == UNKNOWN:
                    unknown_checks += 1
    for i, f in enumerate(pn):
        for g in pn[i:]:
            s = f + g
            if s.is_zero:
                continue
            checks += 1
            r = scan.probe(s)
            if r.proved_not_nilpotent:
                return NICheckResult(
                    NICheckResult.VIOLATION,
                    witness={"kind": "sum", "f": f, "g": g, "result": s, "probe": r},
                    stats=_scan_stats(scan, checks, unknown_checks),
                )
            if r.status == UNKNOWN:
                unknown_checks += 1
    status = NICheckResult.CONSISTENT if unknown_checks == 0 else NICheckResult.INCONCLUSIVE
    return NICheckResult(status, stats=_scan_stats(scan, checks, unknown_checks))


@functools.cache
def scalar_reference(name):
    """(entry, scan, oracle result) at the entry's recorded budget, once per session.

    The scan's statuses hold every distinct closure row the oracle probed.
    """
    entry = corpus.BUILDERS[name]()
    scan = BoundedScan(entry.presentation, *_budget(entry))
    return entry, scan, oracle_NI_check(scan)


def oracle_armendariz(A, degree_cap, support_cap):
    """(holds, witness) of the scalar f-major, g-minor Armendariz scan."""
    monos = multi_indices(A.n, 0, degree_cap)
    polys = _polys_over_monomials(A, monos, support_cap)
    mul, _, _ = A.base.index_rows()
    sigma_pow: dict = {}

    def sp(alpha):
        if alpha not in sigma_pow:
            sigma_pow[alpha] = A.system.sigma_power(alpha).tolist()
        return sigma_pow[alpha]

    for f in polys:
        for g in polys:
            if not (f * g).is_zero:
                continue
            for alpha, a in f.terms.items():
                for beta, b in g.terms.items():
                    if mul[a][sp(alpha)[b]]:
                        return False, {"f": f, "g": g, "alpha": alpha, "beta": beta}
    return True, None


# ---------------------------------------------------------------------------
# kernel against the engine
# ---------------------------------------------------------------------------


def _random_full_poly(rng, A, monos):
    return SkewPolynomial(A, {alpha: rng.randrange(A.base.size) for alpha in monos})


def _check_kernel(A, monos, polys, rng):
    table = AtomTable(A, monos)
    polys = polys + [_random_full_poly(rng, A, monos) for _ in range(20)]
    K = coefficient_keys(polys, monos)
    n = len(polys)
    if n * n < ALL_PAIRS:
        pairs = [(i, j) for i in range(n) for j in range(n)]
    else:
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(SAMPLE)]
    by_f: dict = {}
    for i, j in pairs:
        by_f.setdefault(i, []).append(j)
    for i, hs in by_f.items():
        f = polys[i]
        for values, engine in ((table.left_values, lambda h: h * f), (table.right_values, lambda h: f * h)):
            rows = table.products(values(K[i : i + 1])[0], K[hs])
            for j, row in zip(hs, rows):
                assert table.poly(row, table.out_monos) == engine(polys[j]), (A.name, values.__name__, i, j)
    return len(pairs)


@pytest.mark.parametrize("name", sorted(corpus.BUILDERS))
def test_dense_products_match_engine(name):
    # value rows of the atom table, summed over the support of h, are h f and f h
    entry = corpus.BUILDERS[name]()
    A = entry.presentation
    degree_cap, support_cap, _ = _budget(entry)
    rng = random.Random(name)
    monos = multi_indices(A.n, 0, degree_cap)
    assert _check_kernel(A, monos, _polys_over_monomials(A, monos, support_cap), rng)
    # a second set: the constant, then the variables in variable order
    linear = [A._zero_exp] + [tuple(int(t == i) for t in range(A.n)) for i in range(A.n)]
    assert _check_kernel(A, linear, _polys_over_monomials(A, linear, min(support_cap, 2)), rng)


def test_dense_sums_and_keys_round_trip(euler3):
    A = euler3.presentation
    monos = multi_indices(A.n, 0, 2)
    table = AtomTable(A, monos)
    rng = random.Random(3)
    polys = [_random_full_poly(rng, A, monos) for _ in range(30)]
    K = coefficient_keys(polys, monos)
    assert K.dtype == np.int32
    for f, row in zip(polys, K):
        assert table.poly(row, monos) == f
    for i, f in enumerate(polys):
        rows = table.plus(K, K[i])
        assert [table.poly(r, monos) for r in rows] == [g + f for g in polys]


def _upper_z3_by_z9():
    """U2(Z3) x Z3[y]/(y^2)[x]: 243 elements, so a flat index a * 243 + b past int16 reads a wrong entry.

    On q8_twist (256 elements) a wrapped int16 flat index still reads the
    right one, as negative indices count back from the end of a table of
    2^16 entries.
    """
    ring = product_ring(matrix_upper(3), trunc_poly(3, 2))
    return verify_presentation(make_extension(ring, SigmaSystem([identity_map(ring)])))


@pytest.mark.parametrize("name", ["q8_twist", "U2(Z3)xZ3[y]/(y^2)[x]"])
def test_index_arithmetic_runs_past_int16(name):
    # the flat index a * |R| + b passes 2^15 - 1 once a >= top: each gather
    # below goes wrong if its index arithmetic runs in the tables' int16, so
    # each is compared with scalar arithmetic on such indices
    A = corpus.q8_twist().presentation if name == "q8_twist" else _upper_z3_by_z9()
    base = A.base
    R = base.size
    top = -(-(2**15) // R)
    assert R in (243, 256) and base.mul_table.dtype == np.int16
    monos = multi_indices(A.n, 0, 1)
    table = AtomTable(A, monos)
    rng = np.random.default_rng(24)
    a = rng.integers(top, R, 2000).astype(np.int16)
    b = rng.integers(0, R, 2000).astype(np.int16)
    for x, y, s, p in zip(a.tolist(), b.tolist(), table.plus(a, b).tolist(), table.times(a, b).tolist()):
        ex, ey = base.element_from_index(x), base.element_from_index(y)
        assert (s, p) == ((ex + ey).index, (ex * ey).index), (x, y)
    # value rows of factors whose nonzero coefficients are all >= top, at
    # every c >= top; the zero divisors among them give zero products
    zero_divisors = [c for c in range(top, R) if not base.units_mask[c]]
    pairs = ((top, R - 1), (zero_divisors[0], zero_divisors[-1]), (zero_divisors[-1], 0))
    factors = [SkewPolynomial(A, dict(zip(monos, cs))) for cs in pairs]
    K = coefficient_keys(factors, monos).astype(np.int16)
    VL, VR = table.left_values(K), table.right_values(K)
    for i, f in enumerate(factors):
        for k, alpha in enumerate(monos):
            for c in range(top, R):
                h = SkewPolynomial(A, {alpha: c})
                assert table.poly(VL[i, k, c], table.out_monos) == h * f, (i, alpha, c)
                assert table.poly(VR[i, k, c], table.out_monos) == f * h, (i, alpha, c)
    # zero products with every h of support <= 2: a scalar add-list sum of value rows
    add = base.index_rows()[1]
    hs = _polys_over_monomials(A, monos, 2)
    for V in (VL, VR):
        rows = V.tolist()
        want = set()
        for i in range(len(factors)):
            for j, h in enumerate(hs):
                total = [0] * table.width
                for alpha, c in h.terms.items():
                    total = [add[t][v] for t, v in zip(total, rows[i][monos.index(alpha)][c])]
                if not any(total):
                    want.add((i, j))
        F, H = listed_pairs(probes._zero_products(table, V, 2))
        assert set(zip(F.tolist(), H.tolist())) == want and len(want) == len(F)
        assert any(j >= len(monos) * (R - 1) for _, j in want)  # products of support 2 among them


def test_zero_rows_sum_past_int16():
    # 16 * 4095 + 16 = 2^16: an int16 sum of this row of indices below
    # TABLE_CAP wraps to 0, and the row would pass for zero
    rows = np.array([[4095] * 16 + [16], [0] * 17], dtype=np.int16)
    assert probes._zero_rows(rows).tolist() == [False, True]
    assert probes._zero_rows(rows[None]).tolist() == [[False, True]]


def test_dense_kernel_builds_from_the_engine_only(weyl2, monkeypatch):
    # the atom table is |monos|^2 m engine products x^gamma (e_t x^alpha), nothing else
    A = weyl2.presentation
    calls = []
    real = type(A)._mul_terms

    def counting(self, f, g):
        calls.append((dict(f), dict(g)))
        return real(self, f, g)

    monkeypatch.setattr(type(A), "_mul_terms", counting)
    monos = multi_indices(A.n, 0, 2)
    table = AtomTable(A, monos)
    per_gamma = len(monos) * A.base.m
    assert [f for f, _ in calls] == [{gamma: A._one} for gamma in monos for _ in range(per_gamma)]
    assert all(len(g) == 1 for _, g in calls)
    # and every entry of Q is x^gamma (c x^alpha), for every element c
    monkeypatch.undo()
    for g, gamma in enumerate(monos):
        for a, alpha in enumerate(monos):
            for c in range(A.base.size):
                expected = A.monomial(gamma) * SkewPolynomial(A, {alpha: c})
                assert table.poly(table.Q[g, a, c], table.out_monos) == expected


def test_atom_table_refuses_past_its_cap_before_allocating(clifford2, monkeypatch):
    A = clifford2.presentation
    calls = []
    real = type(A)._mul_terms
    monkeypatch.setattr(type(A), "_mul_terms", lambda self, f, g: calls.append(1) or real(self, f, g))
    monos = multi_indices(A.n, 0, 2)
    # |monos|^2 |R| entries per output monomial, of which there are at most 15 (degree <= 4)
    monkeypatch.setattr(extension, "TABLE_ENTRIES", len(monos) ** 2 * A.base.size * 15 - 1)
    with pytest.raises(TooLarge, match="atom table"):
        AtomTable(A, monos)
    assert calls == []
    # the value rows of one factor are checked against the same cap before
    # any is formed: here the table fits and one factor's rows do not
    monkeypatch.setattr(extension, "TABLE_ENTRIES", len(monos) ** 2 * A.base.size * 15)
    monkeypatch.setattr(probes, "TABLE_ENTRIES", 100)
    built = []
    monkeypatch.setattr(AtomTable, "right_values", lambda self, K: built.append(K))
    with pytest.raises(TooLarge, match="value rows of one factor"):
        bounded_skew_armendariz(A, 2, 2)
    assert built == []


# ---------------------------------------------------------------------------
# the table scans against the scalar ones
# ---------------------------------------------------------------------------


def _assert_status_matches(scan, ref_scan):
    """The table check's closure probes are the scalar scan's, less certified closure rows.

    Both scans answer a scanned polynomial from their arrays and keep the
    other closure rows they probe in `closure_probes`.  Rows in J<x> are
    decided by the certificate's mask test and never probed; everything
    else is probed exactly as the scalar scan did.
    """
    assert scan.closure_probes.items() <= ref_scan.closure_probes.items()
    left_out = ref_scan.closure_probes.keys() - scan.closure_probes.keys()
    if scan.certificate is None:
        assert not left_out
        return
    J = scan.certificate
    t = ideal_power_index(J)
    for f in left_out:
        assert J.mask[list(f.terms.values())].all(), f
        r = ref_scan.closure_probes[f]
        assert r.proved_nilpotent and r.index <= t, (f, r)


@pytest.mark.parametrize("name", sorted(corpus.BUILDERS))
def test_ni_check_matches_scalar_scan(name):
    entry, ref_scan, ref = scalar_reference(name)
    A = entry.presentation
    caps = _budget(entry)
    scan = BoundedScan(A, *caps)
    # the scan's key rows are its polynomials over the table's columns
    table = AtomTable(A, multi_indices(A.n, 0, caps[0]))
    assert [table.poly(row, table.monos) for row in scan.keys] == _polys_over_monomials(A, table.monos, caps[1])
    got = bounded_NI_check(scan)
    assert got.status == ref.status
    assert got.stats == ref.stats
    assert (got.witness is None) == (ref.witness is None)
    if ref.witness is not None:
        for key in ("kind", "f", "g", "result"):
            assert got.witness[key] == ref.witness[key], key
        assert got.witness["probe"] == ref.witness["probe"]
    # every product and sum outside J<x> was probed as the scalar scan probed it
    _assert_status_matches(scan, ref_scan)


@pytest.mark.parametrize("name", sorted(corpus.BUILDERS))
@pytest.mark.parametrize("shared", [False, True])
def test_armendariz_matches_scalar_scan(name, shared):
    entry, scan, _ = scalar_reference(name)
    A = entry.presentation
    degree_cap, support_cap, _ = _budget(entry)
    # the caps the T2 check uses; every recorded degree cap is at most 2, so
    # the shared scan's key rows and atom table are the ones read
    degree_cap, support_cap = min(degree_cap, 2), min(support_cap, 2)
    assert scan.degree_cap == degree_cap and scan.support_cap >= support_cap
    got = bounded_skew_armendariz(A, degree_cap, support_cap, scan=scan if shared else None)
    holds, witness = oracle_armendariz(A, degree_cap, support_cap)
    assert got.holds == holds
    assert got.witness == witness


@pytest.mark.parametrize("name", ["matrix_poly_2", "poly_z4_2v", "swap_extension"])
@pytest.mark.parametrize("caps", [(0, 2), (1, 4)])
def test_scans_match_scalar_scans_past_the_monomials(name, caps):
    # supports up to, and past, the number of monomials: no h has more slots
    A = corpus.BUILDERS[name]().presentation
    degree_cap, support_cap = caps
    scan = BoundedScan(A, degree_cap, support_cap, 8)
    for shared in (None, scan):
        got = bounded_skew_armendariz(A, degree_cap, support_cap, scan=shared)
        assert (got.holds, got.witness) == oracle_armendariz(A, degree_cap, support_cap)
    got = bounded_NI_check(scan)
    ref = oracle_NI_check(BoundedScan(A, degree_cap, support_cap, 8))
    assert (got.status, got.stats, got.witness) == (ref.status, ref.stats, ref.witness)


@pytest.mark.parametrize("name", ["euler_like_3", "matrix_poly_2", "poly_z4_2v", "swap_extension", "weyl_like_2"])
def test_scans_agree_across_row_blocks(name, monkeypatch):
    # blocks of one or a few rows: witnesses and counts must not depend on them
    entry, ref_scan, ref = scalar_reference(name)
    A = entry.presentation
    caps = _budget(entry)
    arm = bounded_skew_armendariz(A, min(caps[0], 2), min(caps[1], 2))
    for entries in (1, 100):
        monkeypatch.setattr(probes, "BLOCK_ENTRIES", entries)
        monkeypatch.setattr(probes, "ROW_ENTRIES", entries)
        scan = BoundedScan(A, *caps)
        got = bounded_NI_check(scan)
        assert (got.status, got.stats, got.witness) == (ref.status, ref.stats, ref.witness)
        _assert_status_matches(scan, ref_scan)
        small = bounded_skew_armendariz(A, min(caps[0], 2), min(caps[1], 2))
        assert (small.holds, small.witness) == (arm.holds, arm.witness)


# ---------------------------------------------------------------------------
# golden `skewpbw check --json` reports
# ---------------------------------------------------------------------------


def _recorded(budget):
    return budget


def _pairs_100000(budget):
    return dataclasses.replace(budget, pair_budget=100000)


def _cli_default(budget):
    return SearchBudget(2, 2, 8, 10**6)  # `skewpbw check` without budget flags


# golden file stem -> (corpus entry, budget from the recorded one, extra flags).
# Two doubled budgets are left out: clifford_trunc_2's run takes over 2 s,
# and poly_z4_2v's 80 unknown probes await a larger module catalogue, which
# will change its report.
GOLDEN_CASES = {
    **{name: (name, _recorded, ()) for name in sorted(corpus.BUILDERS)},
    **{
        f"{name}.doubled": (name, SearchBudget.doubled, ())
        for name in (
            "euler_like_2", "euler_like_3", "heisenberg_2", "matrix_poly_2",
            "q8_twist", "quasi_comm_z3", "swap_extension", "weyl_like_2",
        )
    },
    "q8_twist.default": ("q8_twist", _cli_default, ()),
    # the NI check and Armendariz exceed this budget, theorem by theorem
    **{f"{name}.pairs100000": (name, _pairs_100000, ()) for name in ("clifford_trunc_2", "q8_twist")},
    **{
        f"{name}.forced": (name, _recorded, ("--force-conclusions",))
        for name in ("matrix_poly_2", "swap_extension", "weyl_like_2")
    },
}


@pytest.mark.parametrize("stem", sorted(GOLDEN_CASES))
def test_check_report_matches_golden(stem, tmp_path):
    name, make_budget, flags = GOLDEN_CASES[stem]
    entry = corpus.BUILDERS[name]()
    path = tmp_path / f"{name}.json"
    path.write_text(defio.definition_to_text(defio.entry_to_definition(entry)), encoding="utf-8")
    budget = make_budget(SearchBudget(**entry.budget))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([
            "check", str(path), "--json", "--degree", str(budget.degree_cap),
            "--support", str(budget.support_cap), "--exponent", str(budget.exponent_cap),
            "--pairs", str(budget.pair_budget), *flags,
        ])
    report = json.loads(buf.getvalue())
    assert report.pop("file") == str(path)
    assert report["exit"] == code
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    golden = GOLDEN / f"{stem}.json"
    assert text == golden.read_text(encoding="utf-8")
