"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
All tolerances are exact: the subject is exact arithmetic, so every
comparison is set equality or integer equality, never approximate.
"""

import random

import pytest

from skewpbw import (
    classify_ring,
    is_connected,
    is_graded_extension,
    jacobson_radical,
    levitzki_radical,
    nilpotent_set,
    prime_radical,
    quasi_regularity_witness,
    upper_nilradical,
)
from skewpbw.corpus import standard_corpus, standard_rings
from skewpbw.errors import OverlapFails
from skewpbw.extension import verify_presentation
from skewpbw.graded import homogeneous_components, polynomial_is_homogeneous
from skewpbw.harness import (
    CONSISTENT,
    PRECONDITION_FAILED,
    VIOLATED,
    SearchBudget,
    TheoremCheck,
    run_all,
    run_check,
    shape_compatible,
)
from skewpbw.probes import (
    BoundedScan,
    NICheckResult,
    bounded_NI_check,
    enumerate_bounded_polys,
    nilpotency_probe,
    replay_violation,
)


def ok(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {message}")


def random_poly(rng, A, degree_cap=3, support=2):
    terms = {}
    for _ in range(support):
        alpha = [0] * A.n
        for _ in range(rng.randint(0, degree_cap)):
            alpha[rng.randrange(A.n)] += 1
        terms[tuple(alpha)] = A.base.element_from_index(rng.randrange(A.base.size))
    return A.poly(terms)


@pytest.fixture(scope="module")
def rings():
    return standard_rings()


@pytest.fixture(scope="module")
def corpus():
    return standard_corpus()


def _by_name(corpus, name):
    return next(e for e in corpus if e.name == name)


def test_acceptance_01_radical_collapse(rings):
    """N_*(R) = L(R) = N^*(R) = J(R); test_rings.py checks J(R) against the ideal lattice."""
    checked = 0
    for entry in rings:
        ring = entry.ring
        assert ring.size <= 64
        sets = [
            frozenset(prime_radical(ring).carrier),
            frozenset(levitzki_radical(ring).carrier),
            frozenset(upper_nilradical(ring).carrier),
            frozenset(jacobson_radical(ring).carrier),
        ]
        assert len(set(sets)) == 1, entry.name
        checked += 1
    ok(1, f"radical collapse (certified J(R)) on {checked} rings")


def test_acceptance_02_radical_chain(rings):
    for entry in rings:
        ring = entry.ring
        lower = prime_radical(ring).carrier
        lev = levitzki_radical(ring).carrier
        upper = upper_nilradical(ring).carrier
        nil = nilpotent_set(ring)
        jac = jacobson_radical(ring).carrier
        assert lower <= lev <= upper <= nil, entry.name
        assert upper <= jac, entry.name
    ok(2, f"radical chain N_* <= L <= N^* <= N and N^* <= J on {len(rings)} rings")


def test_acceptance_03_classification_ground_truths(rings):
    m2 = _by_name(rings, "M2(Z2)").ring
    profile = classify_ring(m2)
    assert profile.NI is False
    e12, e21 = m2.el([0, 1, 0, 0]), m2.el([0, 0, 1, 0])
    assert (e12 ** 2).is_zero and (e21 ** 2).is_zero and (e12 + e21) ** 2 == m2.one

    u2 = _by_name(rings, "U2(Z2)").ring
    pu = classify_ring(u2)
    assert pu.NI and pu.NJ
    expected = frozenset({u2.el([0, 0, 0]), u2.el([0, 1, 0])})
    assert pu.nilpotents == expected == pu.jacobson_radical.carrier

    z4 = _by_name(rings, "Z4").ring
    pz = classify_ring(z4)
    assert pz.NI and pz.NJ and pz.two_primal
    assert pz.nilpotents == frozenset({z4.el([0]), z4.el([2])})
    ok(3, "M2(Z2) not NI (e12+e21 witness); U2(Z2) NI/NJ with N=J={0,e12}; Z4 profile")


def test_acceptance_04_engine_soundness(corpus):
    rng = random.Random(2024)
    triples = 1000
    for entry in corpus:
        A = entry.presentation
        for _ in range(triples):
            f = random_poly(rng, A)
            g = random_poly(rng, A)
            h = random_poly(rng, A)
            assert (f * g) * h == f * (g * h), entry.name
        for _ in range(200):
            f, g, h = (random_poly(rng, A) for _ in range(3))
            assert f * (g + h) == f * g + f * h, entry.name
            assert (f + g) * h == f * h + g * h, entry.name

    poly = _by_name(corpus, "poly(Z4,2)")
    A = poly.presentation

    def naive(f, g):
        out = {}
        for a, ca in f.coefficients().items():
            for b, cb in g.coefficients().items():
                k = tuple(x + y for x, y in zip(a, b))
                out[k] = out.get(k, A.base.zero) + ca * cb
        return A.poly(out)

    for _ in range(500):
        f, g = random_poly(rng, A), random_poly(rng, A)
        assert f * g == naive(f, g)
    ok(4, f"associativity x{triples}/presentation, distributivity, commutative oracle")


def test_acceptance_05_presentation_gate(corpus, weyl_corrupted):
    for entry in corpus:
        assert entry.presentation.verified, entry.name
    with pytest.raises(OverlapFails):
        verify_presentation(weyl_corrupted)
    ok(5, f"{len(corpus)} presentations verified; corrupted fixture fails with OverlapFails")


def test_acceptance_06_weak_compat_ni_transfer(corpus):
    entry = _by_name(corpus, "euler_like(2)")
    scan = BoundedScan(entry.presentation, 2, 3, 8)
    result = bounded_NI_check(scan)
    assert result.status == NICheckResult.CONSISTENT
    assert result.stats["closure_unknown"] == 0
    nil = nilpotent_set(entry.ring)
    mismatches = 0
    for f, r in scan.results():
        member = all(c in nil for c in f.coefficients().values())
        probe_nilpotent = r.proved_nilpotent
        if member != probe_nilpotent:
            mismatches += 1
    assert mismatches == 0
    ok(6, f"euler_like(2): ConsistentWithNI; criterion == probe on all {len(scan.keys)} elements")


def test_acceptance_07_derivation_negative_face(corpus):
    entry = _by_name(corpus, "weyl_like(2)")
    result = bounded_NI_check(BoundedScan(entry.presentation, 2, 2, 8))
    assert result.status == NICheckResult.VIOLATION
    w = result.witness
    A = entry.presentation
    y = entry.ring.el([0, 1])
    assert w["kind"] == "left_product"
    assert w["f"] == A.scalar(y) and w["g"] == A.variable(1)
    xy = A.variable(1) * A.scalar(y)
    assert w["result"] == xy and xy * xy == xy  # the idempotent yx + 1
    assert replay_violation(w)
    report = run_check(TheoremCheck("T3", entry, SearchBudget(2, 2, 8)))
    assert report.verdict == CONSISTENT
    values = {c["name"]: c["holds"] for c in report.conclusions}
    assert values["A NI (bounded)"] is False
    assert values["N(R) Delta-invariant ideal"] is False
    ok(7, "weyl_like(2): Violation with the x*y idempotent witness, replayed; T3 Consistent")


def test_acceptance_08_hypothesis_not_vacuous(corpus):
    entry = _by_name(corpus, "swap_extension")
    result = bounded_NI_check(BoundedScan(entry.presentation, 2, 2, 8))
    assert result.status == NICheckResult.VIOLATION
    w = result.witness
    A = entry.presentation
    ring = entry.ring
    f1 = A.scalar(ring.el([1, 0])) * A.variable(1)
    f2 = A.scalar(ring.el([0, 1])) * A.variable(1)
    # the first failing check: [1,0]x * [0,1]x = [1,0]x^2, not nilpotent
    assert w["kind"] == "left_product" and (w["f"], w["g"]) == (f2, f1)
    assert w["result"] == f1 * f2 == A.scalar(ring.el([1, 0])) * A.variable(1) ** 2
    assert replay_violation(w)
    # the sum face fails too: both summands are nilpotent, their sum x is not
    assert nilpotency_probe(f1, 8).proved_nilpotent and nilpotency_probe(f2, 8).proved_nilpotent
    assert f1 + f2 == A.variable(1) and nilpotency_probe(A.variable(1), 8).proved_not_nilpotent
    report = run_check(TheoremCheck("T1", entry, SearchBudget(2, 2, 8)))
    assert report.verdict == PRECONDITION_FAILED  # base reduced yet A not NI
    ok(8, "swap_extension: reduced base, not weak compatible, NI closure Violation")


def test_acceptance_09_ni_iff_nj_bounded_face(corpus):
    entry = _by_name(corpus, "euler_like(2)")
    A = entry.presentation
    scan = BoundedScan(A, 2, 3, 8)
    one = A.one_poly()
    witnessed = 0
    for i in scan.nilpotent_rows:
        f = scan.poly(i)
        g = quasi_regularity_witness(f, 8)
        assert (one + f) * g == one and g * (one + f) == one
        witnessed += 1
    assert witnessed > 0
    report = run_check(TheoremCheck("T8", entry, SearchBudget(2, 3, 8)))
    assert report.verdict == CONSISTENT
    ok(9, f"euler_like(2): {witnessed} quasi-regularity witnesses verified; T8 Consistent")


def test_acceptance_10_graded_checks(corpus):
    entry = _by_name(corpus, "clifford_trunc(2)")
    profile = is_graded_extension(entry.presentation, entry.grading)
    assert profile.is_graded_extension and profile.connected
    assert is_connected(entry.grading)

    A = entry.presentation
    grading = entry.grading
    homogeneous = []
    for f in enumerate_bounded_polys(A, 2, 2):
        if polynomial_is_homogeneous(f, grading):
            comps = [(p, part) for p, part in homogeneous_components(f, grading) if not part.is_zero]
            homogeneous.append((comps[0][0], f))
    assert homogeneous
    pairs = 0
    for p, f in homogeneous:
        for q, g in homogeneous:
            fg = f * g
            if fg.is_zero:
                continue
            assert polynomial_is_homogeneous(fg, grading, degree=p + q)
            pairs += 1

    trivially_graded = [
        e for e in corpus
        if e.grading is not None and not any(e.grading.labels) and e.presentation.quasi_commutative
    ]
    assert trivially_graded
    for e in trivially_graded:
        assert is_graded_extension(e.presentation, e.grading).is_graded_extension, e.name
    ok(10, f"clifford graded+connected; {pairs} homogeneous products verified; "
           f"{len(trivially_graded)} trivially graded quasi-commutative entries")


def test_acceptance_11_harness_global_invariant(corpus):
    total = 0
    for entry in corpus:
        for report in run_all(entry):
            total += 1
            assert report.verdict != VIOLATED, (entry.name, report.id)
            if report.verdict == PRECONDITION_FAILED:
                failed = [p for p in report.preconditions if p["holds"] is False]
                assert failed and all(p["witness"] is not None for p in failed), (
                    entry.name,
                    report.id,
                )
    flips = []
    for name in ("euler_like(2)", "quasi_comm(Z3,d=2)", "weyl_like(2)"):
        entry = _by_name(corpus, name)
        base = SearchBudget(**entry.budget)
        for tid in ("T1", "T3", "T4", "T8", "T9"):
            if not shape_compatible(tid, entry):
                continue
            before = run_check(TheoremCheck(tid, entry, base)).verdict
            after = run_check(TheoremCheck(tid, entry, base.doubled())).verdict
            if before == CONSISTENT and after == VIOLATED:
                flips.append((name, tid))
    assert not flips
    ok(11, f"{total} (instance, Tk) pairs: zero Violated; witnesses present; "
           f"budget doubling never flips Consistent to Violated")
