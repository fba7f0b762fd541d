"""Nilpotency probes, bounded NI checks, the ideal-power certificate, Armendariz bounds."""

import itertools

import numpy as np
import pytest

from skewpbw import (
    corpus,
    bounded_NI_check,
    bounded_skew_armendariz,
    enumerate_bounded_polys,
    ideal_power_index,
    jacobson_radical,
    nilpotency_probe,
    nilpotent_set,
    quasi_regularity_witness,
)
from skewpbw.errors import BudgetExceeded, NotProvedNilpotent
from skewpbw.extension import SkewPolynomial, make_extension, verify_presentation
from skewpbw.modules import finite_modules
from skewpbw.maps import (
    DELTA_INVARIANT,
    SIGMA_INVARIANT,
    SigmaSystem,
    identity_map,
    invariance,
    make_endomorphism,
    multi_indices,
)
from skewpbw.probes import (
    NILPOTENT,
    NOT_NILPOTENT,
    UNKNOWN,
    NICheckResult,
    ProbeResult,
    LEADING_CHAIN,
    FINITE_MODULE,
    BoundedScan,
    _leading_chain_holds,
    coefficient_agreement,
    replay_violation,
)
from test_dense import scalar_reference


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------


def test_probe_swap_nilpotent(swap_entry):
    A = swap_entry.presentation
    f = A.scalar(swap_entry.ring.el([1, 0])) * A.variable(1)
    res = nilpotency_probe(f, 8)
    assert res.proved_nilpotent and res.index == 2


def test_probe_unit_leading_chain(swap_entry):
    res = nilpotency_probe(swap_entry.presentation.variable(1), 8)
    assert res.proved_not_nilpotent and res.reason == LEADING_CHAIN


def test_probe_finite_module(weyl2):
    A = weyl2.presentation
    f = A.variable(1) * A.scalar(weyl2.ring.el([0, 1]))  # yx + 1
    # its leading chain y, y^2 = 0 reaches 0: a finite module decides
    assert A.bijective and not _leading_chain_holds(f)
    res = nilpotency_probe(f, 8)
    assert res.proved_not_nilpotent and res.reason == FINITE_MODULE


def test_probe_zero_and_unknown(weyl2, swap_entry):
    A = weyl2.presentation
    assert nilpotency_probe(A.zero_poly(), 4).index == 1
    # e2 x^3 + x over Z2 x Z2 with sigma the swap: (e2 x^3 + x)^2 = x^4 + x^2
    # has a unit leading coefficient, so no power vanishes.  Yet the leading
    # chain e2, e2 e1 = 0 reaches 0, and rho(f) = L_e1 X is nilpotent in
    # every catalogue module, as L_e1 X L_e1 X = L_e1 L_e2 X^2 = 0
    A = swap_entry.presentation
    f = A.poly({(3,): swap_entry.ring.el([0, 1]), (1,): swap_entry.ring.one})
    assert f * f == A.poly({(4,): swap_entry.ring.one, (2,): swap_entry.ring.one})
    assert not _leading_chain_holds(f) and not finite_modules(A).certifies(f)
    res = nilpotency_probe(f, 6)
    assert res.status == UNKNOWN and res.cap == 6


# ---------------------------------------------------------------------------
# the power chain against the right-associated one
# ---------------------------------------------------------------------------


def right_associated_probe(f, exponent_cap):
    """The probe as it was with powers built as f^(k-1) * f: a reference."""
    A = f.ext
    if f.is_zero:
        return ProbeResult(NILPOTENT, index=1)
    if A.bijective and _leading_chain_holds(f):
        return ProbeResult(NOT_NILPOTENT, reason=LEADING_CHAIN)
    if finite_modules(A).certifies(f):
        return ProbeResult(NOT_NILPOTENT, reason=FINITE_MODULE)
    current = f
    for k in range(2, exponent_cap + 1):
        current = current * f
        if current.is_zero:
            return ProbeResult(NILPOTENT, index=k)
    return ProbeResult(UNKNOWN, cap=exponent_cap)


def right_associated_series(f, index):
    """sum_{j<index} (-f)^j with each term built as (-f)^(j-1) * (-f)."""
    A = f.ext
    g, term, minus_f = A.zero_poly(), A.one_poly(), -f
    for _ in range(index):
        g = g + term
        term = term * minus_f
    return g


def test_probe_matches_right_associated_chain(corpus_entries):
    nilpotent = 0
    for entry in corpus_entries:
        b = entry.budget
        for f in enumerate_bounded_polys(entry.presentation, b["degree_cap"], b["support_cap"]):
            res = nilpotency_probe(f, 16)
            assert res == right_associated_probe(f, 16), (entry.name, f)
            if res.proved_nilpotent:
                nilpotent += 1
                g = quasi_regularity_witness(f, 16)
                assert g == right_associated_series(f, res.index), (entry.name, f)
    assert nilpotent > 0


def test_power_chain_keeps_push_cache_small():
    # With f on the left, every _push key (x^alpha, r) has deg alpha <= deg f;
    # the right-associated chain pushed the growing power instead.
    for name in ("euler_like_3", "heisenberg_2"):
        entry = corpus.BUILDERS[name]()
        P = entry.presentation
        A = verify_presentation(make_extension(P.base, P.system, d=P.d, tails=P.tails, name=P.name))
        degree = entry.budget["degree_cap"]
        for f in enumerate_bounded_polys(A, degree, entry.budget["support_cap"]):
            nilpotency_probe(f, 32)
        bound = len(multi_indices(A.n, 0, degree)) * A.base.size
        assert len(A._push_cache) <= bound, (name, len(A._push_cache), bound)


# ---------------------------------------------------------------------------
# the leading-chain certificate against the engine
# ---------------------------------------------------------------------------


def _deglex_lead(f):
    return max(f.terms, key=lambda a: (sum(a), a))


def _conjugation(ring, u, u_inv):
    """X -> u X u^-1 on M2(Z2), over the coordinates e11, e12, e21, e22."""

    def image(t):
        e = np.zeros((2, 2), dtype=np.int64)
        e.flat[t] = 1
        return (u @ e @ u_inv % 2).ravel()

    return make_endomorphism(ring, np.column_stack([image(t) for t in range(4)]).tolist())


def m2_conjugation_plane():
    """M2(Z2) with sigma_1, sigma_2 conjugation by a, b and d_12 = b a b^-1 a^-1."""
    ring = corpus.matrix_full(2)
    a = np.array([[1, 1], [0, 1]])  # a^-1 = a and b^-1 = b over Z2
    b = np.array([[1, 0], [1, 1]])
    d12 = ring.el((b @ a @ b @ a % 2).ravel().tolist())
    system = SigmaSystem([_conjugation(ring, a, a), _conjugation(ring, b, b)])
    return verify_presentation(make_extension(ring, system, d={(1, 2): d12}))


def _confirm_leading_chain(f, lead_powers=6, cap=16):
    """f^k != 0 for k <= cap, and lm(f^k) = x^(k alpha) for k <= lead_powers.

    For n = 1 the coefficient is also the predicted a_k = c sigma^alpha(a_(k-1)),
    computed with the ring's own product and the sigma matrix.
    """
    A = f.ext
    alpha = _deglex_lead(f)
    c = A.base.element_from_index(f.terms[alpha])
    predicted, power = c, f
    for k in range(2, cap + 1):
        power = f * power
        assert not power.is_zero, (f.to_expr(), k)
        if k > lead_powers:
            continue
        assert _deglex_lead(power) == tuple(k * e for e in alpha), (f.to_expr(), k)
        if A.n == 1:
            image = predicted
            for _ in range(alpha[0]):
                image = A.system.sigmas[0](image)
            predicted = c * image
            assert power.coefficient((k * alpha[0],)) == predicted, (f.to_expr(), k)


def test_leading_chain_certificate_against_power_iteration(corpus_entries):
    m2 = m2_conjugation_plane()
    ring, d12 = m2.base, m2.d[(1, 2)]
    assert ring.units_mask[d12.index] and any(d12 * r != r * d12 for r in ring.elements())
    cases = [(e.presentation, e.budget) for e in corpus_entries]
    cases.append((m2, {"degree_cap": 2, "support_cap": 2, "exponent_cap": 16}))
    certified = {}
    for A, b in cases:
        assert A.bijective, A.name
        for f in enumerate_bounded_polys(A, b["degree_cap"], b["support_cap"]):
            if nilpotency_probe(f, b["exponent_cap"]).reason == LEADING_CHAIN:
                certified[A.name] = certified.get(A.name, 0) + 1
                _confirm_leading_chain(f)
    assert len(certified) == len(cases) and certified[m2.name] > 0


def test_leading_chain_needs_a_bijective_presentation():
    # Z4[x1, x2], sigma = id, x2 x1 = 2 x1 x2: it verifies, but d_12 = 2 is no unit
    ring = corpus.zn(4)
    ident = identity_map(ring)
    A = verify_presentation(make_extension(ring, SigmaSystem([ident, ident]), d={(1, 2): ring.el([2])}))
    assert not A.bijective
    f = A.variable(1) * A.variable(2)
    assert _leading_chain_holds(f)  # unit leading coefficient 1, yet:
    assert (f * f * f).is_zero
    res = nilpotency_probe(f, 8)
    assert res.proved_nilpotent and res.index == 3


@pytest.mark.parametrize("name", sorted(corpus.BUILDERS))
def test_scan_probes_are_nilpotency_probes(name):
    # one ladder: whatever the NI check probed, it probed as nilpotency_probe
    entry = corpus.BUILDERS[name]()
    A = entry.presentation
    b = entry.budget
    caps = (b["degree_cap"], b["support_cap"], b["exponent_cap"])
    scan = BoundedScan(A, *caps)
    bounded_NI_check(scan)
    for f, r in [*scan.results(), *scan.closure_probes.items()]:
        assert r == nilpotency_probe(f, scan.exponent_cap), (name, f, r)
        assert isinstance(r.index, int) == r.proved_nilpotent, (name, f, r)


# ---------------------------------------------------------------------------
# the ideal-power certificate against power iteration
# ---------------------------------------------------------------------------


def test_ideal_power_certificate_against_power_iteration():
    applies = []
    certified = 0
    for name in sorted(corpus.BUILDERS):
        # the scalar oracle probes every distinct closure row through
        # scan.probe; those in J<x> are the rows the NI check's mask test
        # certifies without a polynomial
        entry, scan, _ = scalar_reference(name)
        A = entry.presentation
        if scan.certificate is None:
            continue
        applies.append(entry.name)
        J = scan.certificate
        t = ideal_power_index(J)
        assert J == jacobson_radical(entry.ring) and t <= scan.exponent_cap
        # J<x> absorbs the generators on both sides, by multiplication
        for r in J.sorted_elements():
            for x in map(A.variable, range(1, A.n + 1)):
                for p in (x * A.scalar(r), A.scalar(r) * x):
                    assert J.mask[list(p.terms.values())].all(), (entry.name, r, p)
        for f, r in [*scan.results(), *scan.closure_probes.items()]:
            if not J.mask[list(f.terms.values())].all():
                continue
            certified += 1
            assert r == nilpotency_probe(f, scan.exponent_cap), (entry.name, f)
            assert r.proved_nilpotent and r.index <= t, (entry.name, f, r)
    # J(R) is Sigma-Delta-invariant on every corpus entry but weyl_like(2)
    assert len(applies) == 9 and "weyl_like(2)" not in applies
    assert certified > 0


def test_ideal_power_certificate_needs_delta_invariance(weyl2):
    A = weyl2.presentation
    J = jacobson_radical(weyl2.ring)
    assert invariance(J, A.system, SIGMA_INVARIANT).holds
    assert not invariance(J, A.system, DELTA_INVARIANT).holds  # d/dy(y) = 1
    scan = BoundedScan(A, 2, 2, 8)
    bounded_NI_check(scan)
    assert scan.certificate is None
    # y x lies in J<x>, yet (yx)^2 = y(yx + 1)x = yx: not nilpotent
    f = A.scalar(weyl2.ring.el([0, 1])) * A.variable(1)
    assert J.mask[list(f.terms.values())].all()
    r = scan.probe(f)
    assert r.proved_not_nilpotent and r.reason == FINITE_MODULE


def test_ideal_power_certificate_needs_cap_at_least_t(q8_twisted):
    A = q8_twisted.presentation
    J = jacobson_radical(q8_twisted.ring)
    assert invariance(J, A.system, SIGMA_INVARIANT).holds
    assert invariance(J, A.system, DELTA_INVARIANT).holds
    scan = BoundedScan(A, 1, 1, 4)  # J^5 = 0 but J^4 != 0
    bounded_NI_check(scan)
    assert scan.certificate is None
    results = [*scan.results(), *scan.closure_probes.items()]
    assert all(r == nilpotency_probe(f, 4) for f, r in results)
    # some members of J<x> are left unknown at cap 4: certifying them would
    # change the report
    assert any(r.status == UNKNOWN and J.mask[list(f.terms.values())].all() for f, r in results)


# ---------------------------------------------------------------------------
# quasi-regularity
# ---------------------------------------------------------------------------


def test_quasi_regularity_euler(euler2):
    A = euler2.presentation
    f = A.scalar(euler2.ring.el([0, 1])) * A.variable(1)  # yx
    g = quasi_regularity_witness(f, 8)
    one = A.one_poly()
    assert (one + f) * g == one
    assert g == one + f  # characteristic 2, f^2 = 0


def test_quasi_regularity_zero(euler2):
    A = euler2.presentation
    assert quasi_regularity_witness(A.zero_poly(), 4) == A.one_poly()


def test_quasi_regularity_swap(swap_entry):
    A = swap_entry.presentation
    f = A.scalar(swap_entry.ring.el([1, 0])) * A.variable(1)
    g = quasi_regularity_witness(f, 8)
    assert (A.one_poly() + f) * g == A.one_poly()


def test_quasi_regularity_requires_proof(weyl2):
    with pytest.raises(NotProvedNilpotent):
        quasi_regularity_witness(weyl2.presentation.variable(1), 4)


def test_quasi_regularity_builds_one_power_chain(euler2, clifford2, monkeypatch):
    # the witness sums the series term by term, (-f)^j = (-f) * (-f)^(j-1):
    # k products up to (-f)^k = 0, then the two verification products
    cases = []
    for entry in (euler2, clifford2):
        b = entry.budget
        for f in enumerate_bounded_polys(entry.presentation, b["degree_cap"], b["support_cap"]):
            probe = nilpotency_probe(f, b["exponent_cap"])
            if probe.proved_nilpotent:
                cases.append((f, probe.index, b["exponent_cap"]))
    assert cases
    products = []
    mul = SkewPolynomial.__mul__
    monkeypatch.setattr(SkewPolynomial, "__mul__", lambda f, g: products.append(1) or mul(f, g))
    for f, k, cap in cases:
        products.clear()
        quasi_regularity_witness(f, cap)
        assert len(products) == k + 2, (f.to_expr(), k)
        with pytest.raises(NotProvedNilpotent, match="was not proved nilpotent within cap"):
            quasi_regularity_witness(f, k - 1)


def test_multi_indices_match_definition():
    for n in range(1, 5):
        for lo in range(6):
            for hi in range(lo, 6):
                betas = itertools.product(range(hi + 1), repeat=n)
                expected = sorted((b for b in betas if lo <= sum(b) <= hi), key=lambda b: (sum(b), b))
                assert multi_indices(n, lo, hi) == expected, (n, lo, hi)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumeration_counts(euler2):
    polys = enumerate_bounded_polys(euler2.presentation, 2, 3)
    # 3 monomials, 3 nonzero coefficients: 3*3 + 3*9 + 1*27
    assert len(polys) == 63
    assert len({hash(f) for f in polys}) == 63


def test_enumeration_budget_guard(euler2):
    with pytest.raises(BudgetExceeded):
        enumerate_bounded_polys(euler2.presentation, 2, 3, budget=10)
    # the budget bounds the count of polynomials, 63 here, inclusively
    assert len(enumerate_bounded_polys(euler2.presentation, 2, 3, budget=63)) == 63
    with pytest.raises(BudgetExceeded):
        enumerate_bounded_polys(euler2.presentation, 2, 3, budget=62)


# ---------------------------------------------------------------------------
# bounded NI check
# ---------------------------------------------------------------------------


def test_bounded_ni_euler_consistent(euler2):
    res = bounded_NI_check(BoundedScan(euler2.presentation, 2, 3, 8))
    assert res.status == NICheckResult.CONSISTENT
    assert res.stats["closure_unknown"] == 0


def test_bounded_ni_weyl_violation_canonical_witness(weyl2):
    res = bounded_NI_check(BoundedScan(weyl2.presentation, 2, 2, 8))
    assert res.status == NICheckResult.VIOLATION
    w = res.witness
    assert w["kind"] == "left_product"
    y = weyl2.ring.el([0, 1])
    A = weyl2.presentation
    assert w["f"] == A.scalar(y)          # the nilpotent y
    assert w["g"] == A.variable(1)        # multiplied by x
    assert w["result"] == A.variable(1) * A.scalar(y)  # = yx + 1, idempotent
    assert replay_violation(w)


def test_finite_module_witness_replays(weyl2):
    # the golden weyl_like_2 witness: y * x = yx + 1 is idempotent, and a
    # finite module proves it not nilpotent
    w = bounded_NI_check(BoundedScan(weyl2.presentation, 2, 2, 8)).witness
    assert w["probe"] == ProbeResult(NOT_NILPOTENT, reason=FINITE_MODULE)
    assert replay_violation(w, exponent_cap=8)
    assert nilpotency_probe(w["result"], 8).reason == FINITE_MODULE


def test_replay_violation_uses_the_scan_cap(weyl2):
    # the witness is found at cap 8; y has index 2, so at cap 1 nothing is proved
    res = bounded_NI_check(BoundedScan(weyl2.presentation, 2, 2, 8))
    w = res.witness
    assert replay_violation(w, exponent_cap=8)
    assert not replay_violation(w, exponent_cap=1)


def test_replay_violation_probes_at_the_given_cap(weyl2, monkeypatch):
    from skewpbw import probes

    caps = []
    real = probes.nilpotency_probe

    def spy(f, exponent_cap=probes.DEFAULT_EXPONENT_CAP):
        caps.append(exponent_cap)
        return real(f, exponent_cap)

    w = bounded_NI_check(BoundedScan(weyl2.presentation, 2, 2, 8)).witness
    monkeypatch.setattr(probes, "nilpotency_probe", spy)
    assert replay_violation(w, exponent_cap=8)
    assert caps == [8, 8]


def test_bounded_ni_swap_violation(swap_entry):
    res = bounded_NI_check(BoundedScan(swap_entry.presentation, 2, 2, 8))
    assert res.status == NICheckResult.VIOLATION
    w = res.witness
    A = swap_entry.presentation
    ring = swap_entry.ring
    f1 = A.scalar(ring.el([1, 0])) * A.variable(1)
    f2 = A.scalar(ring.el([0, 1])) * A.variable(1)
    # the first failing check: [1,0]x * [0,1]x = [1,0]x^2, not nilpotent
    assert w["kind"] == "left_product" and w["f"] == f2 and w["g"] == f1
    assert w["result"] == f1 * f2 == A.scalar(ring.el([1, 0])) * A.variable(1) ** 2
    assert w["probe"].reason == LEADING_CHAIN
    assert replay_violation(w)
    # the sum face fails too: both summands are nilpotent, their sum x is not
    assert nilpotency_probe(f1, 8).proved_nilpotent and nilpotency_probe(f2, 8).proved_nilpotent
    assert f1 + f2 == A.variable(1) and nilpotency_probe(A.variable(1), 8).proved_not_nilpotent


def test_bounded_ni_budget_exceeded(euler3):
    with pytest.raises(BudgetExceeded):
        bounded_NI_check(BoundedScan(euler3.presentation, 2, 3, 8, pair_budget=10**4))


def test_agreement_euler_zero_mismatches(euler2):
    scan = BoundedScan(euler2.presentation, 2, 3, 8)
    agr = coefficient_agreement(scan)
    assert agr.holds and agr.unknown == 0
    # cross-check by hand: proved nilpotent <=> all coefficients in N(R)
    nil = nilpotent_set(euler2.ring)
    for f, r in scan.results():
        member = all(c in nil for c in f.coefficients().values())
        assert member == r.proved_nilpotent


def test_agreement_weyl_fails_exactly(weyl2):
    scan = BoundedScan(weyl2.presentation, 2, 2, 8)
    agr = coefficient_agreement(scan)
    assert not agr.holds and agr.exact_failure
    # yx has nilpotent coefficients but is a nonzero idempotent
    f = agr.witness["f"]
    assert agr.witness["direction"] == "criterion->probe"
    assert weyl2.ring.nilpotent_mask[list(f.terms.values())].all()


# ---------------------------------------------------------------------------
# Armendariz bounds
# ---------------------------------------------------------------------------


def test_armendariz_over_domain(quasi_z3):
    res = bounded_skew_armendariz(quasi_z3.presentation, 1, 2)
    assert res.holds  # extensions of a domain are domains: fg = 0 never fires


def test_armendariz_swap_fails(swap_entry):
    # f = (1,0) + (1,0)x and g = (0,1) + (1,0)x multiply to zero, but the
    # cross product a_0 * b_1 = (1,0)(1,0) is nonzero
    res = bounded_skew_armendariz(swap_entry.presentation, 1, 2)
    assert not res.holds
    f, g = res.witness["f"], res.witness["g"]
    assert (f * g).is_zero


def test_armendariz_z4_holds(poly_z4):
    res = bounded_skew_armendariz(poly_z4.presentation, 2, 2)
    assert res.holds


def test_armendariz_checks_budget_before_enumerating(q8_twisted, monkeypatch):
    from skewpbw import probes

    def refuse(*args, **kwargs):
        raise AssertionError("enumerated before the budget check")

    monkeypatch.setattr(probes, "enumerate_bounded_polys", refuse)
    monkeypatch.setattr(probes, "_polys_over_monomials", refuse)
    A = q8_twisted.presentation
    # 195,840 polynomials fit the default budget, their pairs do not
    with pytest.raises(BudgetExceeded) as exc:
        bounded_skew_armendariz(A, 2, 2)
    assert str(exc.value) == (
        "Armendariz pair enumeration needs about 38353305600 operations, budget is 1000000"
    )
    # the enumeration total is checked first
    with pytest.raises(BudgetExceeded) as exc:
        bounded_skew_armendariz(A, 2, 2, pair_budget=10**5)
    assert str(exc.value) == (
        "bounded polynomial enumeration needs about 195840 operations, budget is 100000"
    )
    with pytest.raises(BudgetExceeded) as exc:
        bounded_skew_armendariz(A, 1, 1, pair_budget=10**5)
    assert str(exc.value) == (
        "Armendariz pair enumeration needs about 260100 operations, budget is 100000"
    )
