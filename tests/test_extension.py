"""Rewriting engine: presentations, verification, normal-form arithmetic."""

import math
import random

import pytest

from skewpbw import (
    SigmaSystem,
    identity_map,
    make_endomorphism,
    make_extension,
    make_sigma_derivation,
    verify_presentation,
)
from skewpbw.corpus import matrix_upper, product_ring, trunc_poly, zn
from skewpbw.errors import (
    NonInjectiveSigma,
    OverlapFails,
    ShapeMismatch,
    Unverified,
    ZeroD,
)
from skewpbw.maps import ENDOMORPHISM, RingMap


def random_poly(rng, A, degree_cap=3, support=3):
    terms = {}
    monos = []
    for _ in range(support):
        alpha = [0] * A.n
        for _ in range(rng.randint(0, degree_cap)):
            alpha[rng.randrange(A.n)] += 1
        if sum(alpha) <= degree_cap:
            monos.append(tuple(alpha))
    for alpha in monos:
        terms[alpha] = rng.randrange(A.base.size)
    return A.poly({a: A.base.element_from_index(c) for a, c in terms.items()})


# ---------------------------------------------------------------------------
# construction and flags
# ---------------------------------------------------------------------------


def test_plain_polynomial_ring_flags():
    z4 = zn(4)
    A = make_extension(z4, SigmaSystem([identity_map(z4)]))
    assert A.derivation_type and A.endomorphism_type and A.quasi_commutative and A.bijective


def test_weyl_flags(weyl2):
    A = weyl2.presentation
    assert A.derivation_type
    assert not A.endomorphism_type
    assert not A.quasi_commutative


def test_quasi_commutative_flag(quasi_z3):
    assert quasi_z3.presentation.quasi_commutative
    assert quasi_z3.presentation.bijective


def test_zero_d_rejected():
    z3 = zn(3)
    system = SigmaSystem([identity_map(z3)] * 2)
    with pytest.raises(ZeroD):
        make_extension(z3, system, d={(1, 2): z3.el([0])})


def test_non_injective_sigma_rejected():
    ring = product_ring(zn(2), zn(2))
    proj = make_endomorphism(ring, [[1, 0], [1, 0]])  # (a, b) -> (a, a)
    with pytest.raises(NonInjectiveSigma):
        make_extension(ring, SigmaSystem([proj]))


def test_bad_pair_rejected():
    z3 = zn(3)
    system = SigmaSystem([identity_map(z3)] * 2)
    with pytest.raises(ShapeMismatch):
        make_extension(z3, system, d={(2, 1): z3.el([1])})


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def test_verify_ordinary_polynomials():
    z4 = zn(4)
    A = make_extension(z4, SigmaSystem([identity_map(z4)]))
    assert verify_presentation(A).verified


def test_verify_quasi_commutative_two_vars(quasi_z3):
    assert quasi_z3.presentation.verified


def test_corrupted_fixture_fails_overlap(weyl_corrupted):
    with pytest.raises(OverlapFails) as err:
        verify_presentation(weyl_corrupted)
    assert err.value.lhs != err.value.rhs


@pytest.mark.parametrize(
    "ring, matrix, message",
    [
        (
            product_ring(zn(4), zn(2)),
            [[0, 0], [1, 1]],
            "overlap check coefficient fails at (1, '[1,0]', '[0,1]'): normal forms differ: 0 != [0,1]*x^1",
        ),
        (
            matrix_upper(2),
            [[1, 1, 1], [0, 1, 1], [0, 0, 0]],
            "overlap check coefficient fails at (1, '[1,0,0]', '[0,0,1]'): normal forms differ: 0 != [1,1,0]*x^1",
        ),
    ],
    ids=["Z4xZ2", "U2(Z2)"],
)
def test_coefficient_overlap_failure_is_reported_by_elements(ring, matrix, message):
    # x (a b) against (x a) b, with a b read from the table: an additive sigma
    # that is not multiplicative fails it, at the pair and with the text that
    # the element arithmetic gave
    A = make_extension(ring, SigmaSystem([identity_map(ring)]))
    A._sig[0] = RingMap(ring, matrix, ENDOMORPHISM).index_list
    with pytest.raises(OverlapFails) as err:
        verify_presentation(A)
    assert str(err.value) == message


def test_heisenberg_verifies_and_jacobi_violation_fails(heisenberg2):
    # the genuine Lie bracket passes the triple-overlap check
    assert heisenberg2.presentation.verified
    x1, x2, x3 = (heisenberg2.presentation.variable(i) for i in (1, 2, 3))
    assert x2 * x1 == x1 * x2 - x3
    assert x3 * x1 == x1 * x3 and x3 * x2 == x2 * x3  # x3 is central

    # brackets [x2,x1] = x3, [x3,x1] = x1 break the Jacobi identity, and the
    # relation-relation overlap (x3 x2) x1 vs x3 (x2 x1) must catch it
    z2 = zn(2)
    system = SigmaSystem([identity_map(z2)] * 3)
    tails = {
        (1, 2): (z2.zero, (z2.zero, z2.zero, z2.one)),
        (1, 3): (z2.zero, (z2.one, z2.zero, z2.zero)),
    }
    bad = make_extension(z2, system, tails=tails)
    with pytest.raises(OverlapFails) as err:
        verify_presentation(bad)
    assert err.value.kind == "relation-relation"


def test_unverified_multiplication_refused():
    z4 = zn(4)
    A = make_extension(z4, SigmaSystem([identity_map(z4)]))
    f = A.variable(1)
    with pytest.raises(Unverified):
        f * f
    with pytest.raises(Unverified):
        f + f


# ---------------------------------------------------------------------------
# arithmetic examples (expected values computed by hand, see comments)
# ---------------------------------------------------------------------------


def test_swap_square_kills(swap_entry):
    A = swap_entry.presentation
    f = A.scalar(swap_entry.ring.el([1, 0])) * A.variable(1)
    # (1,0) * swap((1,0)) = (1,0)*(0,1) = 0
    assert (f * f).is_zero


def test_weyl_commutation(weyl2):
    A = weyl2.presentation
    x = A.variable(1)
    y = A.scalar(weyl2.ring.el([0, 1]))
    xy = x * y
    assert xy == A.poly({(1,): weyl2.ring.el([0, 1]), (0,): weyl2.ring.one})  # yx + 1
    assert xy * xy == xy  # idempotent in characteristic 2


def test_euler_yx_squares_to_zero(euler2):
    A = euler2.presentation
    f = A.scalar(euler2.ring.el([0, 1])) * A.variable(1)  # yx
    assert (f * f).is_zero


def test_one_is_neutral(corpus_entries):
    rng = random.Random(7)
    for entry in corpus_entries:
        A = entry.presentation
        one = A.one_poly()
        for _ in range(5):
            f = random_poly(rng, A)
            assert one * f == f
            assert f * one == f


def test_add_neg_power():
    z4 = zn(4)
    A = verify_presentation(make_extension(z4, SigmaSystem([identity_map(z4)])))
    x = A.variable(1)
    assert (x + (-x)).is_zero
    cube = x ** 3
    assert cube.degree == 3 and cube == A.monomial([3])
    assert (x ** 0) == A.one_poly()


def test_degree_bound_randomized(corpus_entries):
    rng = random.Random(11)
    for entry in corpus_entries:
        A = entry.presentation
        for _ in range(20):
            f, g = random_poly(rng, A), random_poly(rng, A)
            fg = f * g
            if fg.is_zero or f.is_zero or g.is_zero:
                continue
            assert fg.degree <= f.degree + g.degree, entry.name


def test_degree_equality_quasi_commutative_over_domain(quasi_z3):
    # bijective quasi-commutative over a domain: degrees add exactly
    rng = random.Random(17)
    A = quasi_z3.presentation
    for _ in range(50):
        f, g = random_poly(rng, A), random_poly(rng, A)
        if f.is_zero or g.is_zero:
            continue
        assert (f * g).degree == f.degree + g.degree


def test_quasi_commutative_monomial_degree(quasi_z3):
    # bijective quasi-commutative over a domain: single monomial, exact degree
    A = quasi_z3.presentation
    for alpha in [(1, 0), (0, 1), (2, 1), (1, 2)]:
        for beta in [(1, 0), (0, 1), (1, 1), (2, 0)]:
            prod = A.monomial(alpha) * A.monomial(beta)
            assert len(prod.terms) == 1
            assert prod.degree == sum(alpha) + sum(beta)


def test_zero_polynomial_degree():
    z4 = zn(4)
    A = verify_presentation(make_extension(z4, SigmaSystem([identity_map(z4)])))
    assert A.zero_poly().degree == -math.inf


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def commutative_multiply(f, g):
    """Independent naive multiplication for sigma = id, delta = 0, d = 1."""
    A = f.ext
    out = {}
    for alpha, a in f.coefficients().items():
        for beta, b in g.coefficients().items():
            gamma = tuple(x + y for x, y in zip(alpha, beta))
            c = a * b
            out[gamma] = out.get(gamma, A.base.zero) + c
    return A.poly(out)


def test_commutative_oracle_exhaustive_small(poly_z4):
    A = poly_z4.presentation
    ring = poly_z4.ring
    monos = [(0, 0), (1, 0), (0, 1)]
    singles = [A.monomial(m, coeff=ring.el([c])) for m in monos for c in range(1, 4)]
    for f in singles:
        for g in singles:
            assert f * g == commutative_multiply(f, g)


def test_commutative_oracle_randomized(poly_z4):
    A = poly_z4.presentation
    rng = random.Random(23)
    for _ in range(300):
        f, g = random_poly(rng, A), random_poly(rng, A)
        assert f * g == commutative_multiply(f, g)


def test_associativity_randomized(corpus_entries):
    rng = random.Random(5)
    for entry in corpus_entries:
        A = entry.presentation
        for _ in range(60):
            f, g, h = (random_poly(rng, A, degree_cap=2, support=2) for _ in range(3))
            assert (f * g) * h == f * (g * h), entry.name


def test_distributivity(corpus_entries):
    rng = random.Random(13)
    for entry in corpus_entries:
        A = entry.presentation
        for _ in range(40):
            f, g, h = (random_poly(rng, A, degree_cap=2, support=2) for _ in range(3))
            assert f * (g + h) == f * g + f * h, entry.name
            assert (f + g) * h == f * h + g * h, entry.name


def test_distributivity_exhaustive_small(euler2, weyl2):
    # every triple of single-term polynomials of degree <= 1
    for entry in (euler2, weyl2):
        A = entry.presentation
        ring = entry.ring
        singles = [
            A.monomial(alpha, coeff=ring.element_from_index(c))
            for alpha in [(0,), (1,)]
            for c in range(1, ring.size)
        ]
        for f in singles:
            for g in singles:
                for h in singles:
                    assert f * (g + h) == f * g + f * h
                    assert (f + g) * h == f * h + g * h


# ---------------------------------------------------------------------------
# expression rendering
# ---------------------------------------------------------------------------


def test_mixed_sigma_two_variable_extension():
    """Nontrivial sigma composed with variable swaps: x1 twists, x2 does not."""
    from skewpbw.corpus import product_ring

    ring = product_ring(zn(2), zn(2))
    swap = make_endomorphism(ring, [[0, 1], [1, 0]])
    system = SigmaSystem([swap, identity_map(ring)])
    A = verify_presentation(make_extension(ring, system))
    rng = random.Random(31)
    for _ in range(150):
        f, g, h = (random_poly(rng, A, degree_cap=2, support=2) for _ in range(3))
        assert (f * g) * h == f * (g * h)
    # x1 * r = swap(r) * x1 while x2 commutes with coefficients
    r = A.scalar(ring.el([1, 0]))
    assert A.variable(1) * r == A.scalar(ring.el([0, 1])) * A.variable(1)
    assert A.variable(2) * r == r * A.variable(2)


def test_delta_with_tails_two_variable_extension():
    """delta_1 = d/dy together with a nonzero inter-variable tail."""
    ring = trunc_poly(2, 2)
    ident = identity_map(ring)
    ddy = make_sigma_derivation(ring, ident, [[0, 1], [0, 0]])
    system = SigmaSystem([ident, ident], [ddy, None])
    y = ring.el([0, 1])
    # x2 x1 = x1 x2 + 1 + y*x2 is overlap-consistent for this delta
    tails = {(1, 2): (ring.one, (ring.zero, y))}
    A = verify_presentation(make_extension(ring, system, tails=tails))
    rng = random.Random(37)
    for _ in range(150):
        f, g, h = (random_poly(rng, A, degree_cap=2, support=2) for _ in range(3))
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_to_expr_matches_documented_syntax(weyl2):
    A = weyl2.presentation
    x = A.variable(1)
    y = A.scalar(weyl2.ring.el([0, 1]))
    assert (x * y).to_expr() == "[0,1]*x^1 + [1,0]"
    assert A.zero_poly().to_expr() == "0"


def test_multivariate_expr(quasi_z3):
    A = quasi_z3.presentation
    f = A.monomial((2, 1)) + A.scalar(quasi_z3.ring.el([2]))
    assert f.to_expr() == "[1]*x1^2*x2^1 + [2]"


# ---------------------------------------------------------------------------
# bounded rewriting caches
# ---------------------------------------------------------------------------


class WatchedCache(dict):
    """A cache dict that records its largest size and how often it was emptied."""

    def __init__(self):
        super().__init__()
        self.peak = 0
        self.clears = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.peak = max(self.peak, len(self))

    def clear(self):
        self.clears += 1
        super().clear()


def _fresh(P, watch=False):
    A = make_extension(P.base, P.system, d=P.d, tails=P.tails, name=P.name)
    if watch:
        A._push_cache = WatchedCache()
        A._mono_cache = WatchedCache()
    return verify_presentation(A)


def test_capped_caches_give_the_uncapped_products(corpus_entries, monkeypatch):
    from skewpbw import extension

    rng = random.Random(41)
    clears = 0
    for entry in corpus_entries:
        P = entry.presentation
        pairs = [(random_poly(rng, P).terms, random_poly(rng, P).terms) for _ in range(25)]
        U = _fresh(P)
        expected = [U._mul_terms(f, g) for f, g in pairs]
        with monkeypatch.context() as m:
            m.setattr(extension, "CACHE_CAP", 16)
            C = _fresh(P, watch=True)
            assert [C._mul_terms(f, g) for f, g in pairs] == expected, entry.name
        for cache in (C._push_cache, C._mono_cache):
            assert cache.peak <= 16, entry.name
            clears += cache.clears
    assert clears > 0  # the cap was reached, so the clearing path ran
