"""The probe ladder's per-presentation tables against the scalar loops they replace.

The oracles are the ladder as it ran one polynomial at a time: the leading
chain walked as a scalar orbit, and the module stage sent through the batch
`FiniteModules.decide` as a one-row batch.
"""

import dataclasses
import functools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewpbw import corpus, probes
from skewpbw.extension import SkewPolynomial, make_extension, verify_presentation
from skewpbw.harness import SearchBudget
from skewpbw.corpus import field4, product_ring, zn
from skewpbw.maps import SigmaSystem, make_endomorphism, multi_indices
from skewpbw.modules import finite_modules
from skewpbw.probes import (
    FINITE_MODULE,
    LEADING_CHAIN,
    NILPOTENT,
    NOT_NILPOTENT,
    UNKNOWN,
    BoundedScan,
    ProbeResult,
    coefficient_agreement,
    coefficient_criterion_member,
    enumerate_bounded_polys,
    nilpotency_probe,
)
from test_modules import CENSUS, CENSUS_CAP


def scalar_leading_chain_holds(f):
    """The orbit of c under b -> c sigma^alpha(b), walked until it repeats or reaches 0."""
    A = f.ext
    alpha = max(f.terms, key=lambda a: (sum(a), a))
    c = f.terms[alpha]
    if A.base.units_mask[c]:
        return True
    sigma, times_c = A.system.sigma_power(alpha).tolist(), A._mul[c]
    b, seen = c, set()
    while b and b not in seen:
        seen.add(b)
        b = times_c[sigma[b]]
    return b != 0


def batch_certifies(f):
    """The module stage as a one-row batch of `decide`."""
    monos = list(f.terms)
    return bool(finite_modules(f.ext).decide(np.array([[f.terms[a] for a in monos]]), monos)[0])


def scalar_probe(f, exponent_cap):
    A = f.ext
    if f.is_zero:
        return ProbeResult(NILPOTENT, index=1)
    if A.bijective and scalar_leading_chain_holds(f):
        return ProbeResult(NOT_NILPOTENT, reason=LEADING_CHAIN)
    if batch_certifies(f):
        return ProbeResult(NOT_NILPOTENT, reason=FINITE_MODULE)
    return probes._power_chain(f, exponent_cap)


def fresh(name):
    """A newly verified copy of a corpus presentation: empty caches and tables."""
    P = corpus.BUILDERS[name]().presentation
    return verify_presentation(make_extension(P.base, P.system, d=P.d, tails=P.tails, name=P.name))


# (status, reason, index) -> count over every census polynomial, at CENSUS_CAP
CENSUS_COUNTS = {
    "heisenberg_2": {(NOT_NILPOTENT, LEADING_CHAIN, None): 55},
    "clifford_trunc_2": {
        (NOT_NILPOTENT, LEADING_CHAIN, None): 444,
        (NOT_NILPOTENT, FINITE_MODULE, None): 180,
        (NILPOTENT, None, 2): 153,
    },
    "euler_like_3": {
        (NOT_NILPOTENT, LEADING_CHAIN, None): 1458,
        (NOT_NILPOTENT, FINITE_MODULE, None): 432,
        (NILPOTENT, None, 2): 18,
        (NILPOTENT, None, 3): 198,
    },
    "weyl_like_2": {
        (NOT_NILPOTENT, LEADING_CHAIN, None): 24,
        (NOT_NILPOTENT, FINITE_MODULE, None): 8,
        (NILPOTENT, None, 2): 4,
    },
    "swap_extension": {
        (NOT_NILPOTENT, LEADING_CHAIN, None): 28,
        (NOT_NILPOTENT, FINITE_MODULE, None): 6,
        (NILPOTENT, None, 2): 2,
    },
    "q8_twist": {
        (NOT_NILPOTENT, LEADING_CHAIN, None): 256,
        (NILPOTENT, None, 2): 30,
        (NILPOTENT, None, 3): 32,
        (NILPOTENT, None, 4): 96,
        (NILPOTENT, None, 5): 96,
    },
}


@pytest.mark.parametrize("name, degree, support", CENSUS, ids=[c[0] for c in CENSUS])
def test_census_probes_match_the_scalar_ladder(name, degree, support):
    A = fresh(name)
    polys = enumerate_bounded_polys(A, degree, support)
    results = [nilpotency_probe(f, CENSUS_CAP) for f in polys]
    assert all(r.cap is None for r in results)  # nothing unknown at cap 32
    assert Counter((r.status, r.reason, r.index) for r in results) == CENSUS_COUNTS[name]
    bad = [(f, r) for f, r in zip(polys, results) if r != scalar_probe(f, CENSUS_CAP)]
    assert not bad


@pytest.mark.parametrize("name", sorted(corpus.BUILDERS))
def test_probes_match_the_scalar_ladder_at_the_recorded_budget(name):
    b = corpus.BUILDERS[name]().budget
    degree, support, cap = b["degree_cap"], b["support_cap"], b["exponent_cap"]
    A = fresh(name)
    for f in enumerate_bounded_polys(A, degree, support):
        assert nilpotency_probe(f, cap) == scalar_probe(f, cap), f
    # the scan climbs the same ladder in bulk
    scan = BoundedScan(fresh(name), degree, support, cap)
    for f, r in scan.results():
        assert r == scalar_probe(f, cap), f


def frobenius_twist():
    """(F4 x Z2)[x; sigma], sigma the Frobenius on F4: leading orbits with a cycle of length 2.

    For the non-unit c = (w, 0), b -> c sigma(b) sends (w, 0) to
    (w (w + 1), 0) = (1, 0) and (1, 0) back to (w, 0).
    """
    ring = product_ring(field4(), zn(2))
    sigma = make_endomorphism(ring, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    return verify_presentation(make_extension(ring, SigmaSystem([sigma])))


def test_a_leading_orbit_with_a_longer_cycle():
    A = frobenius_twist()
    c = A.base.el([0, 1, 0])
    T = lambda b: c * A.system.sigmas[0](b)
    assert not A.base.units_mask[c.index] and T(c) != c and T(T(c)) == c
    assert probes._leading_chain_holds(A.monomial((1,), coeff=c))


@pytest.mark.parametrize("name", sorted(corpus.BUILDERS) + ["frobenius_twist"])
def test_leading_chain_rows_match_the_scalar_orbit(name):
    # every coefficient c and every leading monomial of degree <= 3
    A = frobenius_twist() if name == "frobenius_twist" else fresh(name)
    for alpha in multi_indices(A.n, 0, 3):
        row = probes._leading_chain_row(A, alpha)
        assert len(row) == A.base.size and all(type(v) is bool for v in row)
        for c in range(1, A.base.size):
            f = A.monomial(alpha, coeff=A.base.element_from_index(c))
            assert row[c] == scalar_leading_chain_holds(f), (name, alpha, c)


@functools.cache
def _presentation(name):
    return fresh(name)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_certifies_is_decide_on_the_row(data):
    A = _presentation(data.draw(st.sampled_from(sorted(corpus.BUILDERS))))
    monos = data.draw(st.lists(st.sampled_from(multi_indices(A.n, 0, 3)), min_size=1, max_size=4, unique=True))
    coeffs = data.draw(st.lists(st.integers(1, A.base.size - 1), min_size=len(monos), max_size=len(monos)))
    f = SkewPolynomial(A, dict(zip(monos, coeffs)))
    assert finite_modules(A).certifies(f) == batch_certifies(f)


@pytest.mark.parametrize("name", sorted(corpus.BUILDERS))
def test_no_module_certifies_zero(name):
    A = _presentation(name)
    assert not finite_modules(A).certifies(A.zero_poly())


# ---------------------------------------------------------------------------
# coefficient agreement and enumeration, against their loops
# ---------------------------------------------------------------------------


def scalar_agreement(scan):
    unknown = 0
    for f, r in scan.results():
        member = coefficient_criterion_member(f)
        if r.proved_nilpotent and not member:
            return (False, "probe->criterion", f, 0)
        if member and r.proved_not_nilpotent:
            return (False, "criterion->probe", f, 0)
        if member and r.status == UNKNOWN:
            unknown += 1
    return (True, None, None, unknown)


AGREEMENT_BUDGETS = {
    "recorded": SearchBudget,
    "doubled": lambda **b: SearchBudget(**b).doubled(),
    # power chains cut short: q8_twist's nilpotents of index 3 to 5 in N(R)<x> are unknown
    "exponent2": lambda **b: dataclasses.replace(SearchBudget(**b), exponent_cap=2),
}


@pytest.mark.parametrize("budget", AGREEMENT_BUDGETS.values(), ids=AGREEMENT_BUDGETS.keys())
@pytest.mark.parametrize("name", sorted(corpus.BUILDERS))
def test_agreement_matches_the_scalar_loop(name, budget):
    entry = corpus.BUILDERS[name]()
    b = budget(**entry.budget)
    scan = BoundedScan(entry.presentation, b.degree_cap, b.support_cap, b.exponent_cap, b.pair_budget)
    agr = coefficient_agreement(scan)
    w = agr.witness or {}
    assert (agr.holds, w.get("direction"), w.get("f"), agr.unknown) == scalar_agreement(scan)
    assert agr.exact_failure == (not agr.holds)
    if name == "q8_twist" and b.exponent_cap == 2:
        assert agr.unknown == 224


@pytest.mark.parametrize("name", sorted(corpus.BUILDERS))
def test_enumeration_matches_the_filtered_constructor(name):
    entry = corpus.BUILDERS[name]()
    b = entry.budget
    for f in enumerate_bounded_polys(entry.presentation, b["degree_cap"], b["support_cap"]):
        g = SkewPolynomial(f.ext, dict(f.terms))
        assert f.terms == g.terms and f == g and hash(f) == hash(g), f
