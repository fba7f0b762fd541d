"""Gradings, graded-extension conditions, homogeneous decomposition."""

import itertools

import pytest

from skewpbw import (
    SigmaSystem,
    attach_grading,
    homogeneous_components,
    identity_map,
    is_connected,
    is_graded_extension,
    make_extension,
    trivial_grading,
    verify_presentation,
)
from skewpbw.corpus import BUILDERS, clifford_base, field4, standard_rings, trunc_poly, zn
from skewpbw.errors import (
    IdentityNotDegreeZero,
    InhomogeneousConstant,
    NotBijective,
    NotGraded,
)
from skewpbw.graded import polynomial_is_homogeneous


def test_attach_grading_trunc():
    ring = trunc_poly(2, 3)
    g = attach_grading(ring, [0, 1, 2])
    assert g.labels == (0, 1, 2)


def test_attach_trivial_grading_any_ring():
    for ring in (zn(4), field4(), trunc_poly(3, 2)):
        assert not any(trivial_grading(ring).labels)


def test_attach_grading_clifford_base():
    ring = clifford_base(2)
    g = attach_grading(ring, [0, 2, 2])
    assert g.component_generators(2) == [1, 2]


def test_inhomogeneous_constant_rejected():
    # F4 with t in degree 1: t*t = 1 + t mixes degrees 0 and 1, target is 2
    with pytest.raises(InhomogeneousConstant):
        attach_grading(field4(), [0, 1])


def test_identity_not_degree_zero_rejected():
    with pytest.raises(IdentityNotDegreeZero):
        attach_grading(zn(4), [1])


def test_element_components():
    ring = trunc_poly(2, 3)
    g = attach_grading(ring, [0, 1, 2])
    r = ring.el([1, 1, 1])
    comps = g.element_components(r)
    assert set(comps) == {0, 1, 2}
    total = ring.zero
    for part in comps.values():
        total = total + part
    assert total == r


# ---------------------------------------------------------------------------
# graded extensions
# ---------------------------------------------------------------------------


def test_clifford_is_graded_and_connected(clifford2):
    profile = is_graded_extension(clifford2.presentation, clifford2.grading)
    assert profile.is_graded_extension
    assert profile.connected
    assert is_connected(clifford2.grading)


def test_quasi_commutative_trivial_grading_is_graded(swap_entry, quasi_z3, poly_z4):
    for entry in (swap_entry, quasi_z3, poly_z4):
        profile = is_graded_extension(entry.presentation, entry.grading)
        assert profile.is_graded_extension, entry.name


def test_euler_not_graded(euler2):
    # delta(y) = y sits in degree 1, the graded condition needs degree 2
    grading = attach_grading(euler2.ring, [0, 1])
    profile = is_graded_extension(euler2.presentation, grading)
    assert not profile.is_graded_extension
    assert any("delta" in cond for cond, _ in profile.diagnostics)


def test_weyl_not_graded(weyl2):
    grading = attach_grading(weyl2.ring, [0, 1])
    profile = is_graded_extension(weyl2.presentation, grading)
    assert not profile.is_graded_extension


def test_not_bijective_raises():
    z4 = zn(4)
    system = SigmaSystem([identity_map(z4)] * 2)
    A = verify_presentation(make_extension(z4, system, d={(1, 2): z4.el([2])}))
    assert not A.bijective  # d = 2 is not a unit of Z_4
    with pytest.raises(NotBijective):
        is_graded_extension(A, trivial_grading(z4))


def test_connected_examples():
    assert is_connected(attach_grading(trunc_poly(2, 2), [0, 1]))
    assert not is_connected(trivial_grading(zn(4)))
    assert is_connected(attach_grading(clifford_base(2), [0, 2, 2]))


def _oracle_is_connected(grading):
    """R_0 spanned by 1 and a field, by the element loops: quadratic in |R_0|."""
    ring = grading.ring
    zero_gens = grading.component_generators(0)
    comp = []
    for idx in range(ring.size):
        r = ring.element_from_index(idx)
        if all(c == 0 for t, c in enumerate(r.coords) if t not in zero_gens):
            comp.append(r)
    multiples = set()
    r = ring.zero
    for _ in range(ring.size):
        multiples.add(r)
        r = r + ring.one
    if any(x not in multiples for x in comp):
        return False
    for a in comp:
        for b in comp:
            if a * b != b * a:
                return False
    for a in comp:
        if a.is_zero:
            continue
        if not any((a * b == ring.one and b * a == ring.one) for b in comp):
            return False
    return True


def test_connected_by_counting_matches_the_element_loops():
    # every labelling in {0, 1, 2} that attach_grading accepts, on the
    # standard rings and the corpus bases
    rings = [e.ring for e in standard_rings()] + [build().ring for build in BUILDERS.values()]
    gradings = []
    for ring in rings:
        for labels in itertools.product(range(3), repeat=ring.m):
            try:
                gradings.append(attach_grading(ring, labels))
            except (IdentityNotDegreeZero, InhomogeneousConstant):
                pass
    verdicts = [(is_connected(g), _oracle_is_connected(g)) for g in gradings]
    assert all(new == old for new, old in verdicts)
    assert (len(gradings), sum(new for new, _ in verdicts)) == (54, 19)


def test_connected_on_a_large_prime_field():
    # Z_4093 = Z*1 is a field; the element loops would pair 4093^2 elements
    assert is_connected(attach_grading(zn(4093), [0]))


# ---------------------------------------------------------------------------
# homogeneous decomposition
# ---------------------------------------------------------------------------


def test_components_worked_examples(clifford2):
    A = clifford2.presentation
    ring = clifford2.ring
    y1 = ring.el([0, 1, 0])
    f = A.scalar(y1) * A.variable(1)  # y in degree 2 times x: component 3
    comps = homogeneous_components(f, clifford2.grading)
    assert [p for p, part in comps if not part.is_zero] == [3]

    one = A.one_poly()
    assert [p for p, _ in homogeneous_components(one, clifford2.grading)] == [0]

    mixed = A.variable(1) + A.scalar(y1)
    degrees = [p for p, _ in homogeneous_components(mixed, clifford2.grading)]
    assert degrees == [1, 2]


def test_components_sum_back_and_are_fixed_points(clifford2):
    import random

    A = clifford2.presentation
    rng = random.Random(3)
    for _ in range(25):
        terms = {}
        for _ in range(3):
            alpha = (rng.randint(0, 2), rng.randint(0, 2))
            terms[alpha] = A.base.element_from_index(rng.randrange(A.base.size))
        f = A.poly(terms)
        comps = homogeneous_components(f, clifford2.grading)
        total = A.zero_poly()
        for p, part in comps:
            total = total + part
            sub = homogeneous_components(part, clifford2.grading)
            nonzero = [(q, s) for q, s in sub if not s.is_zero]
            if not part.is_zero:
                assert nonzero == [(p, part)]
        assert total == f


def test_not_graded_error(euler2):
    grading = attach_grading(euler2.ring, [0, 1])
    with pytest.raises(NotGraded):
        homogeneous_components(euler2.presentation.one_poly(), grading)


def test_y_plus_x_lives_in_component_one():
    # ordinary R[x] over Z_2[y]/(y^2) graded by exponent: y and x both degree 1
    ring = trunc_poly(2, 2)
    grading = attach_grading(ring, [0, 1])
    A = verify_presentation(make_extension(ring, SigmaSystem([identity_map(ring)])))
    f = A.scalar(ring.el([0, 1])) + A.variable(1)
    comps = [(p, part) for p, part in homogeneous_components(f, grading) if not part.is_zero]
    assert [p for p, _ in comps] == [1]
    assert comps[0][1] == f


def test_homogeneous_multiplicativity_exhaustive(clifford2):
    """Products of homogeneous elements land in the component-degree sum."""
    A = clifford2.presentation
    grading = clifford2.grading
    ring = clifford2.ring
    monos = [m for m in itertools.product(range(3), repeat=2) if sum(m) <= 2]
    homogeneous = []
    for alpha in monos:
        for idx in range(1, ring.size):
            f = A.monomial(alpha, coeff=ring.element_from_index(idx))
            if polynomial_is_homogeneous(f, grading):
                comp = homogeneous_components(f, grading)
                homogeneous.append((comp[0][0], f))
    assert homogeneous
    for p, f in homogeneous:
        for q, g in homogeneous:
            fg = f * g
            if fg.is_zero:
                continue
            assert polynomial_is_homogeneous(fg, grading, degree=p + q), (f, g, fg)
