import pytest

from skewpbw import corpus
from skewpbw.extension import make_extension, verify_presentation
from skewpbw.maps import SigmaSystem, identity_map, make_sigma_derivation


@pytest.fixture(scope="session")
def swap_entry():
    return corpus.swap_extension()


@pytest.fixture(scope="session")
def weyl2():
    return corpus.weyl_like(2)


@pytest.fixture(scope="session")
def euler2():
    return corpus.euler_like(2)


@pytest.fixture(scope="session")
def euler3():
    return corpus.euler_like(3)


@pytest.fixture(scope="session")
def clifford2():
    return corpus.clifford_trunc(2)


@pytest.fixture(scope="session")
def quasi_z3():
    return corpus.quasi_comm(3, 2, 2)


@pytest.fixture(scope="session")
def poly_z4():
    return corpus.commutative_poly(4, 2)


@pytest.fixture(scope="session")
def matrix_poly2():
    return corpus.matrix_poly(2)


@pytest.fixture(scope="session")
def heisenberg2():
    return corpus.heisenberg(2)


@pytest.fixture(scope="session")
def q8_twisted():
    return corpus.q8_twist()


@pytest.fixture(scope="session")
def z4_nonunit_d12():
    """Z4[x1, x2], sigma = id, x2 x1 = 2 x1 x2: it verifies, but d_12 = 2 is no unit, so A is not bijective."""
    ring = corpus.zn(4)
    ident = identity_map(ring)
    return verify_presentation(make_extension(ring, SigmaSystem([ident, ident]), d={(1, 2): ring.el([2])}))


@pytest.fixture(scope="session")
def weyl_corrupted():
    """A deliberately inconsistent two-variable Weyl variant, never verified.

    delta_1 = d/dy over Z_2[y]/(y^2) with the inter-variable relation
    x_2 x_1 = x_1 x_2 + y x_1: the linear tail breaks the overlap
    (x_2 x_1) y = x_2 (x_1 y), so verify_presentation must fail.
    """
    ring = corpus.trunc_poly(2, 2)
    ident = identity_map(ring)
    ddy = make_sigma_derivation(ring, ident, corpus._ddy_matrix(ring), name="d/dy")
    system = SigmaSystem([ident, ident], [ddy, None])
    y = ring.el([0, 1])
    tails = {(1, 2): (ring.zero, (y, ring.zero))}
    return make_extension(ring, system, tails=tails, name="weyl_like_corrupted")


@pytest.fixture(scope="session")
def ring_entries():
    return corpus.standard_rings()


@pytest.fixture(scope="session")
def corpus_entries(
    swap_entry, weyl2, euler2, euler3, clifford2, heisenberg2, quasi_z3, poly_z4,
    matrix_poly2, q8_twisted,
):
    return [
        swap_entry, weyl2, euler2, euler3, clifford2, heisenberg2, quasi_z3,
        poly_z4, matrix_poly2, q8_twisted,
    ]
