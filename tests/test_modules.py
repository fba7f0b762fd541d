"""The finite-module certificate against the rewriting engine and power iteration."""

import dataclasses
import functools
import itertools
import random

import numpy as np
import pytest

from skewpbw import corpus
from skewpbw.extension import make_extension, verify_presentation
from skewpbw.maps import SigmaSystem, identity_map
from skewpbw.modules import (
    CYCLIC,
    DIMENSION_CAP,
    TRUNCATED,
    FiniteModule,
    FiniteModules,
    finite_modules,
    is_module,
    shape_module,
)
from skewpbw.probes import (
    FINITE_MODULE,
    LEADING_CHAIN,
    UNKNOWN,
    BoundedScan,
    enumerate_bounded_polys,
    nilpotency_probe,
)
from test_extension import random_poly

PAIRS = 40  # seeded product pairs per presentation
# the nil_census round: (entry, degree cap, support cap) at exponent cap 32
CENSUS = [
    ("heisenberg_2", 2, 2),
    ("clifford_trunc_2", 2, 2),
    ("euler_like_3", 2, 2),
    ("weyl_like_2", 2, 2),
    ("swap_extension", 2, 2),
    ("q8_twist", 1, 1),
]
CENSUS_CAP = 32
ONE = ((1, TRUNCATED), (1, CYCLIC))  # the m_i = 1 rules, as c_i = 0 and c_i = 1


def cyclic(*m):
    return tuple((mi, CYCLIC) for mi in m)


def z2_polynomials(n):
    ring = corpus.zn(2)
    return verify_presentation(make_extension(ring, SigmaSystem([identity_map(ring)] * n)))


def rho(store, k, f):
    """rho_k(f) as a reduced integer matrix."""
    M = store.modules[k]
    D = len(M.orders)
    if f.is_zero:
        return np.zeros((D, D), dtype=np.int64)
    monos = list(f.terms)
    X = store._elems[[[f.terms[a] for a in monos]]].reshape(1, -1)
    return store.images(k, X, monos)[0].astype(np.int64)


# ---------------------------------------------------------------------------
# rho is a ring map, and the relation check is what makes it one
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(corpus.BUILDERS))
def test_rho_is_multiplicative(name):
    A = corpus.BUILDERS[name]().presentation
    store = finite_modules(A)
    assert store.modules, name
    rng = random.Random(name)
    pairs = [(random_poly(rng, A), random_poly(rng, A)) for _ in range(PAIRS)]
    pairs.append((A.variable(A.n) ** 5, A.variable(1) ** 3))
    for k, M in enumerate(store.modules):
        assert np.array_equal(rho(store, k, A.one_poly()), np.eye(len(M.orders), dtype=np.int64))
        for f, g in pairs:
            want = M.reduce(rho(store, k, f) @ rho(store, k, g))
            assert np.array_equal(rho(store, k, f * g), want), (name, M.shape, f, g)


def rho_direct(A, M, f):
    """rho(f) = sum_alpha L_{f_alpha} rho(x^alpha), straight from the module's matrices."""
    elems = A.base.elements_array
    out = sum((M.scalar(elems[c]) @ M.monomial(alpha) for alpha, c in f.terms.items()), np.zeros_like(M.ops[0]))
    return M.reduce(out)


@pytest.mark.parametrize("name", sorted(corpus.BUILDERS))
def test_changed_operator_is_rejected(name):
    # Change one entry of one X_i.  The check must refuse the result unless
    # it is a module too, which happens where the relations leave X_i free
    # (Z4[x1, x2] takes any two scalars); then rho must still be
    # multiplicative on engine products.
    A = corpus.BUILDERS[name]().presentation
    rng = random.Random(name)
    pairs = [(random_poly(rng, A), random_poly(rng, A)) for _ in range(8)]
    pairs += [(A.variable(j), A.variable(i)) for i in range(1, A.n + 1) for j in range(1, A.n + 1)]
    products = [(f, g, f * g) for f, g in pairs]
    rejected = 0
    for M in finite_modules(A).modules:
        for i, X in enumerate(M.ops):
            for u, v in np.ndindex(X.shape):
                changed = X.copy()
                changed[u, v] = (changed[u, v] + 1) % M.orders[u]
                other = dataclasses.replace(M, ops=M.ops[:i] + [changed] + M.ops[i + 1 :])
                if not is_module(A, other):
                    rejected += 1
                    continue
                for f, g, fg in products:
                    want = other.reduce(rho_direct(A, other, f) @ rho_direct(A, other, g))
                    assert np.array_equal(rho_direct(A, other, fg), want), (name, M.shape, i, u, v)
    assert rejected > 0, name


def test_catalogue_on_the_corpus():
    # no m_i = 1 shape gives a module on clifford_trunc_2: x2 x1 = x1 x2 + y1
    # needs operators that do not commute; cyclic m_i = 2 passes everywhere
    entries = {name: b() for name, b in corpus.BUILDERS.items()}  # the store holds its presentation weakly
    kept = {name: [M.shape for M in finite_modules(e.presentation).modules] for name, e in entries.items()}
    assert kept["clifford_trunc_2"] == [cyclic(2, 2)]
    assert all(shapes[-1] == cyclic(*[2] * len(shapes[-1])) for shapes in kept.values())
    assert kept["heisenberg_2"] == [(a, b, (1, TRUNCATED)) for a in ONE for b in ONE] + [cyclic(2, 2, 2)]  # c_3 = 0


def _shape_module_alone(A, shape):
    """shape_module as it was before the store shared its products: every shape makes its own."""
    base = A.base
    m = base.m
    alphas = list(itertools.product(*(range(mi) for mi, _ in shape)))
    pos = {alpha: k for k, alpha in enumerate(alphas)}
    D = len(alphas) * m
    orders = np.tile(np.array(base.orders, dtype=np.int64), len(alphas))
    elems = base.elements_array
    gens = [base.generator(t).index for t in range(m)]
    ops = []
    for i in range(A.n):
        xi = {tuple(int(t == i) for t in range(A.n)): A._one}
        X = np.zeros((D, D), dtype=np.int64)
        for alpha in alphas:
            for t, et in enumerate(gens):
                for gamma, c in A._mul_terms(xi, {alpha: et}).items():
                    k = pos.get(tuple(g % mi if rule == CYCLIC else g for g, (mi, rule) in zip(gamma, shape)))
                    if k is not None:
                        X[k * m : (k + 1) * m, pos[alpha] * m + t] += elems[c]
        ops.append(X % orders[:, None])
    left = np.einsum("ab,stu->saubt", np.eye(len(alphas), dtype=np.int64), base.constants).reshape(m, D, D)
    return FiniteModule(shape, left, ops, orders)


@pytest.mark.parametrize("name", sorted(corpus.BUILDERS))
def test_store_modules_equal_the_shapes_built_alone(name):
    # the store makes each product x_i e_t once for all its shapes
    A = corpus.BUILDERS[name]().presentation
    shapes = list(itertools.product(ONE, repeat=A.n)) + [cyclic(*[2] * A.n)]
    alone = [M for M in (_shape_module_alone(A, shape) for shape in shapes) if is_module(A, M)]
    store = FiniteModules(A).modules
    assert [M.shape for M in store] == [M.shape for M in alone], name
    for M, N in zip(store, alone):
        assert np.array_equal(M.left, N.left) and np.array_equal(M.orders, N.orders), (name, M.shape)
        assert len(M.ops) == len(N.ops) and all(np.array_equal(X, Y) for X, Y in zip(M.ops, N.ops)), (name, M.shape)


def _closed_form(A, c):
    """The m_i = 1 module in closed form: X_i = c_i sigma_i + delta_i, L_{e_s} = C[s]^T."""
    C, orders = A.base.constants, np.array(A.base.orders, dtype=np.int64)
    ops = [(ci * s.matrix + d.matrix) % orders[:, None] for ci, s, d in zip(c, A.system.sigmas, A.system.deltas)]
    return C.transpose(0, 2, 1), ops, orders


@pytest.mark.parametrize("name", sorted(corpus.BUILDERS) + ["Z2[x1..x6]"])
def test_unit_shapes_match_the_closed_form(name):
    A = z2_polynomials(6) if name == "Z2[x1..x6]" else corpus.BUILDERS[name]().presentation
    for c in itertools.product((0, 1), repeat=A.n):
        M = shape_module(A, tuple(ONE[ci] for ci in c))
        left, ops, orders = _closed_form(A, c)
        assert np.array_equal(M.left, left) and np.array_equal(M.orders, orders), (name, c)
        assert len(M.ops) == A.n and all(np.array_equal(X, Y) for X, Y in zip(M.ops, ops)), (name, c)


@pytest.mark.parametrize(
    "name, shape, passes",
    [
        ("poly_z4_2v", cyclic(3, 3), True),
        ("matrix_poly_2", cyclic(3), True),
        ("euler_like_2", cyclic(3), True),
        ("swap_extension", cyclic(3), True),
        ("clifford_trunc_2", ((2, TRUNCATED), (3, CYCLIC)), True),
        ("clifford_trunc_2", ((6, CYCLIC), (1, TRUNCATED)), True),
        ("clifford_trunc_2", cyclic(2, 3), True),
        ("clifford_trunc_2", cyclic(6, 1), True),
        ("clifford_trunc_2", cyclic(3, 3), False),
    ],
)
def test_shapes_outside_the_catalogue(name, shape, passes):
    # m_i > 2 and mixed rules: the relation check decides, and a module it
    # keeps is multiplicative on engine products
    A = corpus.BUILDERS[name]().presentation
    M = shape_module(A, shape)
    assert M.shape == shape and len(M.orders) == A.base.m * np.prod([m for m, _ in shape])
    assert is_module(A, M) == passes
    if not passes:
        return
    rng = random.Random(name)
    pairs = [(random_poly(rng, A), random_poly(rng, A)) for _ in range(PAIRS)]
    pairs += [(A.variable(j), A.variable(i)) for i in range(1, A.n + 1) for j in range(1, A.n + 1)]
    for f, g in pairs:
        want = M.reduce(rho_direct(A, M, f) @ rho_direct(A, M, g))
        assert np.array_equal(rho_direct(A, M, f * g), want), (name, shape, f, g)


# ---------------------------------------------------------------------------
# against power iteration
# ---------------------------------------------------------------------------


@functools.cache
def census_chains():
    """(entry, f, reason, k) for every census polynomial the leading chain leaves open.

    k is the least k <= CENSUS_CAP with f^k = 0, computed by the power
    chain alone, or None.
    """
    out = []
    for name, degree, support in CENSUS:
        P = corpus.BUILDERS[name]().presentation
        A = verify_presentation(make_extension(P.base, P.system, d=P.d, tails=P.tails, name=P.name))
        for f in enumerate_bounded_polys(A, degree, support):
            r = nilpotency_probe(f, CENSUS_CAP)
            assert r.status != UNKNOWN, (name, f)
            if r.reason == LEADING_CHAIN:
                continue
            power, k = f, None
            for j in range(2, CENSUS_CAP + 1):
                power = f * power
                if power.is_zero:
                    k = j
                    break
            out.append((name, f, r.reason, k))
    return out


def test_census_finite_module_results_have_no_vanishing_power():
    certified = [(name, f) for name, f, reason, k in census_chains() if reason == FINITE_MODULE]
    assert len(certified) == 180 + 432 + 8 + 6
    bad = [(name, f) for name, f, reason, k in census_chains() if reason == FINITE_MODULE and k is not None]
    assert not bad


def test_power_chain_nilpotents_are_never_certified(corpus_entries):
    nilpotent = [(name, f) for name, f, _, k in census_chains() if k is not None]
    assert nilpotent and all(not finite_modules(f.ext).certifies(f) for _, f in nilpotent)
    # and at the recorded budgets, through the scan's bulk decisions
    for entry in corpus_entries:
        b = entry.budget
        scan = BoundedScan(entry.presentation, b["degree_cap"], b["support_cap"], b["exponent_cap"])
        for f, r in scan.results():
            power = f
            for _ in range(b["exponent_cap"]):
                power = f * power
                if power.is_zero:
                    assert r.proved_nilpotent, (entry.name, f)
                    break


def test_no_probe_left_unknown_at_the_recorded_budgets(corpus_entries):
    for entry in corpus_entries:
        b = entry.budget
        scan = BoundedScan(entry.presentation, b["degree_cap"], b["support_cap"], b["exponent_cap"])
        assert scan.scan_unknown == 0, entry.name


def test_matrix_poly_witness_is_not_nilpotent(matrix_poly2):
    # e12 x + e21 has nilpotent coefficients, and its square is x
    A, ring = matrix_poly2.presentation, matrix_poly2.ring
    f = A.poly({(1,): ring.el([0, 1, 0, 0]), (0,): ring.el([0, 0, 1, 0])})
    assert f * f == A.variable(1)
    r = nilpotency_probe(f, 8)
    assert r.proved_not_nilpotent and r.reason == FINITE_MODULE


# ---------------------------------------------------------------------------
# the store: bulk decisions, the J(R)<x> skip, caches, lifetime
# ---------------------------------------------------------------------------


def test_scan_decides_its_module_stage_in_bulk(clifford2, monkeypatch):
    # the scan runs the rungs itself: one decide per row block, no single probe
    from skewpbw import probes

    A = clifford2.presentation
    store = finite_modules(A)
    rows, evaluated = [], []
    decide, top_power = FiniteModules.decide, FiniteModules._top_power
    monkeypatch.setattr(FiniteModules, "decide", lambda self, K, monos: rows.append(len(K)) or decide(self, K, monos))
    monkeypatch.setattr(
        FiniteModules,
        "_top_power",
        lambda self, k, R: evaluated.append(len(R)) or top_power(self, k, R),
    )
    monkeypatch.setattr(probes, "nilpotency_probe", lambda *a: pytest.fail("the scan called nilpotency_probe"))
    scan = BoundedScan(A, 2, 2, 8)
    assert rows == [333]  # one block: the rows that the leading chain leaves open
    assert sum(evaluated) == 180  # of them, the rows outside J<x>
    assert sum(r.reason == FINITE_MODULE for _, r in scan.results()) == 180
    assert store is finite_modules(A)


@pytest.mark.parametrize(
    "name, degree, support, count",
    [("clifford_trunc_2", 2, 2, 153), ("euler_like_3", 2, 2, 216), ("q8_twist", 1, 1, 254)],
)
def test_module_stage_skips_the_invariant_radical(name, degree, support, count, monkeypatch):
    # every f in a Sigma-Delta-invariant J(R)<x> is nilpotent, so the store
    # answers it before it evaluates any module
    A = corpus.BUILDERS[name]().presentation
    store = finite_modules(A)
    assert store.jacobson_mask is not None and store.nil_index <= CENSUS_CAP
    evaluated = []
    top_power = FiniteModules._top_power
    monkeypatch.setattr(
        FiniteModules,
        "_top_power",
        lambda self, k, R: evaluated.append(len(R)) or top_power(self, k, R),
    )
    in_J = [f for f in enumerate_bounded_polys(A, degree, support) if store.jacobson_mask[list(f.terms.values())].all()]
    assert len(in_J) == count  # the census probes in J<x>
    assert not any(store.certifies(f) for f in in_J)
    assert evaluated == []
    for f in in_J:
        r = nilpotency_probe(f, CENSUS_CAP)
        assert r.proved_nilpotent and r.index <= store.nil_index, (name, f, r)


def test_module_stage_needs_an_invariant_radical(weyl2):
    # J(R) = (y) is not Delta-invariant, d/dy(y) = 1: y x lies in J<x>, and
    # (yx)^2 = yx, so the store must still try its modules
    A = weyl2.presentation
    store = finite_modules(A)
    assert store.jacobson_mask is None and store.nil_index is None
    f = A.scalar(weyl2.ring.el([0, 1])) * A.variable(1)
    assert store.certifies(f)
    r = nilpotency_probe(f, 8)
    assert r.proved_not_nilpotent and r.reason == FINITE_MODULE


def test_atom_cache_is_bounded(weyl2, monkeypatch):
    from skewpbw import modules, probes

    monkeypatch.setattr(modules, "ATOM_CACHE_CAP", 4)
    monkeypatch.setattr(probes, "LEADING_CACHE_CAP", 4)
    P = weyl2.presentation
    A = verify_presentation(make_extension(P.base, P.system, d=P.d, tails=P.tails, name=P.name))
    store = FiniteModules(A)
    y = weyl2.ring.el([0, 1])
    results = []
    for d in range(1, 12):
        for c in (y, y + weyl2.ring.one):
            f = A.monomial((d,), coeff=c)
            results.append(store.certifies(f))
            assert probes._leading_chain_holds(f) == (c != y)  # 1 + y is a unit
            assert len(store._atoms) <= 4 and len(A._leading) <= 4
    # y x^d is nilpotent for even d, (y x^d)^2 = y^2 x^2d + d y y' x^(2d-1)
    assert results[0::2] == [d % 2 == 1 for d in range(1, 12)]


def test_catalogue_size_is_capped():
    # Z2[x1..x7] would give 128 shapes with every m_i = 1 and a cyclic m_i = 2
    # module on 128 generators: both are left out, and probes go on to the
    # power chain
    A = z2_polynomials(7)
    assert 2**A.n > DIMENSION_CAP and FiniteModules(A).modules == []
    f = A.variable(1) + A.variable(2)
    assert not finite_modules(A).certifies(f)
    assert nilpotency_probe(f, 4).reason == LEADING_CHAIN
    B = z2_polynomials(6)
    assert [M.shape for M in FiniteModules(B).modules] == list(itertools.product(ONE, repeat=6)) + [cyclic(*[2] * 6)]


def test_store_is_built_on_first_use_only():
    assert all(build().presentation._modules is None for build in corpus.BUILDERS.values())
    entry = corpus.weyl_like(2)
    assert entry.presentation._modules is None
    nilpotency_probe(entry.presentation.variable(1), 8)  # decided by the leading chain
    assert entry.presentation._modules is None
    nilpotency_probe(entry.presentation.scalar(entry.ring.el([0, 1])), 8)
    assert entry.presentation._modules is not None
