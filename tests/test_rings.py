"""Ring core: construction, arithmetic, radicals, classification."""

import contextlib
import gc
import io
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import skewpbw
from skewpbw import (
    Ideal,
    classify_ring,
    cli,
    corpus,
    defio,
    ideal_generated_by,
    ideal_power_index,
    jacobson_radical,
    levitzki_radical,
    make_ring,
    nilpotent_set,
    prime_radical,
    rings,
    upper_nilradical,
)
from skewpbw.corpus import (
    clifford_base,
    field4,
    group_ring_q8,
    matrix_full,
    matrix_upper,
    product_ring,
    trunc_poly,
    zn,
)
from skewpbw.errors import (
    BadIdentity,
    BadShape,
    IllDefinedConstant,
    NonAssociative,
    NotAnIdeal,
    RingMismatch,
    TooLarge,
)


def coords_set(elements):
    return sorted(e.coords for e in elements)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_make_ring_z4():
    r = make_ring([4], [[[1]]], [1])
    assert r.size == 4
    assert r.one.coords == (1,)


def test_make_ring_z2xz2():
    r = make_ring([2, 2], [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [1, 1])
    assert r.size == 4
    a, b = r.el([1, 0]), r.el([0, 1])
    assert (a * b).is_zero
    assert a * a == a


def test_make_ring_rejects_bad_identity():
    # e1*e1 = e1 with claimed identity e2 fails the identity law
    with pytest.raises(BadIdentity):
        make_ring([2, 2], [[[1, 0], [0, 0]], [[0, 0], [0, 0]]], [0, 1])


def test_make_ring_rejects_nonassociative():
    # e2*e2 = e2 and e2*e1 = e2 but e1 = 1: force (e2 e2) e2 != e2 (e2 e2)
    with pytest.raises((NonAssociative, BadIdentity)):
        make_ring([3], [[[2]]], [1])


def _scalar_mul(orders, constants, a, b):
    m = len(orders)
    out = [0] * m
    for s in range(m):
        for t in range(m):
            for u in range(m):
                out[u] += a[s] * b[t] * constants[s][t][u]
    return [c % k for c, k in zip(out, orders)]


def _generators(m):
    return [[int(s == i) for s in range(m)] for i in range(m)]


def _first_nonassociative_triple(orders, constants):
    """The scalar check: first (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k)."""
    m = len(orders)

    def mul(a, b):
        return _scalar_mul(orders, constants, a, b)

    gens = _generators(m)
    for i in range(m):
        for j in range(m):
            for k in range(m):
                if mul(mul(gens[i], gens[j]), gens[k]) != mul(gens[i], mul(gens[j], gens[k])):
                    return (i + 1, j + 1, k + 1)
    return None


def _first_ill_defined_pair(orders, constants):
    """The scalar check: first (i, j) with k_i C[i,j] or k_j C[i,j] nonzero."""
    m = len(orders)
    for i in range(m):
        for j in range(m):
            for u in range(m):
                c = constants[i][j][u] % orders[u]
                if (orders[i] * c) % orders[u] or (orders[j] * c) % orders[u]:
                    return (i + 1, j + 1)
    return None


def _first_bad_identity(orders, constants, one):
    """The scalar check: first i with 1 e_i != e_i or e_i 1 != e_i."""
    one = [c % k for c, k in zip(one, orders)]
    for i, e in enumerate(_generators(len(orders))):
        if _scalar_mul(orders, constants, one, e) != e or _scalar_mul(orders, constants, e, one) != e:
            return i + 1
    return None


def _first_construction_error(orders, constants, one):
    """The scalar checks in the order FiniteRing makes them: the error type and its index."""
    pair = _first_ill_defined_pair(orders, constants)
    if pair:
        return IllDefinedConstant, pair
    i = _first_bad_identity(orders, constants, one)
    if i:
        return BadIdentity, i
    triple = _first_nonassociative_triple(orders, constants)
    if triple:
        return NonAssociative, triple
    return None


def test_construction_checks_match_scalar_loops():
    # one or two mutated constants or identity coordinates of valid rings with
    # mixed orders: the same error, at the same first index, as the scalar loops
    rng = np.random.default_rng(20)
    bases = [
        product_ring(zn(4), zn(2)),
        product_ring(zn(4), trunc_poly(2, 2)),
        product_ring(zn(3), matrix_upper(2)),
        matrix_upper(3),
        clifford_base(2),
    ]
    seen = set()
    for base in bases:
        orders, m = list(base.orders), base.m
        for _ in range(60):
            C = base.constants.tolist()
            one = list(base.one.coords)
            for _ in range(int(rng.integers(1, 3))):
                if rng.random() < 0.2:
                    u = int(rng.integers(m))
                    one[u] = int(rng.integers(orders[u]))
                else:
                    i, j, u = (int(t) for t in rng.integers(m, size=3))
                    C[i][j][u] = int(rng.integers(orders[u]))
            expected = _first_construction_error(orders, C, one)
            try:
                make_ring(orders, C, one)
                got = None
            except IllDefinedConstant as exc:
                got = IllDefinedConstant, exc.pair
            except BadIdentity as exc:
                got = BadIdentity, exc.index
            except NonAssociative as exc:
                got = NonAssociative, exc.triple
            assert got == expected, (base.name, C, one)
            seen.add(got[0] if got else None)
    assert seen == {None, IllDefinedConstant, BadIdentity, NonAssociative}


@pytest.mark.parametrize(
    "constants, triple",
    [
        # e1 = 1; e2 e3 = 0, e3 e2 = e1 + e2 + e3: (e2 e3) e2 = 0 but e2 (e3 e2) = e2
        ([[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 1], [1, 1, 1], [1, 0, 1]]], (2, 3, 2)),
        # e2 e3 = e3, e3 e2 = 0, e3 e3 = e2: (e3 e2) e3 = 0 but e3 (e2 e3) = e2
        ([[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [0, 1, 0], [0, 0, 1]], [[0, 0, 1], [0, 0, 0], [0, 1, 0]]], (3, 2, 3)),
    ],
)
def test_make_ring_reports_first_nonassociative_triple(constants, triple):
    assert _first_nonassociative_triple([2, 2, 2], constants) == triple
    with pytest.raises(NonAssociative) as exc:
        make_ring([2, 2, 2], constants, [1, 0, 0])
    assert exc.value.triple == triple


def test_associativity_check_matches_scalar_triples():
    # random tensors with e1 = 1 over Z2^3 and Z3^2: same verdict, same triple
    rng = np.random.default_rng(7)
    seen = set()
    for orders in ([2, 2, 2], [3, 3]):
        m = len(orders)
        for _ in range(150):
            C = rng.integers(0, orders[0], (m, m, m))
            C[0] = np.eye(m, dtype=int)
            C[:, 0] = np.eye(m, dtype=int)
            C = C.tolist()
            expected = _first_nonassociative_triple(orders, C)
            try:
                make_ring(orders, C, [1] + [0] * (m - 1))
                got = None
            except NonAssociative as exc:
                got = exc.triple
            assert got == expected, (orders, C)
            seen.add(got)
    assert None in seen and len(seen) > 4


def test_associativity_check_exact_for_huge_orders():
    # Z_k x Z_k in the basis b1 = (1, b), b2 = (a, 1 + ab), k = 2^40 + 15: the
    # constants are near k, so int64 sums of their products would wrap
    k = 2**40 + 15
    rng = np.random.default_rng(11)
    for _ in range(5):
        a, b = (int(t) for t in rng.integers(2**39, k, 2))
        basis = [(1, b), (a, 1 + a * b)]

        def coords(v):
            return [((1 + a * b) * v[0] - a * v[1]) % k, (v[1] - b * v[0]) % k]

        C = [[coords((x[0] * y[0], x[1] * y[1])) for y in basis] for x in basis]
        r = make_ring([k, k], C, coords((1, 1)))
        assert r.one * r.generator(1) == r.generator(1)
        # the idempotent (1, 0) is no identity: the same generator as the scalar loop
        with pytest.raises(BadIdentity) as exc:
            make_ring([k, k], C, coords((1, 0)))
        assert _first_construction_error([k, k], C, coords((1, 0))) == (BadIdentity, exc.value.index)


def test_make_ring_rejects_ill_defined_constant():
    # orders (2, 4) with e1*e1 = e2: 2*(e1*e1) must vanish but 2*e2 != 0
    with pytest.raises(IllDefinedConstant):
        make_ring([2, 4], [[[0, 1], [0, 0]], [[0, 0], [0, 0]]], [1, 0])


def test_make_ring_rejects_bad_shapes():
    with pytest.raises(BadShape):
        make_ring([1], [[[1]]], [1])
    with pytest.raises(BadShape):
        make_ring([2], [[[1, 0]]], [1])
    with pytest.raises(BadShape):
        make_ring([2], [[[1]]], [1, 0])


def test_matrix_ring_against_numpy_oracle():
    """Structure-constant multiplication must equal actual 2x2 matrix products."""
    r = matrix_full(2)

    def as_matrix(el):
        a, b, c, d = el.coords
        return np.array([[a, b], [c, d]], dtype=int)

    for i in range(16):
        for j in range(16):
            x, y = r.element_from_index(i), r.element_from_index(j)
            expected = (as_matrix(x) @ as_matrix(y)) % 2
            got = as_matrix(x * y)
            assert (expected == got).all()


def _assert_tables_match(ring, pairs):
    """Table entries at the given index pairs against coordinate arithmetic."""
    for a, b in pairs:
        x = ring.element_from_index(a).coords
        y = ring.element_from_index(b).coords
        assert ring.neg_array[a] == ring.index_of([-c % k for c, k in zip(x, ring.orders)])
        assert ring.mul_table[a, b] == ring.index_of(ring._mul_coords(x, y))
        s = [(c + d) % k for c, d, k in zip(x, y, ring.orders)]
        assert ring.add_table[a, b] == ring.index_of(s)


# The six rings of the benchmark's ring_lattice workload.
RING_LATTICE = [
    trunc_poly(5, 4),
    product_ring(matrix_upper(5), zn(5)),
    product_ring(clifford_base(3), clifford_base(2)),
    product_ring(product_ring(matrix_upper(2), trunc_poly(2, 4)), zn(2)),
    product_ring(group_ring_q8(), zn(2)),
    matrix_full(3),
]


# The tables split the digits; these rings have one digit, mixed orders, an
# odd digit count, and a leading digit far larger than the root of the size.
@pytest.mark.parametrize(
    "ring",
    [
        product_ring(zn(4), trunc_poly(2, 2)),
        zn(2),
        zn(4),
        product_ring(zn(4), zn(3)),
        clifford_base(2),
        product_ring(zn(3), zn(1000)),
        *RING_LATTICE,
    ],
    ids=lambda r: r.name,
)
def test_tables_match_coordinate_arithmetic(ring):
    """Every pair on rings of at most 100 elements, 2,000 seeded pairs above."""
    if ring.size <= 100:
        pairs = [(a, b) for a in range(ring.size) for b in range(ring.size)]
    else:
        pairs = np.random.default_rng(0).integers(0, ring.size, size=(2000, 2)).tolist()
    _assert_tables_match(ring, pairs)
    assert all(t.dtype == np.int16 for t in (ring.mul_table, ring.add_table, ring.neg_array))


def _int32_tables(ring):
    """(mul, add, neg) by the int32 build that the int16 one replaced: the oracle of the tables.

    The same digit split, with the full addition table summed broadcast and
    the multiplication table gathered from it in one step.
    """
    A = ring.elements_array
    ords = np.array(ring.orders, dtype=np.int64)
    n = ring.size
    strides = ring._strides.tolist()
    t = min(range(ring.m), key=lambda u: (n // strides[u] + strides[u], strides[u]))
    nL = strides[t]
    nH = n // nL
    cut = t + 1

    def digit_add_table(coords, orders, strides):
        table = np.zeros((len(coords), len(coords)), dtype=np.int32)
        for u, (k, stride) in enumerate(zip(orders, strides.tolist())):
            col = coords[:, u].astype(np.int32)
            table += (np.add.outer(col, col) % k) * np.int32(stride)
        return table

    add_high = digit_add_table(A[::nL, :cut], ring.orders[:cut], ring._strides[:cut])
    add_low = digit_add_table(A[:nL, cut:], ring.orders[cut:], ring._strides[cut:])
    cols = np.arange(n)
    add = (add_high[:, None, cols // nL] + add_low[None, :, cols % nL]).reshape(n, n)
    right = np.einsum("bt,stu->sbu", A, ring.constants) % ords
    right = right.reshape(ring.m, n * ring.m).astype(np.float64)
    pure = np.concatenate([A[::nL], A[:nL]]).astype(np.float64)
    prod = (pure @ right).astype(np.int32).reshape(-1, n, ring.m) % ords.astype(np.int32)
    rows = prod @ ring._strides.astype(np.int32)
    mul = add[rows[:nH, None, :], rows[None, nH:, :]].reshape(n, n)
    neg = ((-A) % ords @ ring._strides).astype(np.int32)
    return mul, add, neg


def _assert_tables_equal_the_int32_build(ring):
    tables = (ring.mul_table, ring.add_table, ring.neg_array)
    assert all(t.dtype == np.int16 for t in tables), ring.name
    assert all(np.array_equal(t, o) for t, o in zip(tables, _int32_tables(ring))), ring.name


def test_tables_equal_the_int32_build(ring_entries, corpus_entries):
    for ring in [entry.ring for entry in ring_entries + corpus_entries] + RING_LATTICE:
        _assert_tables_equal_the_int32_build(ring)


def test_tables_do_not_depend_on_the_block_size(monkeypatch):
    # the ring_lattice rings fit the product rows in one block: one-row
    # blocks make every loop of the build take many steps
    monkeypatch.setattr(rings, "TABLE_BLOCK", 1)
    for ring in RING_LATTICE + [product_ring(zn(3), zn(1000))]:
        ring._mul_table = None
        _assert_tables_equal_the_int32_build(ring)


# Builds the 4096-element F2[Q8] x Z4 x Z4, the largest ring under TABLE_CAP,
# under the same address-space limit as _HUGE_RING_SCRIPT below.
_TABLE_CAP_RING_SCRIPT = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import numpy as np
from skewpbw.corpus import group_ring_q8, product_ring, zn
ring = product_ring(product_ring(group_ring_q8(), zn(4)), zn(4))
assert ring.size == 4096
rng = np.random.default_rng(0)
for a, b in rng.integers(0, ring.size, size=(2000, 2)).tolist():
    x = ring.element_from_index(a).coords
    y = ring.element_from_index(b).coords
    assert ring.mul_table[a, b] == ring.index_of(ring._mul_coords(x, y)), (a, b)
    s = [(c + d) % k for c, d, k in zip(x, y, ring.orders)]
    assert ring.add_table[a, b] == ring.index_of(s), (a, b)
    assert ring.neg_array[a] == ring.index_of([-c % k for c, k in zip(x, ring.orders)]), a
print("ok")
"""


def _run_child(script):
    src = Path(skewpbw.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_tables_of_a_table_cap_ring_under_an_address_space_limit():
    proc = _run_child(_TABLE_CAP_RING_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]


# The table build under tracemalloc, from the finished ring, for the same
# ring (its digits split evenly) and for Z_4096 (one digit, so one side of
# the split holds every element): the tables take 4 n^2 bytes, and the
# temporaries fit in the rest of 5 n^2.
_TABLE_MEMORY_SCRIPT = """
import tracemalloc
from skewpbw.corpus import group_ring_q8, product_ring, zn
for ring in (product_ring(product_ring(group_ring_q8(), zn(4)), zn(4)), zn(4096)):
    tracemalloc.start()
    ring._require_tables()
    print(tracemalloc.get_traced_memory()[1] / ring.size**2)
    tracemalloc.stop()
"""


def test_table_build_peak_memory_at_the_cap():
    proc = _run_child(_TABLE_MEMORY_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    peaks = [float(line) for line in proc.stdout.split()]
    assert len(peaks) == 2 and all(4 <= peak <= 5 for peak in peaks), peaks


# Run in a child process under an address-space limit, so that a path that
# allocates before it checks the size cap fails with MemoryError instead of
# taking the machine's memory.
_HUGE_RING_SCRIPT = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from skewpbw import classify_ring, make_ring, nilpotent_set
from skewpbw.errors import TooLarge
from skewpbw.graded import attach_grading, is_connected
ring = make_ring([2**31], [[[1]]], [1])
calls = [
    ("classify_ring", lambda: classify_ring(ring)),
    ("nilpotent_set", lambda: nilpotent_set(ring)),
    ("elements", ring.elements),
    ("elements_array", lambda: ring.elements_array),
    ("unit_orbit_reps", ring._unit_orbit_reps),
    ("is_connected", lambda: is_connected(attach_grading(ring, [0]))),
]
for name, call in calls:
    try:
        call()
    except TooLarge as exc:
        assert exc.size == 2**31 and exc.cap == 4096, exc
        print(name)
"""


def test_huge_ring_raises_too_large_before_allocating():
    proc = _run_child(_HUGE_RING_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "classify_ring",
        "nilpotent_set",
        "elements",
        "elements_array",
        "unit_orbit_reps",
        "is_connected",
    ]


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def test_arith_examples():
    z4 = zn(4)
    assert (z4.el([2]) * z4.el([2])).is_zero
    prod = product_ring(zn(2), zn(2))
    assert (prod.el([1, 0]) * prod.el([0, 1])).is_zero
    m2 = matrix_full(2)
    f = m2.el([0, 1, 1, 0])  # e12 + e21
    assert f ** 2 == m2.one


def test_pow_repeated_squaring_matches_iteration():
    z4 = zn(4)
    for c in range(4):
        e = z4.el([c])
        acc = z4.one
        for k in range(7):
            assert e ** k == acc
            acc = acc * e


def test_ring_mismatch():
    with pytest.raises(RingMismatch):
        zn(4).el([1]) + zn(6).el([1])


def test_arith_sub_neg():
    z6 = zn(6)
    assert z6.el([2]) - z6.el([5]) == z6.el([3])
    assert -z6.el([2]) == z6.el([4])


def test_classify_propagates_too_large():
    big = trunc_poly(5, 4)  # 625 elements, over the default classification cap
    with pytest.raises(TooLarge, match="classification of size 625 exceeds the configured cap 256"):
        classify_ring(big)
    # the radicals take no cap: they are J(R), certified nilpotent
    J = jacobson_radical(big)
    assert prime_radical(big) == upper_nilradical(big) == levitzki_radical(big) == J


# ---------------------------------------------------------------------------
# nilpotents and radicals
# ---------------------------------------------------------------------------


def test_nilpotent_set_examples():
    assert coords_set(nilpotent_set(zn(4))) == [(0,), (2,)]
    assert coords_set(nilpotent_set(product_ring(zn(2), zn(2)))) == [(0, 0)]


def test_nilpotent_set_m2_matches_matrix_powers():
    r = matrix_full(2)
    got = nilpotent_set(r)

    def is_nilpotent_matrix(el):
        m = np.array([[el.coords[0], el.coords[1]], [el.coords[2], el.coords[3]]], dtype=int)
        p = m.copy()
        for _ in range(16):
            if not p.any():
                return True
            p = (p @ m) % 2
        return not p.any()

    expected = {e for e in r.elements() if is_nilpotent_matrix(e)}
    assert got == frozenset(expected)
    assert len(got) == 4


def test_jacobson_radical_by_independent_enumeration():
    # brute-force J(Z_4) with plain modular arithmetic, no package code
    units = {u for u in range(4) if any((u * v) % 4 == 1 for v in range(4))}
    expected = sorted(
        (r,) for r in range(4) if all(((1 - s * r) % 4) in units for s in range(4))
    )
    assert coords_set(jacobson_radical(zn(4)).carrier) == expected == [(0,), (2,)]


def test_jacobson_radical_u2():
    r = matrix_upper(2)
    assert coords_set(jacobson_radical(r).carrier) == [(0, 0, 0), (0, 1, 0)]


def test_jacobson_semisimple_product():
    r = product_ring(zn(2), zn(2))
    assert coords_set(jacobson_radical(r).carrier) == [(0, 0)]


def test_prime_radical_examples():
    assert coords_set(prime_radical(zn(4)).carrier) == [(0,), (2,)]
    assert coords_set(prime_radical(product_ring(zn(2), zn(2))).carrier) == [(0, 0)]
    assert coords_set(prime_radical(zn(5)).carrier) == [(0,)]


def test_prime_radical_too_large():
    # the cap bounds the classification quantifiers, not the radicals
    m2 = matrix_full(2)
    with pytest.raises(TooLarge, match="classification of size 16 exceeds the configured cap 8"):
        classify_ring(m2, cap=8)
    assert coords_set(prime_radical(m2).carrier) == [(0, 0, 0, 0)]


def test_upper_nilradical_examples():
    assert coords_set(upper_nilradical(zn(4)).carrier) == [(0,), (2,)]
    assert coords_set(upper_nilradical(matrix_full(2)).carrier) == [(0, 0, 0, 0)]
    assert coords_set(upper_nilradical(matrix_upper(2)).carrier) == [(0, 0, 0), (0, 1, 0)]


def test_levitzki_examples():
    assert coords_set(levitzki_radical(zn(4)).carrier) == [(0,), (2,)]
    assert coords_set(levitzki_radical(zn(5)).carrier) == [(0,)]
    u2 = matrix_upper(2)
    assert levitzki_radical(u2) == upper_nilradical(u2)


def test_ideal_power_index_closed_forms():
    # J(Z_5[y]/(y^4)) = (y): y^3 != 0 = y^4
    assert ideal_power_index(jacobson_radical(trunc_poly(5, 4))) == 4
    # J(clifford_base(2)) is spanned by y_1, y_2, and every y_i y_j = 0
    assert ideal_power_index(jacobson_radical(clifford_base(2))) == 2
    # F_2[Q_8]: J is the augmentation ideal, of Loewy length
    # 1 + sum_i i d_i = 1 + (1*2 + 2*1) = 5 by Jennings' theorem
    # (Jennings series Q_8 > Z(Q_8) > 1 with d_1 = 2, d_2 = 1)
    assert ideal_power_index(jacobson_radical(group_ring_q8())) == 5
    ring = matrix_upper(2)
    zero = np.zeros(ring.size, dtype=bool)
    zero[0] = True
    assert ideal_power_index(Ideal.from_mask(ring, zero)) == 1
    # R^2 = R != 0: no power of the whole ring vanishes
    assert ideal_power_index(Ideal.from_mask(ring, np.ones(ring.size, dtype=bool))) is None


def test_ideal_generated_by():
    z4 = zn(4)
    assert coords_set(ideal_generated_by(z4, [z4.el([2])]).carrier) == [(0,), (2,)]
    m2 = matrix_full(2)
    assert len(ideal_generated_by(m2, [m2.el([0, 1, 0, 0])]).carrier) == 16
    assert coords_set(ideal_generated_by(z4, []).carrier) == [(0,)]


def test_ideal_verification_rejects_non_ideal():
    z4 = zn(4)
    with pytest.raises(NotAnIdeal):
        Ideal(z4, [z4.el([0]), z4.el([1])])


def _oracle_ideal_defect(ring, mask):
    """The ideal checks with absorption tested by every element on each side."""
    if not mask[0]:
        return "0 is missing from the carrier"
    idx = np.nonzero(mask)[0]
    if not mask[ring.add_table[np.ix_(idx, idx)]].all():
        return "carrier is not closed under addition"
    if not mask[ring.neg_array[idx]].all():
        return "carrier is not closed under negation"
    if not mask[ring.mul_table[:, idx]].all() or not mask[ring.mul_table[idx, :]].all():
        return "carrier does not absorb ring multiplication"
    return None


def test_ideal_defect_matches_absorption_by_every_element():
    # every subset of U2(Z2), then the additive groups spanned by one or two
    # elements of larger rings: one-sided ideals among them fail only absorption
    u2 = matrix_upper(2)
    for bits in range(1 << u2.size):
        mask = np.array([(bits >> i) & 1 for i in range(u2.size)], dtype=bool)
        assert rings._ideal_defect(u2, mask) == _oracle_ideal_defect(u2, mask), bits
    for ring in (matrix_upper(3), product_ring(zn(4), trunc_poly(2, 2)), product_ring(zn(2), matrix_upper(2))):
        defects = set()
        for a in range(ring.size):
            for b in range(a, ring.size):
                seed = np.zeros(ring.size, dtype=bool)
                seed[[a, b]] = True
                mask = rings._additive_closure(ring, seed)
                defect = rings._ideal_defect(ring, mask)
                assert defect == _oracle_ideal_defect(ring, mask), (ring.name, a, b)
                defects.add(defect)
        assert defects == {None, "carrier does not absorb ring multiplication"}, ring.name
    # {0, e11} is a left ideal of U2(Z2) and {0, e22} a right ideal; neither is two-sided
    for coords in ([1, 0, 0], [0, 0, 1]):
        with pytest.raises(NotAnIdeal, match="absorb"):
            Ideal(u2, [u2.zero, u2.el(coords)])


def test_ideal_carrier_is_built_on_first_use(monkeypatch):
    z4 = zn(4)
    calls = []
    real = type(z4).set_of

    def counting(self, mask):
        calls.append(mask)
        return real(self, mask)

    monkeypatch.setattr(type(z4), "set_of", counting)
    ideal = Ideal(z4, [z4.el([0]), z4.el([2])])
    trusted = Ideal.from_mask(z4, ideal.mask.copy(), verify=True)
    assert calls == []
    assert coords_set(trusted.carrier) == [(0,), (2,)]
    assert trusted.carrier is trusted.carrier and len(calls) == 1


def test_ideal_from_mask_verifies_the_mask():
    z4 = zn(4)
    with pytest.raises(NotAnIdeal, match="addition"):
        Ideal.from_mask(z4, np.array([True, True, False, False]), verify=True)
    # unverified masks are trusted as given
    assert len(Ideal.from_mask(z4, np.array([True, True, False, False]))) == 2


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_m2_not_ni():
    r = matrix_full(2)
    profile = classify_ring(r)
    assert not profile.NI
    e12, e21 = r.el([0, 1, 0, 0]), r.el([0, 0, 1, 0])
    assert (e12 ** 2).is_zero and (e21 ** 2).is_zero
    assert (e12 + e21) ** 2 == r.one  # the sum of nilpotents is a unit


def test_classify_u2():
    profile = classify_ring(matrix_upper(2))
    assert profile.NI and profile.NJ
    assert coords_set(profile.nilpotents) == [(0, 0, 0), (0, 1, 0)]
    assert profile.nilpotents == profile.jacobson_radical.carrier


def test_classify_z4():
    profile = classify_ring(zn(4))
    assert profile.NI and profile.NJ and profile.two_primal
    assert not profile.reduced
    assert coords_set(profile.nilpotents) == [(0,), (2,)]


def test_classify_field():
    profile = classify_ring(field4())
    assert profile.reduced and profile.domain and profile.NI and profile.NJ


def test_trunc_poly_profile():
    profile = classify_ring(trunc_poly(2, 3))
    assert profile.NI and not profile.reduced
    assert len(profile.nilpotents) == 4  # multiples of y


def test_group_ring_q8_separates_reversible_from_symmetric():
    """F_2[Q_8] is reversible but not symmetric (the classical separation)."""
    from skewpbw.corpus import group_ring_q8

    ring = group_ring_q8()
    profile = classify_ring(ring)
    assert profile.reversible and not profile.symmetric
    assert profile.NI and profile.NJ and profile.two_primal
    # local ring: the 128-element augmentation ideal is both N(R) and J(R)
    assert len(profile.nilpotents) == 128
    assert profile.nilpotents == profile.jacobson_radical.carrier


def test_symmetric_ring_that_is_not_commutative():
    """F4[x; Frobenius]/(x^2) on 1, w, x, wx, with w^2 = w + 1 and x w = w^2 x.

    Local with J = F4 x and J^2 = 0; symmetric, though x w != w x.  Every
    other symmetric ring in these tests is commutative, where comparing the
    rows ab and ba of the zero pattern is trivial.
    """
    constants = [
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],  # 1 *
        [[0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 1]],  # w *
        [[0, 0, 1, 0], [0, 0, 1, 1], [0, 0, 0, 0], [0, 0, 0, 0]],  # x *
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]],  # wx *
    ]
    ring = make_ring([2, 2, 2, 2], constants, [1, 0, 0, 0], name="F4[x;F]/(x^2)")
    w, x = ring.generator(1), ring.generator(2)
    assert x * w != w * x and (x * x).is_zero
    assert classify_ring(ring).symmetric and _oracle_symmetric(ring)
    _assert_orbit_shortcuts_exact(ring)


# ---------------------------------------------------------------------------
# module invariants over the ring corpus
# ---------------------------------------------------------------------------


def _mask(ring, ideal_or_set):
    carrier = ideal_or_set.carrier if isinstance(ideal_or_set, Ideal) else ideal_or_set
    return ring.mask_of(carrier)


def test_radical_chain_on_corpus(ring_entries):
    for entry in ring_entries:
        ring = entry.ring
        n_lower = _mask(ring, prime_radical(ring))
        lev = _mask(ring, levitzki_radical(ring))
        n_upper = _mask(ring, upper_nilradical(ring))
        nil = _mask(ring, nilpotent_set(ring))
        jac = _mask(ring, jacobson_radical(ring))
        assert not (n_lower & ~lev).any(), entry.name
        assert not (lev & ~n_upper).any(), entry.name
        assert not (n_upper & ~nil).any(), entry.name
        assert not (n_upper & ~jac).any(), entry.name


def test_finite_ring_radical_collapse(ring_entries):
    # the certified collapse; _assert_orbit_shortcuts_exact compares J(R)
    # with the prime ideals and nil ideals of the oracle lattice
    for entry in ring_entries:
        ring = entry.ring
        sets = {
            "prime": prime_radical(ring).carrier,
            "levitzki": levitzki_radical(ring).carrier,
            "upper": upper_nilradical(ring).carrier,
            "jacobson": jacobson_radical(ring).carrier,
        }
        assert len(set(map(frozenset, sets.values()))) == 1, (entry.name, sets)


def test_predicate_implication_chain(ring_entries):
    implications = [
        ("reduced", "symmetric"),
        ("symmetric", "reversible"),
        ("reversible", "semicommutative"),
        ("semicommutative", "two_primal"),
        ("two_primal", "weakly_two_primal"),
        ("weakly_two_primal", "NI"),
        ("NJ", "NI"),
        ("NI", "NJ"),  # finite rings: N* = J collapses the two notions
    ]
    for entry in ring_entries:
        flags = classify_ring(entry.ring, cap=max(256, entry.ring.size)).flags()
        for weak, strong in implications:
            if flags[weak]:
                assert flags[strong], (entry.name, weak, strong)


def test_nilpotents_form_ideal_iff_ni(ring_entries):
    for entry in ring_entries:
        ring = entry.ring
        profile = classify_ring(ring, cap=max(256, ring.size))
        try:
            Ideal(ring, profile.nilpotents)
            is_ideal = True
        except NotAnIdeal:
            is_ideal = False
        assert is_ideal == profile.NI, entry.name


def test_ni_implies_dedekind_finite(ring_entries):
    for entry in ring_entries:
        profile = classify_ring(entry.ring, cap=max(256, entry.ring.size))
        if profile.NI:
            assert profile.dedekind_finite, entry.name


def test_duo_rings_are_semicommutative(ring_entries):
    for entry in ring_entries:
        profile = classify_ring(entry.ring, cap=max(256, entry.ring.size))
        if profile.right_duo or profile.left_duo:
            assert profile.semicommutative, entry.name


# ---------------------------------------------------------------------------
# unit-orbit shortcuts against loops over every element
# ---------------------------------------------------------------------------


def _oracle_ideal_masks(ring):
    """The principal ideal of every element, then sums by additive closure."""
    principals = {}
    for a in range(ring.size):
        seed = np.zeros(ring.size, dtype=bool)
        seed[[0, a]] = True
        closed = rings._ideal_closure(ring, seed)
        principals[closed.tobytes()] = closed
    seen = dict(principals)
    zero = np.zeros(ring.size, dtype=bool)
    zero[0] = True
    seen.setdefault(zero.tobytes(), zero)
    queue = list(seen.values())
    while queue:
        mask = queue.pop()
        for p in principals.values():
            merged = rings._additive_closure(ring, mask | p)
            if merged.tobytes() not in seen:
                seen[merged.tobytes()] = merged
                queue.append(merged)
    return seen


def _oracle_is_prime(ring, mask):
    if mask.all():
        return False
    mul = ring.mul_table
    outside = np.nonzero(~mask)[0]
    for a in outside:
        arb = mul[mul[a, :], :][:, outside]
        if not (~mask[arb]).any(axis=0).all():
            return False
    return True


def _oracle_duo(ring, right):
    mul = ring.mul_table
    seeds = set()  # elements with the same seed span the same one-sided ideal
    for a in range(ring.size):
        seed = np.zeros(ring.size, dtype=bool)
        seed[a] = True
        seed[mul[a, :] if right else mul[:, a]] = True
        if seed.tobytes() in seeds:
            continue
        seeds.add(seed.tobytes())
        one_sided = rings._additive_closure(ring, seed)
        idx = np.nonzero(one_sided)[0]
        if not one_sided[mul[:, idx] if right else mul[idx, :]].all():
            return False
    return True


def _oracle_symmetric(ring):
    mul = ring.mul_table
    for r in range(ring.size):
        rst = mul[mul[r, :], :]
        rts = mul[mul[r, :], :].T
        if ((rst == 0) & (rts != 0)).any():
            return False
    return True


def _oracle_semicommutative(ring):
    mul = ring.mul_table
    for a, b in np.argwhere(mul == 0):
        if mul[mul[a, :], b].any():
            return False
    return True


def _assert_orbit_shortcuts_exact(ring):
    mul = ring.mul_table
    units = np.nonzero(ring.units_mask)[0]
    covered = np.zeros(ring.size, dtype=int)
    for a in ring._unit_orbit_reps():
        orbit = np.unique(mul[np.ix_(mul[units, a], units)])
        assert orbit[0] == a, (ring.name, a)  # least index of its orbit
        covered[orbit] += 1
    assert (covered == 1).all(), ring.name  # the orbits partition R
    # J(R) is the prime radical and the upper nilradical of the oracle lattice
    oracle = _oracle_ideal_masks(ring)
    J = jacobson_radical(ring).mask
    primes = np.ones(ring.size, dtype=bool)
    nil_ideals = np.zeros(ring.size, dtype=bool)
    for mask in oracle.values():
        if _oracle_is_prime(ring, mask):
            primes &= mask
        if not (mask & ~ring.nilpotent_mask).any():
            nil_ideals |= mask
    assert (primes == J).all(), ring.name
    assert (rings._additive_closure(ring, nil_ideals) == J).all(), ring.name
    _assert_predicates_match_oracles(ring)


def _oracle_jacobson(ring):
    """J(R) by the invertibility search over every element: 1 - s r a unit for every s."""
    one_minus = ring.add_table[ring.one_index, ring.neg_array]
    return ring.units_mask[one_minus[ring.mul_table]].all(axis=0)


def _oracle_units(ring):
    """Units as two-sided inverses: ab = 1 and ba = 1 for some b."""
    E = ring.mul_table == ring.one_index
    return (E & E.T).any(axis=1)


def _oracle_dedekind_finite(ring):
    """ab = 1 implies ba = 1, over every pair."""
    mul, one = ring.mul_table, ring.one_index
    return bool((mul.T[mul == one] == one).all())


def _assert_predicates_match_oracles(ring):
    assert np.array_equal(ring.units_mask, _oracle_units(ring)), ring.name
    assert classify_ring(ring, cap=ring.size).dedekind_finite == _oracle_dedekind_finite(ring), ring.name
    assert rings._duo(ring, right=True) == _oracle_duo(ring, right=True), ring.name
    assert rings._duo(ring, right=False) == _oracle_duo(ring, right=False), ring.name
    assert rings._symmetric(ring, ring.mul_table == 0) == _oracle_symmetric(ring), ring.name
    assert rings._semicommutative(ring) == _oracle_semicommutative(ring), ring.name
    assert np.array_equal(jacobson_radical(ring).mask, _oracle_jacobson(ring)), ring.name


def test_orbit_shortcuts_on_corpus_rings(ring_entries, corpus_entries):
    for entry in ring_entries + corpus_entries:
        _assert_orbit_shortcuts_exact(entry.ring)


def _oracle_orbit_reps(ring):
    """The least index of each two-sided unit orbit: walk R upward, marking each orbit met."""
    mul = ring.mul_table
    U = np.nonzero(ring.units_mask)[0]
    seen = np.zeros(ring.size, dtype=bool)
    reps = []
    for a in range(ring.size):
        if seen[a]:
            continue
        reps.append(a)
        seen[mul[np.ix_(mul[U, a], U)]] = True
    return np.array(reps, dtype=np.intp)


def _assert_nil_mask_and_orbit_reps_exact(ring):
    # r is nilpotent iff r^|R| = 0; RingElement powers use the coordinates,
    # not the tables
    powers = [(ring.element_from_index(a) ** ring.size).is_zero for a in range(ring.size)]
    nil = ring.nilpotent_mask
    assert nil.dtype == bool and np.array_equal(nil, powers), ring.name
    reps = ring._unit_orbit_reps()
    oracle = _oracle_orbit_reps(ring)
    assert reps.dtype == oracle.dtype and np.array_equal(reps, oracle), ring.name


def test_nil_mask_and_orbit_reps_on_corpus_rings(ring_entries, corpus_entries):
    for entry in ring_entries + corpus_entries:
        _assert_nil_mask_and_orbit_reps_exact(entry.ring)


@pytest.mark.parametrize("ring", RING_LATTICE, ids=lambda r: r.name)
def test_nil_mask_and_orbit_reps_on_ring_lattice_rings(ring):
    _assert_nil_mask_and_orbit_reps_exact(ring)


PRODUCT_RINGS = pytest.mark.parametrize(
    "build",
    [
        group_ring_q8,
        lambda: product_ring(trunc_poly(3, 3), matrix_upper(2)),
        lambda: product_ring(clifford_base(2), clifford_base(2)),
        lambda: product_ring(product_ring(zn(2), zn(2)), zn(2)),  # only unit is 1
        lambda: product_ring(matrix_full(2), zn(3)),
    ],
    ids=["F2[Q8]", "Z3[y]/(y^3)xU2(Z2)", "CliffBase2^2", "F2^3", "M2(Z2)xZ3"],
)


@PRODUCT_RINGS
def test_tables_equal_the_int32_build_on_product_rings(build):
    _assert_tables_equal_the_int32_build(build())


@PRODUCT_RINGS
def test_orbit_shortcuts_on_product_rings(build):
    _assert_orbit_shortcuts_exact(build())


@pytest.mark.parametrize("ring", RING_LATTICE, ids=lambda r: r.name)
def test_predicates_match_oracles_on_ring_lattice_rings(ring):
    _assert_predicates_match_oracles(ring)


FLAG_NAMES = {
    "NI", "NJ", "two_primal", "weakly_two_primal", "reduced", "domain", "symmetric",
    "reversible", "semicommutative", "right_duo", "left_duo", "abelian",
    "dedekind_finite", "locally_finite",
}

# |J(R)| and the flags that hold, for each ring of RING_LATTICE
RING_LATTICE_PROFILES = {
    "Z5[y]/(y^4)": (125, {
        "NI", "NJ", "two_primal", "weakly_two_primal", "symmetric", "reversible", "semicommutative",
        "right_duo", "left_duo", "abelian", "dedekind_finite", "locally_finite",
    }),
    "U2(Z5)xZ5": (5, {"NI", "NJ", "two_primal", "weakly_two_primal", "dedekind_finite", "locally_finite"}),
    "CliffBase3(Z2)xCliffBase2(Z2)": (32, {
        "NI", "NJ", "two_primal", "weakly_two_primal", "symmetric", "reversible", "semicommutative",
        "right_duo", "left_duo", "abelian", "dedekind_finite", "locally_finite",
    }),
    "U2(Z2)xZ2[y]/(y^4)xZ2": (16, {"NI", "NJ", "two_primal", "weakly_two_primal", "dedekind_finite", "locally_finite"}),
    "F2[Q8]xZ2": (128, {
        "NI", "NJ", "two_primal", "weakly_two_primal", "reversible", "semicommutative",
        "right_duo", "left_duo", "abelian", "dedekind_finite", "locally_finite",
    }),
    "M2(Z3)": (1, {"dedekind_finite", "locally_finite"}),
}


@pytest.mark.parametrize("ring", RING_LATTICE, ids=lambda r: r.name)
def test_ring_lattice_profiles_are_pinned(ring):
    size, holding = RING_LATTICE_PROFILES[ring.name]
    profile = classify_ring(ring, cap=ring.size)
    flags = profile.flags()
    assert set(flags) == FLAG_NAMES
    assert {name for name, value in flags.items() if value} == holding
    assert len(profile.jacobson_radical) == size


def _generator_tests(ring, gens):
    """(semicommutative, right duo, left duo), each absorbing only `gens`, over the orbit representatives."""
    mul = ring.mul_table
    reps = ring._unit_orbit_reps()
    semi = all(not mul[a, mul[np.ix_(gens, np.flatnonzero(mul[a] == 0))]].any() for a in reps)
    right = all(set(mul[a]).issuperset(mul[gens, a]) for a in reps)
    left = all(set(mul[:, a]).issuperset(mul[a, gens]) for a in reps)
    return semi, right, left


def test_one_generator_does_not_decide_the_quantifiers():
    # U2(Z2) on e11, e12, e22 is neither semicommutative nor duo on either
    # side, yet each test passes when it absorbs only e11, or only e22
    ring = matrix_upper(2)
    gens = ring._strides
    flags = (rings._semicommutative(ring), rings._duo(ring, right=True), rings._duo(ring, right=False))
    oracles = (_oracle_semicommutative(ring), _oracle_duo(ring, right=True), _oracle_duo(ring, right=False))
    assert flags == oracles == _generator_tests(ring, gens) == (False, False, False)
    assert _generator_tests(ring, gens[:1]) == _generator_tests(ring, gens[-1:]) == (True, True, True)


# ---------------------------------------------------------------------------
# the nilpotence certificate behind the radicals
# ---------------------------------------------------------------------------


def _assert_jacobson_index_kills_powers(ring):
    J = jacobson_radical(ring)
    t = ideal_power_index(J)
    assert t is not None, ring.name
    for j in J.sorted_elements():
        assert (j**t).is_zero, (ring.name, j, t)


def test_jacobson_index_against_power_iteration(ring_entries, corpus_entries):
    for entry in ring_entries + corpus_entries:
        _assert_jacobson_index_kills_powers(entry.ring)


@PRODUCT_RINGS
def test_jacobson_index_against_power_iteration_on_product_rings(build):
    _assert_jacobson_index_kills_powers(build())


def test_radicals_check_the_nilpotence_certificate(monkeypatch):
    calls = []
    index = rings.ideal_power_index

    def counting(ideal):
        calls.append(ideal.ring)
        return index(ideal)

    monkeypatch.setattr(rings, "ideal_power_index", counting)
    ring = matrix_upper(2)
    J = jacobson_radical(ring)
    assert prime_radical(ring) == upper_nilradical(ring) == levitzki_radical(ring) == J
    classify_ring(ring)
    assert calls == [ring]  # once per ring, then memoized
    # a J(R) whose powers never reach zero is refused, not assumed nilpotent
    monkeypatch.setattr(rings, "ideal_power_index", lambda ideal: None)
    for radical in (prime_radical, upper_nilradical, levitzki_radical, classify_ring):
        with pytest.raises(NotAnIdeal, match="nilpotence verification"):
            radical(matrix_upper(2))


# ---------------------------------------------------------------------------
# lifetime
# ---------------------------------------------------------------------------


def test_rings_are_freed_by_reference_counting(tmp_path, monkeypatch):
    # no cache of a ring points back at it, so dropping the last reference
    # frees it without the cycle collector.  That includes the module store
    # that the check builds on the presentation (swap_extension's NI scan
    # asks it), which holds arrays only.
    from skewpbw import modules

    path = tmp_path / "swap.json"
    path.write_text(defio.definition_to_text(defio.entry_to_definition(corpus.swap_extension())))
    parsed = []
    stores = []
    build = defio._build
    init = modules.FiniteModules.__init__

    def recording(doc):
        result = build(doc)
        parsed.append((weakref.ref(result.ring), weakref.ref(result.presentation)))
        return result

    def recording_store(self, A):
        init(self, A)
        stores.append(weakref.ref(self))

    monkeypatch.setattr(defio, "_build", recording)
    monkeypatch.setattr(modules.FiniteModules, "__init__", recording_store)
    gc.collect()
    gc.disable()
    try:
        ring = zn(4)
        bare = weakref.ref(ring)
        del ring
        ring = zn(4)
        classify_ring(ring)
        jacobson_radical(ring)
        classified = weakref.ref(ring)
        del ring
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["check", str(path), "--json"]) == 0
        assert bare() is None
        assert classified() is None
        assert len(parsed) == 1 and parsed[0][0]() is None and parsed[0][1]() is None
        assert len(stores) == 1 and stores[0]() is None
    finally:
        gc.enable()
