"""Endomorphisms, sigma-derivations, closures, compatibility predicates."""

import functools
import itertools
import random

import numpy as np
import pytest

from skewpbw import (
    Ideal,
    SigmaSystem,
    classify_ring,
    identity_map,
    invariance,
    is_delta_compatible,
    is_sigma_compatible,
    is_sigma_rigid,
    is_sigma_rigid_subset,
    is_weak_delta_compatible,
    is_weak_sigma_compatible,
    make_endomorphism,
    make_sigma_derivation,
    nilpotent_set,
    zero_derivation,
)
from skewpbw.corpus import field4, matrix_upper, product_ring, trunc_poly, zn
from skewpbw.errors import (
    DeltaOneNonzero,
    DoesNotFixOne,
    LeibnizFails,
    NotAdditiveWellDefined,
    NotMultiplicative,
    SkewPBWError,
)
from skewpbw.maps import (
    DELTA_INVARIANT,
    DELTA_WORD_CAP,
    SIGMA_IDEAL,
    SIGMA_INVARIANT,
    CompatResult,
    _compatible,
    _delta_compatible,
    _word_name,
    _zero_mask,
    multi_indices,
)


@pytest.fixture(scope="module")
def z2z2():
    return product_ring(zn(2), zn(2))


@pytest.fixture(scope="module")
def dual_numbers():
    return trunc_poly(2, 2)  # Z_2[y]/(y^2)


def ddy(ring, sigma):
    m = ring.m
    mat = [[0] * m for _ in range(m)]
    for k in range(1, m):
        mat[k - 1][k] = k
    return make_sigma_derivation(ring, sigma, mat, name="d/dy")


def yddy(ring, sigma):
    m = ring.m
    mat = [[0] * m for _ in range(m)]
    for k in range(1, m):
        mat[k][k] = k
    return make_sigma_derivation(ring, sigma, mat, name="y*d/dy")


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_identity_is_only_endomorphism_of_z4():
    z4 = zn(4)
    verified = []
    for k in range(4):
        try:
            make_endomorphism(z4, [[k]])
            verified.append(k)
        except (NotMultiplicative, DoesNotFixOne):
            pass
    assert verified == [1]


def test_swap_is_automorphism(z2z2):
    swap = make_endomorphism(z2z2, [[0, 1], [1, 0]])
    assert swap.injective
    assert swap(z2z2.el([1, 0])) == z2z2.el([0, 1])


def test_frobenius_on_f4_full_multiplicativity():
    f4 = field4()
    frob = make_endomorphism(f4, [[1, 1], [0, 1]])  # a -> a^2
    for a in f4.elements():
        assert frob(a) == a * a
        for b in f4.elements():
            assert frob(a * b) == frob(a) * frob(b)
    assert frob.injective


def test_non_injective_endomorphism_is_flagged(z2z2):
    # (a, b) -> (a, a): multiplicative, fixes 1, image has 2 elements
    f = make_endomorphism(z2z2, [[1, 0], [1, 0]])
    assert f.injective is False


def test_endomorphism_rejections(z2z2):
    with pytest.raises(NotMultiplicative):
        make_endomorphism(z2z2, [[1, 1], [0, 1]])
    with pytest.raises(NotAdditiveWellDefined):
        ring = product_ring(zn(2), zn(4))
        make_endomorphism(ring, [[1, 0], [1, 1]])  # sends order-2 gen to order-4 image


def test_zero_derivation_valid(dual_numbers):
    ident = identity_map(dual_numbers)
    d = zero_derivation(dual_numbers, ident)
    assert d.is_zero and d.verified


def test_ddy_and_yddy_are_derivations(dual_numbers):
    ident = identity_map(dual_numbers)
    d = ddy(dual_numbers, ident)
    y, one = dual_numbers.el([0, 1]), dual_numbers.one
    assert d(y) == one and d(one).is_zero
    e = yddy(dual_numbers, ident)
    assert e(y) == y and e(one).is_zero


def test_leibniz_failure_detected():
    # d/dy on Z_3[y]/(y^2): delta(y*y) = 0 but sigma(y)delta(y)+delta(y)y = 2y
    ring = trunc_poly(3, 2)
    with pytest.raises(LeibnizFails):
        ddy(ring, identity_map(ring))


def test_delta_one_nonzero_rejected(dual_numbers):
    ident = identity_map(dual_numbers)
    with pytest.raises(DeltaOneNonzero):
        make_sigma_derivation(dual_numbers, ident, [[1, 0], [0, 0]])


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------


def test_sigma_closure_identity(dual_numbers):
    system = SigmaSystem([identity_map(dual_numbers)])
    assert len(system.sigma_closure()) == 1


def test_sigma_closure_swap(z2z2):
    swap = make_endomorphism(z2z2, [[0, 1], [1, 0]])
    system = SigmaSystem([swap])
    assert len(system.sigma_closure()) == 2  # id and swap


def test_sigma_closure_frobenius():
    f4 = field4()
    frob = make_endomorphism(f4, [[1, 1], [0, 1]])
    system = SigmaSystem([frob])
    assert len(system.sigma_closure()) == 2  # Frobenius squares to the identity


def test_sigma_closure_idempotent(z2z2):
    swap = make_endomorphism(z2z2, [[0, 1], [1, 0]])
    system = SigmaSystem([swap])
    closure = system.sigma_closure()
    arrays = {arr.tobytes() for _, arr in closure}
    for _, a in closure:
        for _, b in closure:
            assert a[b].tobytes() in arrays  # composing closure members adds nothing


# ---------------------------------------------------------------------------
# compatibility
# ---------------------------------------------------------------------------


def test_sigma_compatible_identity_system():
    z4 = zn(4)
    system = SigmaSystem([identity_map(z4)])
    assert is_sigma_compatible(z4, system).holds


def test_sigma_compatible_swap_fails_with_witness(z2z2):
    swap = make_endomorphism(z2z2, [[0, 1], [1, 0]])
    system = SigmaSystem([swap])
    res = is_sigma_compatible(z2z2, system)
    assert not res.holds
    a, b, word = res.witness
    # the witness really separates a*b = 0 from a*tau(b) = 0
    assert (a * b).is_zero != (a * swap(b)).is_zero


def test_sigma_compatible_frobenius_field():
    f4 = field4()
    frob = make_endomorphism(f4, [[1, 1], [0, 1]])
    assert is_sigma_compatible(f4, SigmaSystem([frob])).holds


def test_delta_compatible_examples(dual_numbers):
    ident = identity_map(dual_numbers)
    zero_sys = SigmaSystem([ident])
    res = is_delta_compatible(dual_numbers, zero_sys)
    assert res.holds and res.bounded is None  # no nontrivial deltas: exact

    weyl_sys = SigmaSystem([ident], [ddy(dual_numbers, ident)])
    res = is_delta_compatible(dual_numbers, weyl_sys)
    assert not res.holds
    a, b, _ = res.witness
    assert (a * b).is_zero

    euler_sys = SigmaSystem([ident], [yddy(dual_numbers, ident)])
    res = is_delta_compatible(dual_numbers, euler_sys)
    assert res.holds and res.bounded == 4  # decided on the generators; the word cap is still reported


def test_weak_compat_examples(z2z2, dual_numbers):
    swap = make_endomorphism(z2z2, [[0, 1], [1, 0]])
    assert not is_weak_sigma_compatible(z2z2, SigmaSystem([swap])).holds

    ident = identity_map(dual_numbers)
    weyl_sys = SigmaSystem([ident], [ddy(dual_numbers, ident)])
    res = is_weak_delta_compatible(dual_numbers, weyl_sys)
    assert not res.holds
    a, b, _ = res.witness
    nil = nilpotent_set(dual_numbers)
    assert a * b in nil

    euler_sys = SigmaSystem([ident], [yddy(dual_numbers, ident)])
    assert is_weak_delta_compatible(dual_numbers, euler_sys).holds
    assert is_weak_sigma_compatible(dual_numbers, euler_sys).holds


def test_strict_implies_weak_on_corpus(corpus_entries):
    for entry in corpus_entries:
        if is_sigma_compatible(entry.ring, entry.system).holds:
            assert is_weak_sigma_compatible(entry.ring, entry.system).holds, entry.name


# ---------------------------------------------------------------------------
# rigidity and invariance
# ---------------------------------------------------------------------------


def test_rigid_examples(z2z2):
    z4 = zn(4)
    res = is_sigma_rigid(z4, SigmaSystem([identity_map(z4)]))
    assert not res.holds  # 2*2 = 0 with 2 != 0

    swap = make_endomorphism(z2z2, [[0, 1], [1, 0]])
    assert not is_sigma_rigid(z2z2, SigmaSystem([swap])).holds

    assert is_sigma_rigid_subset(z4, SigmaSystem([identity_map(z4)]), z4.nilpotent_mask).holds


def test_compatible_implies_nilpotents_rigid(corpus_entries):
    for entry in corpus_entries:
        sc = is_sigma_compatible(entry.ring, entry.system)
        dc = is_delta_compatible(entry.ring, entry.system)
        if sc.holds and dc.holds:
            assert is_sigma_rigid_subset(entry.ring, entry.system, entry.ring.nilpotent_mask).holds, entry.name


def test_reduced_rigid_iff_compatible(corpus_entries):
    # corpus-level cross-check, not a theorem claim
    for entry in corpus_entries:
        if not classify_ring(entry.ring).reduced:
            continue
        rigid = is_sigma_rigid(entry.ring, entry.system).holds
        compat = is_sigma_compatible(entry.ring, entry.system).holds
        assert rigid == compat, entry.name


def test_invariance_examples(dual_numbers):
    z4 = zn(4)
    ideal = Ideal(z4, nilpotent_set(z4))
    system = SigmaSystem([identity_map(z4)])
    assert invariance(ideal, system, SIGMA_IDEAL).holds
    assert invariance(ideal, system, SIGMA_INVARIANT).holds

    ident = identity_map(dual_numbers)
    nil_ideal = Ideal(dual_numbers, nilpotent_set(dual_numbers))
    weyl_sys = SigmaSystem([ident], [ddy(dual_numbers, ident)])
    res = invariance(nil_ideal, weyl_sys, DELTA_INVARIANT)
    assert not res.holds
    euler_sys = SigmaSystem([ident], [yddy(dual_numbers, ident)])
    assert invariance(nil_ideal, euler_sys, DELTA_INVARIANT).holds


def test_injectivity_equivalences(corpus_entries):
    import numpy as np

    for entry in corpus_entries:
        for s in entry.system.sigmas:
            image_count = len(np.unique(s.index_array))
            assert s.injective == (image_count == entry.ring.size), entry.name


# ---------------------------------------------------------------------------
# definitional oracle
# ---------------------------------------------------------------------------


def _oracle_systems(corpus_entries):
    """(name, ring, system): the standard corpus and the fixtures of this file."""
    out = [(e.name, e.ring, e.system) for e in corpus_entries]
    z4, z2z2, f4, dual = zn(4), product_ring(zn(2), zn(2)), field4(), trunc_poly(2, 2)
    ident = identity_map(dual)
    out += [
        ("Z4 identity", z4, SigmaSystem([identity_map(z4)])),
        ("Z2xZ2 swap", z2z2, SigmaSystem([make_endomorphism(z2z2, [[0, 1], [1, 0]])])),
        ("Z2xZ2 diagonal", z2z2, SigmaSystem([make_endomorphism(z2z2, [[1, 0], [1, 0]])])),
        ("F4 Frobenius", f4, SigmaSystem([make_endomorphism(f4, [[1, 1], [0, 1]])])),
        ("dual numbers, zero delta", dual, SigmaSystem([ident])),
        ("dual numbers, d/dy", dual, SigmaSystem([ident], [ddy(dual, ident)])),
        ("dual numbers, y d/dy", dual, SigmaSystem([ident], [yddy(dual, ident)])),
    ]
    return out


def _composite(maps, word, el):
    """maps[w_1] o ... o maps[w_k] at el, for a 1-based word; the rightmost map applies first."""
    for i in reversed(word):
        el = maps[i - 1](el)
    return el


def _oracle_predicates(ring, system, word_cap=4):
    """The six predicates as loops over their definitions: name -> (holds, witness, bounded).

    A witness is (a, b, word) with elements as indices, b None for rigidity;
    it is the first failure over the words (closure order, or graded
    lexicographic betas), then a, then b.
    """
    els = ring.elements()
    mul = ring.mul_table.tolist()
    zero = {0}
    nil = set()
    for r in range(ring.size):
        x = r
        for _ in range(ring.size):
            if x == 0:
                nil.add(r)
                break
            x = mul[x][r]
    n = system.n
    sigma_words = []
    for word, _ in system.sigma_closure():
        name = "*".join(f"sigma{i}" for i in word) or "id"
        sigma_words.append((name, [_composite(system.sigmas, word, e).index for e in els]))
    betas = sorted(
        (b for b in itertools.product(range(word_cap + 1), repeat=n) if 1 <= sum(b) <= word_cap),
        key=lambda b: (sum(b), b),
    )
    delta_words = []
    for beta in betas:
        word = tuple(i + 1 for i in range(n) for _ in range(beta[i]))
        delta_words.append((f"delta^{beta}", [_composite(system.deltas, word, e).index for e in els]))
    nontrivial = any(not e.is_zero for d in system.deltas for e in map(d, els))
    bounded = word_cap if nontrivial else None

    def compatible(Z):
        for name, img in sigma_words:
            for a in range(ring.size):
                for b in range(ring.size):
                    if (mul[a][img[b]] in Z) != (mul[a][b] in Z):
                        return False, (a, b, name), None
        return True, None, None

    def delta_compatible(Z):
        for name, img in delta_words:
            for a in range(ring.size):
                for b in range(ring.size):
                    if mul[a][b] in Z and mul[a][img[b]] not in Z:
                        return False, (a, b, name), bounded
        return True, None, bounded

    def rigid(S):
        for name, img in sigma_words:
            for r in range(ring.size):
                if mul[r][img[r]] in S and r not in S:
                    return False, (r, None, name), None
        return True, None, None

    return {
        "is_sigma_compatible": compatible(zero),
        "is_weak_sigma_compatible": compatible(nil),
        "is_delta_compatible": delta_compatible(zero),
        "is_weak_delta_compatible": delta_compatible(nil),
        "is_sigma_rigid": rigid(zero),
        "is_sigma_rigid_subset": rigid(nil),
    }


def _observed(res):
    w = res.witness
    if w is not None:
        w = (w[0].index, None if w[1] is None else w[1].index, w[2])
    return res.holds, w, res.bounded


def test_predicates_match_definitional_oracle(corpus_entries):
    failing = set()
    for name, ring, system in _oracle_systems(corpus_entries):
        expected = _oracle_predicates(ring, system)
        observed = {
            "is_sigma_compatible": is_sigma_compatible(ring, system),
            "is_weak_sigma_compatible": is_weak_sigma_compatible(ring, system),
            "is_delta_compatible": is_delta_compatible(ring, system),
            "is_weak_delta_compatible": is_weak_delta_compatible(ring, system),
            "is_sigma_rigid": is_sigma_rigid(ring, system),
            "is_sigma_rigid_subset": is_sigma_rigid_subset(ring, system, ring.nilpotent_mask),
        }
        for pred, res in observed.items():
            assert _observed(res) == expected[pred], (name, pred)
            if not res.holds:
                failing.add(pred)
    assert len(failing) == 6  # every predicate fails somewhere, so witnesses are compared


# ---------------------------------------------------------------------------
# compatibility on the generators against the per-word loops
# ---------------------------------------------------------------------------


def word_loop_compatible(ring, system, Z):
    """Sigma-compatibility as it was tested before: one pass per word of the closure, in closure order."""
    mul = ring.mul_table
    base = Z[mul]
    for word, arr in system.sigma_closure():
        differ = Z[mul[:, arr]] != base
        if differ.any():
            a, b = map(int, np.argwhere(differ)[0])
            return CompatResult(False, (ring.element_from_index(a), ring.element_from_index(b), _word_name("sigma", word)))
    return CompatResult(True)


def word_loop_delta_words(system):
    """delta^beta = delta_1^b1 o ... o delta_n^bn for 1 <= |beta| <= DELTA_WORD_CAP, in `multi_indices` order."""
    out = []
    for beta in multi_indices(system.n, 1, DELTA_WORD_CAP):
        arr = np.arange(system.ring.size, dtype=np.int64)
        for i in range(system.n - 1, -1, -1):
            for _ in range(beta[i]):
                arr = system.deltas[i].index_array[arr]
        out.append((beta, arr))
    return out


def word_loop_delta_compatible(ring, system, Z):
    """Delta-compatibility as it was tested before: one pass per delta-word up to the cap."""
    mul = ring.mul_table
    base = Z[mul]
    bounded = DELTA_WORD_CAP if system.has_nontrivial_delta else None
    for beta, arr in word_loop_delta_words(system):
        bad = base & ~Z[mul[:, arr]]
        if bad.any():
            a, b = map(int, np.argwhere(bad)[0])
            return CompatResult(False, (ring.element_from_index(a), ring.element_from_index(b), f"delta^{beta}"), bounded)
    return CompatResult(True, bounded=bounded)


def _failures_against_word_loops(ring, system) -> int:
    """Both kernels against the word loops under {0} and N(R), witness included; how many cases fail."""
    failures = 0
    for Z in (_zero_mask(ring), ring.nilpotent_mask):
        for kernel, loop in ((_compatible, word_loop_compatible), (_delta_compatible, word_loop_delta_compatible)):
            got, want = kernel(ring, system, Z), loop(ring, system, Z)
            assert (got.holds, got.witness, got.bounded) == (want.holds, want.witness, want.bounded), kernel.__name__
            failures += not got.holds
    return failures


def test_generator_tests_match_word_loops_on_corpus(corpus_entries):
    failures = sum(_failures_against_word_loops(e.ring, e.system) for e in corpus_entries)
    assert 0 < failures < 4 * len(corpus_entries)


SMALL_RINGS = {
    "Z4": lambda: zn(4),
    "Z8": lambda: zn(8),
    "Z9": lambda: zn(9),
    "Z2xZ2": lambda: product_ring(zn(2), zn(2)),
    "F4": field4,
    "Z2[y]/(y^2)": lambda: trunc_poly(2, 2),
    "Z3[y]/(y^2)": lambda: trunc_poly(3, 2),
    "Z2[y]/(y^3)": lambda: trunc_poly(2, 3),
    "U2(Z2)": lambda: matrix_upper(2),
    "Z4xZ2": lambda: product_ring(zn(4), zn(2)),
    "Z2[y]/(y^2)xZ2": lambda: product_ring(trunc_poly(2, 2), zn(2)),
}


def _matrices(ring):
    m = ring.m
    for entries in itertools.product(*(range(ring.orders[s]) for s in range(m) for _ in range(m))):
        yield [list(entries[s * m : (s + 1) * m]) for s in range(m)]


@functools.cache
def _small_family():
    """(ring, [(sigma, delta), ...]): every endomorphism and every sigma-derivation for it, per small ring."""
    out = []
    for name in sorted(SMALL_RINGS):
        ring = SMALL_RINGS[name]()
        pairs = []
        for M in _matrices(ring):
            try:
                sigma = make_endomorphism(ring, M)
            except SkewPBWError:
                continue
            for D in _matrices(ring):
                try:
                    pairs.append((sigma, make_sigma_derivation(ring, sigma, D)))
                except SkewPBWError:
                    pass
        out.append((ring, pairs))
    return out


def test_generator_tests_match_word_loops_on_small_rings():
    # every (sigma, delta) as a 1-variable system, and a seeded sample of the
    # 2-variable systems, on rings of at most 9 elements
    family = _small_family()
    two = [(ring, [p, q]) for ring, pairs in family for p in pairs for q in pairs]
    systems = [(ring, [p]) for ring, pairs in family for p in pairs] + random.Random(27).sample(two, 2400)
    failures = 0
    for ring, pairs in systems:
        failures += _failures_against_word_loops(ring, SigmaSystem([s for s, _ in pairs], [d for _, d in pairs]))
    assert 0 < failures < 4 * len(systems)


def test_first_failing_delta_is_delta_n(z2z2):
    # both deltas fail, on different pairs: delta_2 is the word tried first
    swap = make_endomorphism(z2z2, [[0, 1], [1, 0]])
    d1 = make_sigma_derivation(z2z2, swap, [[0, 0], [1, 1]])
    d2 = make_sigma_derivation(z2z2, swap, [[1, 1], [0, 0]])
    first = is_delta_compatible(z2z2, SigmaSystem([swap], [d1])).witness
    second = is_delta_compatible(z2z2, SigmaSystem([swap], [d2])).witness
    assert first[:2] != second[:2]
    system = SigmaSystem([swap, swap], [d1, d2])
    res = is_delta_compatible(z2z2, system)
    assert not res.holds and res.witness == (*second[:2], "delta^(0, 1)") and res.bounded == 4
    want = word_loop_delta_compatible(z2z2, system, _zero_mask(z2z2))
    assert (res.holds, res.witness, res.bounded) == (want.holds, want.witness, want.bounded)
