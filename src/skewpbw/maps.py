"""Additive self-maps of a finite ring: endomorphisms and sigma-derivations.

Maps are stored as integer matrices acting on coordinate vectors; row s is
reduced modulo k_s.  Verification happens at construction: multiplicativity or
the Leibniz rule on all generator pairs extends to the whole ring by
biadditivity.

The sigma-words sigma^alpha form a finite monoid (maps on a finite set), so
rigidity over all alpha is decided exactly by closing the generating set
under composition.  Sigma- and Delta-compatibility are closed under
composition themselves, so they are decided exactly on the generators
(`_compatible`, `_delta_compatible`).  A Delta-compatibility result still
carries the word-length cap that bounded it when composite delta-words were
tried one by one, as reports print it.

The weak predicates are the exact ones with N(R) in place of 0: each exact/weak
pair (Sigma-compatibility, Delta-compatibility, rigidity of a subset S) is one
kernel over a boolean element mask, called with {0} or with N(R).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BadShape,
    DeltaOneNonzero,
    DoesNotFixOne,
    LeibnizFails,
    NotAdditiveWellDefined,
    NotMultiplicative,
)
from .rings import FiniteRing, Ideal, RingElement

DELTA_WORD_CAP = 4  # the word cap a Delta-compatibility result reports

ENDOMORPHISM = "endomorphism"
SIGMA_DERIVATION = "sigma_derivation"


class RingMap:
    """Verified additive self-map, tagged endomorphism or sigma-derivation."""

    def __init__(
        self,
        ring: FiniteRing,
        matrix: Sequence[Sequence[int]],
        kind: str,
        partner: Optional["RingMap"] = None,
        name: str = "",
    ):
        self.ring = ring
        mat = np.array(matrix, dtype=np.int64)
        if mat.shape != (ring.m, ring.m):
            raise BadShape(f"map matrix must be {ring.m}x{ring.m}")
        ords = np.array(ring.orders, dtype=np.int64)
        self.matrix = mat % ords[:, None]  # row s reduced mod k_s
        self.kind = kind
        self.partner = partner
        self.name = name
        self.verified = False
        self.injective: Optional[bool] = None
        self._index_arr: Optional[np.ndarray] = None
        self._index_list: Optional[list] = None
        self._check_well_defined()

    def _check_well_defined(self) -> None:
        # column t must be annihilated by k_t in every target coordinate
        for t in range(self.ring.m):
            kt = self.ring.orders[t]
            for s in range(self.ring.m):
                if (int(self.matrix[s, t]) * kt) % self.ring.orders[s] != 0:
                    raise NotAdditiveWellDefined(s + 1, t + 1)

    def __call__(self, el: RingElement) -> RingElement:
        coords = self.matrix @ np.array(el.coords, dtype=np.int64)
        return RingElement(self.ring, coords.tolist())

    @property
    def index_array(self) -> np.ndarray:
        """The map as an array over element indices."""
        if self._index_arr is None:
            A = self.ring.elements_array
            ords = np.array(self.ring.orders, dtype=np.int64)
            img = (A @ self.matrix.T) % ords
            self._index_arr = (img @ self.ring._strides).astype(np.int64)
        return self._index_arr

    @property
    def index_list(self) -> list:
        if self._index_list is None:
            self._index_list = self.index_array.tolist()
        return self._index_list

    @property
    def is_identity(self) -> bool:
        return bool((self.matrix == np.eye(self.ring.m, dtype=np.int64) % np.array(self.ring.orders)[:, None]).all())

    @property
    def is_zero(self) -> bool:
        return not self.matrix.any()

    def structurally_equal(self, other: "RingMap") -> bool:
        return (
            self.ring.structurally_equal(other.ring)
            and self.kind == other.kind
            and np.array_equal(self.matrix, other.matrix)
        )

    def __repr__(self) -> str:
        label = self.name or self.kind
        return f"RingMap({label})"


def _generator_products(ring: FiniteRing) -> tuple:
    """The indices g of the additive generators, and their products e_i e_j as an (m, m) index table."""
    g = np.array([ring.generator(i).index for i in range(ring.m)])
    return g, ring.mul_table[np.ix_(g, g)]


def make_endomorphism(ring: FiniteRing, matrix: Sequence[Sequence[int]], name: str = "") -> RingMap:
    """Verify multiplicativity and 1 -> 1; records injectivity as a flag.

    f(e_i e_j) = f(e_i) f(e_j) is checked on every generator pair at once,
    each side gathered from the map's index array and the multiplication
    table; the first failing pair in row-major order is reported.
    """
    f = RingMap(ring, matrix, ENDOMORPHISM, name=name)
    g, products = _generator_products(ring)
    img = f.index_array
    bad = np.argwhere(img[products] != ring.mul_table[np.ix_(img[g], img[g])])
    if len(bad):
        raise NotMultiplicative(int(bad[0, 0]) + 1, int(bad[0, 1]) + 1)
    if img[ring.one_index] != ring.one_index:
        raise DoesNotFixOne("endomorphism must fix 1")
    # injective == surjective == bijective on a finite carrier
    f.injective = len(np.unique(img)) == ring.size
    f.verified = True
    return f


def make_sigma_derivation(
    ring: FiniteRing,
    sigma: RingMap,
    matrix: Sequence[Sequence[int]],
    name: str = "",
) -> RingMap:
    """Verify delta(ab) = sigma(a)delta(b) + delta(a)b and delta(1) = 0.

    The Leibniz rule is checked on every generator pair at once, by
    gathers from the index arrays of delta and sigma and the ring's tables;
    the first failing pair in row-major order is reported.
    """
    if sigma.kind != ENDOMORPHISM or not sigma.verified:
        raise BadShape("partner must be a verified endomorphism")
    d = RingMap(ring, matrix, SIGMA_DERIVATION, partner=sigma, name=name)
    img = d.index_array
    if img[ring.one_index] != 0:
        raise DeltaOneNonzero("a sigma-derivation must kill 1")
    g, products = _generator_products(ring)
    mul = ring.mul_table
    rhs = ring.add_table[mul[np.ix_(sigma.index_array[g], img[g])], mul[np.ix_(img[g], g)]]
    bad = np.argwhere(img[products] != rhs)
    if len(bad):
        raise LeibnizFails(int(bad[0, 0]) + 1, int(bad[0, 1]) + 1)
    d.verified = True
    return d


def identity_map(ring: FiniteRing) -> RingMap:
    return make_endomorphism(ring, np.eye(ring.m, dtype=np.int64).tolist(), name="id")


def zero_derivation(ring: FiniteRing, sigma: RingMap) -> RingMap:
    zero = [[0] * ring.m for _ in range(ring.m)]
    return make_sigma_derivation(ring, sigma, zero, name="0")


def _word_name(prefix: str, word: tuple) -> str:
    if not word:
        return "id"
    return "*".join(f"{prefix}{i}" for i in word)


class SigmaSystem:
    """The data (Sigma, Delta) of an extension: n endomorphisms + derivations."""

    def __init__(self, sigmas: Sequence[RingMap], deltas: Optional[Sequence[Optional[RingMap]]] = None):
        if not sigmas:
            raise BadShape("at least one sigma is required")
        self.ring = sigmas[0].ring
        self.n = len(sigmas)
        for s in sigmas:
            if s.kind != ENDOMORPHISM or not s.verified:
                raise BadShape("every sigma must be a verified endomorphism")
            if s.ring is not self.ring:
                raise BadShape("all maps must act on the same ring")
        self.sigmas = list(sigmas)
        if deltas is None:
            deltas = [None] * self.n
        if len(deltas) != self.n:
            raise BadShape("need one delta per sigma")
        self.deltas: list[RingMap] = []
        for i, d in enumerate(deltas):
            if d is None:
                d = zero_derivation(self.ring, self.sigmas[i])
            if d.kind != SIGMA_DERIVATION or not d.verified:
                raise BadShape("every delta must be a verified sigma-derivation")
            if not d.partner.structurally_equal(self.sigmas[i]):
                raise BadShape(f"delta_{i + 1} is not a derivation for sigma_{i + 1}")
            self.deltas.append(d)
        self._closure: Optional[list[tuple[tuple, np.ndarray]]] = None

    @property
    def has_nontrivial_delta(self) -> bool:
        return any(not d.is_zero for d in self.deltas)

    @property
    def all_sigma_identity(self) -> bool:
        return all(s.is_identity for s in self.sigmas)

    def sigma_closure(self) -> list[tuple[tuple, np.ndarray]]:
        """The finite monoid generated by Sigma, as (word, index-array) pairs.

        Fixpoint iteration terminates: there are at most |R|^|R| maps.
        """
        if self._closure is None:
            n = self.ring.size
            ident = np.arange(n, dtype=np.int64)
            gens = [(i + 1, s.index_array) for i, s in enumerate(self.sigmas)]
            seen = {ident.tobytes(): ((), ident)}
            frontier = [((), ident)]
            while frontier:
                nxt = []
                for word, arr in frontier:
                    for gi, garr in gens:
                        comp = garr[arr]  # (sigma_gi o current)
                        key = comp.tobytes()
                        if key not in seen:
                            entry = ((gi,) + word, comp)
                            seen[key] = entry
                            nxt.append(entry)
                frontier = nxt
            self._closure = sorted(seen.values(), key=lambda e: (len(e[0]), e[0]))
        return self._closure

    def sigma_power(self, alpha: Sequence[int]) -> np.ndarray:
        """sigma^alpha = sigma_1^a1 o ... o sigma_n^an as an index array."""
        arr = np.arange(self.ring.size, dtype=np.int64)
        for i in range(self.n - 1, -1, -1):  # rightmost factor applies first
            for _ in range(alpha[i]):
                arr = self.sigmas[i].index_array[arr]
        return arr


def multi_indices(n: int, lo: int, hi: int) -> list:
    """All beta in N^n with lo <= |beta| <= hi, graded lexicographic."""
    def rec(prefix, remaining, slots):
        if slots == 1:
            yield prefix + (remaining,)
            return
        for v in range(remaining + 1):
            yield from rec(prefix + (v,), remaining - v, slots - 1)

    return [beta for total in range(lo, hi + 1) for beta in rec((), total, n)]


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------


@dataclass
class CompatResult:
    holds: bool
    witness: Optional[tuple] = None  # (a, b, word-name) on failure
    bounded: Optional[int] = None    # word cap, when the check is a semi-decision

    def __bool__(self) -> bool:
        return self.holds


def is_sigma_compatible(ring: FiniteRing, system: SigmaSystem) -> CompatResult:
    """a*sigma^alpha(b) = 0  iff  a*b = 0, for all a, b and all alpha."""
    return _compatible(ring, system, _zero_mask(ring))


def is_delta_compatible(ring: FiniteRing, system: SigmaSystem) -> CompatResult:
    """a*b = 0 implies a*delta^beta(b) = 0, for all a, b and all beta."""
    return _delta_compatible(ring, system, _zero_mask(ring))


def is_weak_sigma_compatible(ring: FiniteRing, system: SigmaSystem) -> CompatResult:
    """a*sigma^alpha(b) in N(R)  iff  a*b in N(R)."""
    return _compatible(ring, system, ring.nilpotent_mask)


def is_weak_delta_compatible(ring: FiniteRing, system: SigmaSystem) -> CompatResult:
    """a*b in N(R) implies a*delta^beta(b) in N(R)."""
    return _delta_compatible(ring, system, ring.nilpotent_mask)


def is_sigma_rigid(ring: FiniteRing, system: SigmaSystem) -> CompatResult:
    """r*sigma^alpha(r) = 0 implies r = 0."""
    return _rigid(ring, system, _zero_mask(ring))


def is_sigma_rigid_subset(ring: FiniteRing, system: SigmaSystem, mask: np.ndarray) -> CompatResult:
    """r*sigma^alpha(r) in S implies r in S, for S given by its boolean mask over the element indices."""
    return _rigid(ring, system, mask)


def _zero_mask(ring: FiniteRing) -> np.ndarray:
    return np.arange(ring.size) == 0  # the zero element has index 0


def _compatible(ring: FiniteRing, system: SigmaSystem, Z: np.ndarray) -> CompatResult:
    """a*sigma^alpha(b) in Z  iff  a*b in Z; the first failure in closure order, then (a, b).

    Column b of Z[mul] holds, for every a, whether a*b lies in Z, so the
    condition on one word tau reads: column tau(b) equals column b, for
    every b.  If it holds for sigma_i and for tau, it holds for sigma_i o
    tau: column sigma_i(tau(b)) equals column tau(b), which equals column b.
    The identity satisfies it, so it holds on the whole closure iff it holds
    on each sigma_i, and only the generators are tested.  The first failing
    word is the one the closure would give: a word fails only if some
    generator does, the closure lists its words of length 1 first, sigma_1
    first, and the first failing sigma_i is among them (the identity and
    the generators before it pass, so none equals it).  Within that word
    Z[mul[:, tau]] is the same array, so the row-major first (a, b) is too.
    """
    mul = ring.mul_table
    base = Z[mul]
    for i, sigma in enumerate(system.sigmas):
        differ = Z[mul[:, sigma.index_array]] != base  # [a, b] -> a * sigma_i(b) in Z, against a * b in Z
        if differ.any():
            a, b = map(int, np.argwhere(differ)[0])
            return CompatResult(False, (ring.element_from_index(a), ring.element_from_index(b), _word_name("sigma", (i + 1,))))
    return CompatResult(True)


def _delta_compatible(ring: FiniteRing, system: SigmaSystem, Z: np.ndarray) -> CompatResult:
    """a*b in Z implies a*delta^beta(b) in Z, for all a, b and all beta; the first failure, then (a, b).

    Column b of Z[mul] holds, for every a, whether a*b lies in Z, so the
    condition on one word d reads: column b is contained in column d(b),
    for every b.  If it holds for delta_i and for d, it holds for delta_i o
    d: column b lies in column d(b), which lies in column delta_i(d(b)).  So
    every delta^beta passes iff each delta_i does, and only the delta_i are
    tested, in `multi_indices` order, delta_n first.  That order lists the
    words of length 1 before any longer word, so the first failing word,
    and its row-major first (a, b), are those that testing every word up to
    DELTA_WORD_CAP in that order gives.  The result still reports that cap
    as `bounded` when some delta_i is nonzero.
    """
    mul = ring.mul_table
    base = Z[mul]
    bounded = DELTA_WORD_CAP if system.has_nontrivial_delta else None
    for beta in multi_indices(system.n, 1, 1):
        bad = base & ~Z[mul[:, system.deltas[beta.index(1)].index_array]]
        if bad.any():
            a, b = map(int, np.argwhere(bad)[0])
            return CompatResult(False, (ring.element_from_index(a), ring.element_from_index(b), f"delta^{beta}"), bounded)
    return CompatResult(True, bounded=bounded)


def _rigid(ring: FiniteRing, system: SigmaSystem, S: np.ndarray) -> CompatResult:
    """r*sigma^alpha(r) in S implies r in S, on the whole closure: unlike compatibility, not closed under composition."""
    mul = ring.mul_table
    idx = np.arange(ring.size)
    for word, arr in system.sigma_closure():
        bad = S[mul[idx, arr]] & ~S  # r * tau(r) in S with r outside S
        if bad.any():
            r = int(np.nonzero(bad)[0][0])
            return CompatResult(False, (ring.element_from_index(r), None, _word_name("sigma", word)))
    return CompatResult(True)


SIGMA_INVARIANT = "sigma-invariant"
SIGMA_IDEAL = "sigma-ideal"
DELTA_INVARIANT = "delta-invariant"


def invariance(ideal: Ideal, system: SigmaSystem, mode: str) -> CompatResult:
    """Sigma-invariant: sigma_i(I) <= I; Sigma-ideal: sigma_i(I) = I; Delta-invariant: delta_i(I) <= I."""
    ring = ideal.ring
    mask = ideal.mask
    idx = np.nonzero(mask)[0]
    if mode == DELTA_INVARIANT:
        maps = system.deltas
        prefix = "delta"
    elif mode in (SIGMA_INVARIANT, SIGMA_IDEAL):
        maps = system.sigmas
        prefix = "sigma"
    else:
        raise BadShape(f"unknown invariance mode {mode!r}")
    for i, f in enumerate(maps):
        image = f.index_array[idx]
        outside = ~mask[image]
        if outside.any():
            r = int(idx[np.nonzero(outside)[0][0]])
            return CompatResult(False, (ring.element_from_index(r), None, f"{prefix}{i + 1}"))
        if mode == SIGMA_IDEAL and len(np.unique(image)) != len(idx):
            # sigma_i(I) is a proper subset of I
            return CompatResult(False, (None, None, f"sigma{i + 1} shrinks the ideal"))
    return CompatResult(True)
