"""Finite rings presented by additive cyclic generators and structure constants.

A ring is the additive group Z_{k_1} x ... x Z_{k_m} with multiplication
extended bilinearly from e_i * e_j = sum_t C[i][j][t] e_t.  Elements are
coordinate vectors; exhaustive algorithms (radicals, classification) work on
index tables built lazily.

The Jacobson radical is found by invertibility search over the nilpotent
elements.  The prime radical,
the Levitzki radical and the upper nilradical of a finite ring all equal it
once its nilpotence is certified (see `_nilpotent_jacobson`); the test suite
keeps prime-ideal enumeration and the sum of nil ideals as the oracle they
are compared against.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    BadIdentity,
    BadShape,
    IllDefinedConstant,
    NonAssociative,
    NotAnIdeal,
    RingMismatch,
    TooLarge,
)

DEFAULT_IDEAL_CAP = 256  # classify_ring's checks take up to m |R|^2 time and memory
TABLE_CAP = 4096  # the most elements of a ring whose elements are enumerated or tabled
# the index tables are int16, which holds every element index: it is below TABLE_CAP <= 2^15
assert TABLE_CAP <= 2**15, "element indices must fit the int16 index tables"
TABLE_BLOCK = 1 << 16  # entries per block of the table build's temporaries


class RingElement:
    """An element of a FiniteRing, stored as reduced coordinates."""

    __slots__ = ("ring", "coords")

    def __init__(self, ring: "FiniteRing", coords: Sequence[int]):
        self.ring = ring
        self.coords = tuple(int(c) % k for c, k in zip(coords, ring.orders))

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "RingElement") -> None:
        if self.ring is not other.ring:
            raise RingMismatch("elements belong to different rings")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.ring, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.ring, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "RingElement":
        return RingElement(self.ring, [-a for a in self.coords])

    def __mul__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.ring, self.ring._mul_coords(self.coords, other.coords))

    def __pow__(self, k: int) -> "RingElement":
        if k < 0:
            raise ValueError("negative powers are not defined")
        result = self.ring.one
        base = self
        while k:  # exact square-and-multiply
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RingElement)
            and self.ring is other.ring
            and self.coords == other.coords
        )

    def __hash__(self) -> int:
        return hash((id(self.ring), self.coords))

    @property
    def index(self) -> int:
        return self.ring.index_of(self.coords)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __repr__(self) -> str:
        return "[" + ",".join(str(c) for c in self.coords) + "]"


class FiniteRing:
    """Associative ring with identity on a finite additive group."""

    def __init__(
        self,
        orders: Sequence[int],
        constants: Sequence[Sequence[Sequence[int]]],
        one: Sequence[int],
        name: str = "",
    ):
        if not orders or any(int(k) < 2 for k in orders):
            raise BadShape("additive orders must all be >= 2")
        self.orders = tuple(int(k) for k in orders)
        self.m = len(self.orders)
        arr = np.array(constants, dtype=np.int64)
        if arr.shape != (self.m, self.m, self.m):
            raise BadShape(f"structure constants must have shape ({self.m},{self.m},{self.m})")
        ords = np.array(self.orders, dtype=np.int64)
        self.constants = arr % ords  # reduce coordinate u modulo k_u
        if len(one) != self.m:
            raise BadShape("identity vector has wrong length")
        self.name = name or f"ring{self.orders}"
        self.size = 1
        for k in self.orders:
            self.size *= k
        strides = [1] * self.m
        for t in range(self.m - 2, -1, -1):
            strides[t] = strides[t + 1] * self.orders[t + 1]
        self._strides = np.array(strides, dtype=np.int64)
        self._constants_list = self.constants.tolist()

        self._verify_well_defined()
        self._one = RingElement(self, one).coords
        self._verify_identity()
        self._verify_associative()

        # lazy caches.  None of them holds a RingElement or an Ideal: those
        # point back at the ring, and the cycle would keep it alive until a
        # full collection.
        self._elements_arr: Optional[np.ndarray] = None
        self._mul_table: Optional[np.ndarray] = None
        self._add_table: Optional[np.ndarray] = None
        self._neg_arr: Optional[np.ndarray] = None
        self._mul_rows: Optional[list] = None
        self._add_rows: Optional[list] = None
        self._neg_list: Optional[list] = None
        self._nilpotent_mask: Optional[np.ndarray] = None
        self._units_mask: Optional[np.ndarray] = None
        self._orbit_reps: Optional[np.ndarray] = None
        self._radical_cache: dict = {}  # "J" -> carrier mask, "J_index" -> its power index
        self._profile: Optional[dict] = None  # classify_ring's flags

    # -- construction checks ---------------------------------------------------

    def _verify_well_defined(self) -> None:
        """k_i C[i,j] and k_j C[i,j] vanish coordinate-wise, for all pairs at once.

        Otherwise the bilinear extension is not biadditive on the quotient
        group.  The first failing pair (i, j) in lexicographic order is
        reported.  Products are exact Python integers when k^2 could
        overflow int64, with k the largest order.
        """
        C = self.constants
        if max(self.orders) ** 2 >= 2**63:
            C = C.astype(object)
        ords = np.array(self.orders, dtype=C.dtype)
        bad = ((ords[:, None, None] * C) % ords != 0) | ((ords[None, :, None] * C) % ords != 0)
        pairs = np.argwhere(bad.any(axis=2))
        if len(pairs):
            i, j = (int(t) + 1 for t in pairs[0])
            raise IllDefinedConstant(i, j)

    def _verify_identity(self) -> None:
        """1 e_i = e_i = e_i 1 for every generator, in one contraction per side.

        With 1 = sum_s o_s e_s, 1 e_i = sum_s o_s C[s,i] and e_i 1 =
        sum_s o_s C[i,s], reduced modulo the orders.  The first failing
        generator is reported.  Sums are exact Python integers when
        m (k - 1)^2 could overflow int64.
        """
        C = self.constants
        if self.m * (max(self.orders) - 1) ** 2 >= 2**63:
            C = C.astype(object)
        ords = np.array(self.orders, dtype=C.dtype)
        one = np.array(self._one, dtype=C.dtype)
        eye = np.eye(self.m, dtype=C.dtype)
        left = np.einsum("s,siu->iu", one, C) % ords
        right = np.einsum("s,isu->iu", one, C) % ords
        bad = np.flatnonzero(((left != eye) | (right != eye)).any(axis=1))
        if len(bad):
            raise BadIdentity(int(bad[0]) + 1)

    def _verify_associative(self) -> None:
        """(e_i e_j) e_k = e_i (e_j e_k) for all generator triples, in one contraction.

        (e_i e_j) e_k = sum_u C[i,j,u] e_u e_k and e_i (e_j e_k) =
        sum_u C[j,k,u] e_i e_u; both are reduced modulo the orders, which is
        exact once the constants are well defined.  The first failing triple
        in lexicographic order is reported.  Sums are exact Python integers
        when m (k - 1)^2 could overflow int64.
        """
        C = self.constants
        if self.m * (max(self.orders) - 1) ** 2 >= 2**63:
            C = C.astype(object)
        ords = np.array(self.orders, dtype=C.dtype)
        lhs = np.einsum("iju,ukv->ijkv", C, C) % ords
        rhs = np.einsum("jku,iuv->ijkv", C, C) % ords
        bad = np.argwhere((lhs != rhs).any(axis=3))
        if len(bad):
            i, j, k = (int(t) + 1 for t in bad[0])
            raise NonAssociative(i, j, k)

    # -- element plumbing -------------------------------------------------------

    def _mul_coords(self, a: Sequence[int], b: Sequence[int]) -> tuple:
        m = self.m
        acc = [0] * m
        C = self._constants_list
        for s in range(m):
            cs = a[s]
            if cs == 0:
                continue
            Cs = C[s]
            for t in range(m):
                ct = b[t]
                if ct == 0:
                    continue
                f = cs * ct
                row = Cs[t]
                for u in range(m):
                    acc[u] += f * row[u]
        return tuple(acc[u] % self.orders[u] for u in range(m))

    def el(self, coords: Sequence[int]) -> RingElement:
        if len(coords) != self.m:
            raise BadShape("coordinate vector has wrong length")
        return RingElement(self, coords)

    def generator(self, i: int) -> RingElement:
        coords = [0] * self.m
        coords[i] = 1
        return RingElement(self, coords)

    def index_of(self, coords: Sequence[int]) -> int:
        idx = 0
        for c, s in zip(coords, self._strides):
            idx += int(c) * int(s)
        return idx

    def element_from_index(self, idx: int) -> RingElement:
        coords = []
        for s in self._strides:
            coords.append(idx // int(s))
            idx %= int(s)
        return RingElement(self, coords)

    def _require_size(self, what: str) -> None:
        """Refuse, before any allocation, to enumerate a ring over TABLE_CAP."""
        if self.size > TABLE_CAP:
            raise TooLarge(self.size, TABLE_CAP, what)

    def elements(self) -> list[RingElement]:
        self._require_size("element list")
        return [self.element_from_index(i) for i in range(self.size)]

    @property
    def one(self) -> RingElement:
        return RingElement(self, self._one)

    @property
    def zero(self) -> RingElement:
        return RingElement(self, (0,) * self.m)

    @property
    def one_index(self) -> int:
        return self.index_of(self._one)

    # -- vectorized views ---------------------------------------------------------

    @property
    def elements_array(self) -> np.ndarray:
        if self._elements_arr is None:
            self._require_size("element array")
            grids = np.indices(self.orders).reshape(self.m, -1).T
            self._elements_arr = np.ascontiguousarray(grids, dtype=np.int64)
        return self._elements_arr

    def _require_tables(self) -> None:
        """Build the int16 index tables of +, * and negation, in row blocks of their final arrays.

        Int16 holds every entry: an entry is an element index, below
        n <= TABLE_CAP <= 2^15.  So a ring keeps 4 n^2 bytes of tables.

        The digits are split after the digit t whose stride s_t makes
        nH + nL least, with nL = s_t and nH = n / nL, ties going to the
        smaller nL.  Every index is a = h*nL + l: the element
        h*nL has only the digits up to t (the high part H_a) and the element l
        only the digits after t (the low part L_a), and a = H_a + L_a.
        The part with more elements is the big side, the other the small
        side, which has at most sqrt(n) elements.

        Addition reduces each coordinate on its own, so no carry crosses a
        digit: index(a + b) = index(H_a + H_b) + index(L_a + L_b).  The
        table of the small side is built whole, one coordinate at a time;
        the big side's is built for one block of its elements at a time,
        and each block's sums with the small side's table, broadcast over
        its rows and columns, are written straight into the int16 table.
        A sum is index(a + b) < n, so it never wraps.

        Multiplication distributes: a * b = H_a * b + L_a * b.  So only the
        nH + nL rows of the pure-digit elements are contracted against the
        constants, and row a is the addition-table gather of rows H_a and
        L_a at the flat index H_a b * n + L_a b, formed in intp.  The small
        side's rows are formed once, the big side's one block at a time.
        The contraction runs in float64 and is exact: e_s * b is reduced
        modulo the orders first, so every coordinate of a pure-digit product
        is an integer sum of at most m (k - 1)^2, with k the largest order.
        Under TABLE_CAP, k <= 4096 and m <= 12, so the sums stay below 2^28:
        far below 2^53, where float64 stops holding every integer, and below
        2^31, so they are reduced in int32.

        So no temporary grows with n^2.  Besides the tables, the build holds
        the m x n x m coordinates of the products e_s b, the small side's
        rows (at most n sqrt(n) entries) and sum table (at most n), and one
        block: as many big-side elements as keep its products, sums and
        gather indices within TABLE_BLOCK entries, and at least one.
        """
        if self._mul_table is not None:
            return
        self._require_size("multiplication table")
        A = self.elements_array
        ords = np.array(self.orders, dtype=np.int64)
        n, m = self.size, self.m
        strides = self._strides.tolist()
        t = min(range(m), key=lambda u: (n // strides[u] + strides[u], strides[u]))
        nL = strides[t]
        nH = n // nL
        add, mul = np.empty((n, n), dtype=np.int16), np.empty((n, n), dtype=np.int16)
        # add4[h, l, h', l'] = index(a + b) and mul3[h, l, b] = index(a * b), a = h nL + l, b = h' nL + l'
        add4, mul3 = add.reshape(nH, nL, nH, nL), mul.reshape(nH, nL, n)
        # (elements, digits) of the high and the low side, the big side first
        sides = [(A[::nL], slice(0, t + 1)), (A[:nL], slice(t + 1, m))]
        if nL > nH:
            sides.reverse()
            add4, mul3 = add4.transpose(1, 0, 3, 2), mul3.transpose(1, 0, 2)
        (big, big_digits), (small, small_digits) = sides

        def sums(x: np.ndarray, y: np.ndarray, digits: slice) -> np.ndarray:
            return _digit_add_table(x[:, digits], y[:, digits], self.orders[digits], strides[digits])

        # right[s, b, u]: coordinate u of e_s * b, reduced
        right = (np.einsum("bt,stu->sbu", A, self.constants) % ords).reshape(m, n * m).astype(np.float64)
        ords32 = ords.astype(np.int32)

        def product_rows(x: np.ndarray) -> np.ndarray:
            """[i, b] -> index of x_i * b, for coordinate rows x_i, contracted a block of rows at a time."""
            rows = np.empty((len(x), n), dtype=np.intp)
            step = max(1, TABLE_BLOCK // (n * m))
            for i in range(0, len(x), step):
                prod = (x[i : i + step].astype(np.float64) @ right).astype(np.int32).reshape(-1, n, m)
                prod %= ords32
                rows[i : i + step] = prod @ self._strides
            return rows

        small_sums, small_rows = sums(small, small, small_digits), product_rows(small)
        block = max(1, TABLE_BLOCK // (n * max(m, len(small))))
        for b in range(0, len(big), block):
            big_sums = sums(big[b : b + block], big, big_digits)
            np.add(big_sums[:, None, :, None], small_sums[None, :, None, :], out=add4[b : b + block])
        flat = add.ravel()
        for b in range(0, len(big), block):
            index = product_rows(big[b : b + block])[:, None, :] * n + small_rows[None]
            np.take(flat, index, out=mul3[b : b + block])
        self._mul_table = mul
        self._add_table = add
        self._neg_arr = ((-A) % ords @ self._strides).astype(np.int16)

    @property
    def mul_table(self) -> np.ndarray:
        self._require_tables()
        return self._mul_table

    @property
    def add_table(self) -> np.ndarray:
        self._require_tables()
        return self._add_table

    @property
    def neg_array(self) -> np.ndarray:
        self._require_tables()
        return self._neg_arr

    def index_rows(self) -> tuple[list, list, list]:
        """Plain-list views of the tables for hot scalar loops."""
        if self._mul_rows is None:
            self._mul_rows = self.mul_table.tolist()
            self._add_rows = self.add_table.tolist()
            self._neg_list = self.neg_array.tolist()
        return self._mul_rows, self._add_rows, self._neg_list

    # -- nilpotents and units ---------------------------------------------------------

    @property
    def nilpotent_mask(self) -> np.ndarray:
        """Boolean mask over element indices of { r : r^k = 0, some k <= |R| }."""
        if self._nilpotent_mask is None:
            self._require_size("nilpotent mask")
            # r is nilpotent iff r^(2^s) = 0 once 2^s >= |R|: the power sequence
            # of any element cycles within |R| steps, so if it ever hits 0 it
            # does so by exponent |R|.  Each step squares every element at once
            # by one gather from the multiplication table.
            mul = self.mul_table
            X = np.arange(self.size)
            for _ in range(max(1, int(np.ceil(np.log2(self.size))))):
                X = mul[X, X]
            self._nilpotent_mask = X == 0
        return self._nilpotent_mask

    @property
    def units_mask(self) -> np.ndarray:
        """a is a unit iff ab = 1 for some b: a finite ring is Dedekind-finite.

        If ab = 1, then x -> bx is injective (bx = by gives x = abx = aby =
        y), so onto R, as R is finite: bc = 1 for some c, and then
        c = (ab)c = a(bc) = a.  So ba = 1 as well.
        """
        if self._units_mask is None:
            self._units_mask = (self.mul_table == self.one_index).any(axis=1)
        return self._units_mask

    def _unit_orbit_reps(self) -> np.ndarray:
        """One element index per two-sided unit orbit {u a v}, u, v units.

        The orbits partition R, and each representative is the least index of
        its orbit, found for every element at once: least[a] is the least
        index in the orbit of a, and a is a representative iff least[a] = a.
        Min over u, v of u a v = min over u of (min over v of (u a) v), so two
        gathers from the table suffice.  The quantifier checks below need only
        the representatives: for units u, v the two-sided ideal (u a v) equals
        (a), since a = u^-1 (u a v) v^-1.
        """
        if self._orbit_reps is None:
            self._require_size("unit orbit pass")
            mul = self.mul_table
            U = np.flatnonzero(self.units_mask)
            least = mul[:, U].min(axis=1)  # least[a] = min over v of a v
            least = least[mul[U, :]].min(axis=0)
            self._orbit_reps = np.flatnonzero(least == np.arange(self.size))
        return self._orbit_reps

    def mask_of(self, elements: Iterable[RingElement]) -> np.ndarray:
        mask = np.zeros(self.size, dtype=bool)
        for e in elements:
            mask[e.index] = True
        return mask

    def set_of(self, mask: np.ndarray) -> frozenset:
        return frozenset(RingElement(self, row) for row in self.elements_array[mask].tolist())

    def __repr__(self) -> str:
        return f"FiniteRing({self.name}, |R|={self.size})"

    def structurally_equal(self, other: "FiniteRing") -> bool:
        return (
            self.orders == other.orders
            and np.array_equal(self.constants, other.constants)
            and self.one.coords == other.one.coords
        )


def _digit_add_table(x: np.ndarray, y: np.ndarray, orders: Sequence[int], strides: Sequence[int]) -> np.ndarray:
    """[i, j] -> index of x_i + y_j, for coordinate rows x_i, y_j over the given digits.

    In int16, as the tables: a coordinate sum is below 2k <= 2 TABLE_CAP,
    and each term, like the index, is below n.
    """
    table = np.zeros((len(x), len(y)), dtype=np.int16)
    for u, (k, stride) in enumerate(zip(orders, strides)):
        table += (np.add.outer(x[:, u].astype(np.int16), y[:, u].astype(np.int16)) % k) * stride
    return table


def make_ring(
    additive_orders: Sequence[int],
    structure_constants: Sequence[Sequence[Sequence[int]]],
    one: Sequence[int],
    name: str = "",
) -> FiniteRing:
    """Build and fully verify a FiniteRing (associativity, identity, shapes)."""
    return FiniteRing(additive_orders, structure_constants, one, name=name)


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------


class Ideal:
    """A two-sided ideal given by its explicit carrier set."""

    def __init__(
        self,
        ring: FiniteRing,
        carrier: Iterable[RingElement],
        _trusted_mask: Optional[np.ndarray] = None,
    ):
        self.ring = ring
        if _trusted_mask is not None:
            self.mask = _trusted_mask
        else:
            self.mask = ring.mask_of(carrier)
            self._verify()

    @cached_property
    def carrier(self) -> frozenset:
        """The elements as a frozenset, built on first use."""
        return self.ring.set_of(self.mask)

    def _verify(self) -> None:
        defect = _ideal_defect(self.ring, self.mask)
        if defect:
            raise NotAnIdeal(defect)

    @classmethod
    def from_mask(cls, ring: FiniteRing, mask: np.ndarray, verify: bool = False) -> "Ideal":
        ideal = cls(ring, (), _trusted_mask=mask)
        if verify:
            ideal._verify()
        return ideal

    def __contains__(self, el: RingElement) -> bool:
        return bool(self.mask[el.index])

    def __len__(self) -> int:
        return int(self.mask.sum())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Ideal)
            and self.ring is other.ring
            and np.array_equal(self.mask, other.mask)
        )

    def __hash__(self) -> int:
        return hash((id(self.ring), self.mask.tobytes()))

    def sorted_elements(self) -> list[RingElement]:
        return [self.ring.element_from_index(int(i)) for i in np.nonzero(self.mask)[0]]

    def __repr__(self) -> str:
        els = ",".join(repr(e) for e in self.sorted_elements())
        return f"Ideal({{{els}}})"


def _ideal_defect(ring: FiniteRing, mask: np.ndarray) -> Optional[str]:
    """Why the masked set is not a two-sided ideal, or None if it is one.

    Once the set is an additive subgroup, absorption is tested by the
    generators e_t alone: every r in R is a sum of multiples of the e_t, so
    e_t a and a e_t in the set for every t put ra and ar there too.
    """
    if not mask[0]:
        return "0 is missing from the carrier"
    idx = np.nonzero(mask)[0]
    if not mask[ring.add_table[np.ix_(idx, idx)]].all():
        return "carrier is not closed under addition"
    if not mask[ring.neg_array[idx]].all():
        return "carrier is not closed under negation"
    mul = ring.mul_table
    gens = ring._strides
    if not mask[mul[np.ix_(gens, idx)]].all() or not mask[mul[np.ix_(idx, gens)]].all():
        return "carrier does not absorb ring multiplication"
    return None


def _additive_closure(ring: FiniteRing, mask: np.ndarray) -> np.ndarray:
    add = ring.add_table
    mask = mask.copy()
    mask[0] = True
    while True:
        idx = np.nonzero(mask)[0]
        new = np.zeros_like(mask)
        new[add[np.ix_(idx, idx)].ravel()] = True
        new[ring.neg_array[idx]] = True
        merged = mask | new
        if (merged == mask).all():
            return mask
        mask = merged


def ideal_power_index(ideal: Ideal) -> Optional[int]:
    """The least t with I^t = 0, or None if no power of I is zero.

    I^k is the additive span of the products a*b, a in I^(k-1), b in I; that
    span is again an ideal.  The chain I >= I^2 >= ... descends in a finite
    ring, so it either reaches 0 or repeats a nonzero ideal, after which it
    is constant.
    """
    ring = ideal.ring
    mul = ring.mul_table
    idx = np.nonzero(ideal.mask)[0]
    power = ideal.mask
    t = 1
    while power[1:].any():
        product = np.zeros_like(power)
        product[mul[np.ix_(np.nonzero(power)[0], idx)].ravel()] = True
        product = _additive_closure(ring, product)
        if np.array_equal(product, power):
            return None
        power = product
        t += 1
    return t


def nilpotent_set(ring: FiniteRing) -> frozenset:
    """{ r : r^k = 0 for some 1 <= k <= |R| }."""
    return ring.set_of(ring.nilpotent_mask)


def jacobson_radical(ring: FiniteRing) -> Ideal:
    """{ r : 1 - s*r is a unit for every s }, searched over the nilpotent r only.

    J(R) holds only nilpotent elements.  Some power r^k of any r is an
    idempotent e, since the powers of r cycle.  If r is in J(R), so is e, so
    1 - e is a unit; and e(1 - e) = e - e^2 = 0, so e = 0 and r is nilpotent.
    Units are found by exhaustive search, and the result is verified to be an
    ideal.
    """
    if "J" in ring._radical_cache:
        return Ideal.from_mask(ring, ring._radical_cache["J"])
    mul = ring.mul_table
    units = ring.units_mask
    one = ring.one_index
    neg = ring.neg_array
    add = ring.add_table
    one_minus = add[one, neg]  # index of 1 - x
    nil = np.flatnonzero(ring.nilpotent_mask)
    mask = np.zeros(ring.size, dtype=bool)
    mask[nil] = units[one_minus[mul[:, nil]]].all(axis=0)  # 1 - s*r a unit for all s
    ideal = Ideal.from_mask(ring, mask, verify=True)
    ring._radical_cache["J"] = ideal.mask
    return ideal


def jacobson_index(ring: FiniteRing) -> int:
    """The least t with J(R)^t = 0, computed once per ring by `_nilpotent_jacobson`."""
    _nilpotent_jacobson(ring)
    return ring._radical_cache["J_index"]


def _nilpotent_jacobson(ring: FiniteRing) -> Ideal:
    """J(R), once `ideal_power_index` has proved it nilpotent: then it is every nilradical.

    A nilpotent ideal I lies in every prime ideal P: from I^t = 0 in P,
    primeness puts I^(t-1) or I in P, and so on down to I.  It is also locally
    nilpotent and nil.  So a nilpotent J(R) lies in N_*(R), L(R) and N^*(R).
    Conversely each of the three lies in J(R): N_*(R) because J(R) is the
    intersection of the primitive ideals, which are prime, and L(R), N^*(R)
    because they are nil and every nil ideal lies in J(R) (Lam, A First
    Course in Noncommutative Rings, ch. 4 and ch. 10).  A finite ring is
    Artinian, so J(R) is always nilpotent; the power index is still computed,
    once per ring, and a J(R) whose powers stop short of zero raises.
    """
    J = jacobson_radical(ring)
    if "J_index" not in ring._radical_cache:
        ring._radical_cache["J_index"] = ideal_power_index(J)
    if ring._radical_cache["J_index"] is None:
        raise NotAnIdeal("the Jacobson radical failed the nilpotence verification")
    return J


def prime_radical(ring: FiniteRing) -> Ideal:
    """N_*(R), the intersection of all prime ideals: J(R) for a finite ring."""
    return _nilpotent_jacobson(ring)


def upper_nilradical(ring: FiniteRing) -> Ideal:
    """N^*(R), the sum of all nil ideals: J(R) for a finite ring."""
    return _nilpotent_jacobson(ring)


def levitzki_radical(ring: FiniteRing) -> Ideal:
    """L(R), the sum of all locally nilpotent ideals: J(R) for a finite ring."""
    return _nilpotent_jacobson(ring)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@dataclass
class RingProfile:
    """Result of classify_ring: every boolean predicate plus the radicals."""

    NI: bool
    NJ: bool
    two_primal: bool
    weakly_two_primal: bool
    reduced: bool
    domain: bool
    symmetric: bool
    reversible: bool
    semicommutative: bool
    right_duo: bool
    left_duo: bool
    abelian: bool
    dedekind_finite: bool
    locally_finite: bool
    nilpotents: frozenset = field(repr=False)
    prime_radical: Ideal = field(repr=False)
    levitzki_radical: Ideal = field(repr=False)
    upper_nilradical: Ideal = field(repr=False)
    jacobson_radical: Ideal = field(repr=False)

    def flags(self) -> dict:
        """The boolean predicates: the fields shown in the repr."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.repr}


def _symmetric(ring: FiniteRing, zero: np.ndarray) -> bool:
    """abc = 0 implies bac = 0: every right annihilator r(ab) lies in r(ba).

    In a ring with 1 this rule is symmetry (rst = 0 implies rts = 0).  With
    c = 1 it gives reversibility, ab = 0 implies ba = 0.  Then from rst = 0,
    reversibility gives str = 0, the rule gives tsr = 0 and reversibility
    again rts = 0.  Conversely a symmetric ring is reversible (r = 1), and
    abc = 0 gives bca = 0, then bac = 0.

    Swapping a and b gives the reverse inclusion, so the test is r(ab) =
    r(ba): row ab equals row ba of Z = (mul == 0).  Each element gets the id
    of its row's class of equal rows (one sort of the n bit-packed rows), and
    the test is that the table [a, b] -> id(ab) is symmetric.  `zero` is Z.
    The test needs no reversibility check of its own: column 1 of rows ab
    and ba says ab = 0 exactly when ba = 0.  `classify_ring` skips it for a
    ring that is not reversible.
    """
    mul = ring.mul_table
    rows = np.packbits(zero, axis=1)
    _, row_id = np.unique(rows.view(np.dtype((np.void, rows.shape[1]))).ravel(), return_inverse=True)
    ids = row_id.astype(np.int16)[mul]  # [a, b] -> id(ab); fewer than TABLE_CAP < 2^15 ids
    return bool((ids == ids.T).all())


def _semicommutative(ring: FiniteRing) -> bool:
    """ab = 0 implies aRb = 0: each right annihilator r(a) is a left ideal.

    r(a) is an additive subgroup, and every r in R is a sum of multiples of
    the generators e_t, so r(a) absorbs R on the left as soon as it absorbs
    each e_t: b in r(a) implies e_t b in r(a).  a ranges over the two-sided
    unit orbits only: for units u, v, (uav)b = 0 exactly when a(vb) = 0, so
    r(uav) = v^-1 r(a), a left ideal exactly when r(a) is.  All
    representatives are tested at once, in bounded blocks of rows.
    """
    mul = ring.mul_table
    reps = ring._unit_orbit_reps()
    left = mul[ring._strides]  # [t, b] -> e_t b
    block = max(1, (1 << 22) // (ring.m * ring.size))  # representatives per m x n block of <= 2^22 entries
    for lo in range(0, len(reps), block):
        Z = mul[reps[lo : lo + block]] == 0  # [a, b] -> (ab == 0)
        if (Z[:, None, :] & ~Z[:, left]).any():
            return False
    return True


def _duo(ring: FiniteRing, right: bool) -> bool:
    """Every principal right (left) ideal aR (Ra) is two-sided.

    aR is row a of the multiplication table: it is an additive group and
    contains a, so no closure is needed.  It is a two-sided ideal exactly when
    Ra lies in it: then RaR lies in aRR = aR, and conversely Ra lies in RaR.
    Ra is the additive span of the products e_t a, so the test is e_t a in aR
    for every generator e_t, made for every a at once by one scatter of the
    rows aR into membership rows.  a ranges over the two-sided unit orbits
    only: (uav)R = u(aR), and for a unit u, u(aR) is an ideal exactly when aR
    is.  An ideal among the two absorbs u or u^-1 on the left, so it contains
    the other, which has the same size; the two are then equal.  The left case
    is the mirror image: a e_t in Ra, with R(uav) = (Ra)v.
    """
    mul = ring.mul_table
    reps = ring._unit_orbit_reps()
    gens = ring._strides
    if right:
        one_sided, other = mul[reps], mul[np.ix_(gens, reps)].T  # aR; e_t a
    else:
        one_sided, other = mul[:, reps].T, mul[np.ix_(reps, gens)]  # Ra; a e_t
    rows = np.arange(len(reps))[:, None]
    member = np.zeros((len(reps), ring.size), dtype=bool)
    member[rows, one_sided] = True
    return bool(member[rows, other].all())


def _abelian(ring: FiniteRing) -> bool:
    mul = ring.mul_table
    idem = np.nonzero(mul.diagonal() == np.arange(ring.size))[0]
    for e in idem:
        if not (mul[e, :] == mul[:, e]).all():
            return False
    return True


def classify_ring(ring: FiniteRing, cap: int = DEFAULT_IDEAL_CAP) -> RingProfile:
    """Fill every predicate flag by exact quantifier checks.

    Each inner quantifier over R runs over the additive generators e_t where
    the tested set is an additive group (semicommutative, duo, and the ideal
    tests), and the outer one over unit-orbit representatives; symmetric
    compares the rows ab and ba of the zero pattern of the table through
    ids of equal rows.  Each check takes up to m |R|^2 time and memory, so
    rings over `cap` elements are refused, and rings over TABLE_CAP before
    that, both before anything is allocated.
    N(R) = J(R) decides NJ, 2-primal and weakly 2-primal at once, since the
    three nilradicals equal J(R); NI is tested on its own, as closure of N(R)
    under the ideal operations.  Dedekind-finite and locally finite hold in
    every finite ring (the first by the argument at
    `FiniteRing.units_mask`), so both are recorded, not computed.  The ring
    caches the flags, and the radicals as masks; the profile's ideals and
    nilpotent set are rebuilt from them on every call.
    """
    ring._require_size("classification")
    if ring.size > cap:
        raise TooLarge(ring.size, cap, "classification")
    nil = ring.nilpotent_mask
    J = jacobson_radical(ring)
    Nlower = prime_radical(ring)
    Nupper = upper_nilradical(ring)
    L = levitzki_radical(ring)
    if ring._profile is None:
        zero = ring.mul_table == 0
        reversible = bool((zero == zero.T).all())
        nil_is_J = bool((nil == J.mask).all())
        ring._profile = dict(
            NI=_ideal_defect(ring, nil) is None,
            NJ=nil_is_J,
            two_primal=nil_is_J,
            weakly_two_primal=nil_is_J,
            reduced=bool(nil.sum() == 1),
            domain=int(zero.sum()) == 2 * ring.size - 1 and ring.size > 1,
            symmetric=reversible and _symmetric(ring, zero),
            reversible=reversible,
            semicommutative=_semicommutative(ring),
            right_duo=_duo(ring, right=True),
            left_duo=_duo(ring, right=False),
            abelian=_abelian(ring),
            dedekind_finite=True,  # every finite ring: see FiniteRing.units_mask
            locally_finite=True,  # recorded, not computed: finite carrier
        )
    return RingProfile(
        **ring._profile,
        nilpotents=ring.set_of(nil),
        prime_radical=Nlower,
        levitzki_radical=L,
        upper_nilradical=Nupper,
        jacobson_radical=J,
    )
