"""Finite left A-modules: a decision that proves f in A not nilpotent.

The argument.  Let M be a finite abelian group, r -> L_r a ring map from R
to the additive endomorphisms of M, and X_1..X_n additive operators on M
with

  (1) X_i L_r = L_{sigma_i(r)} X_i + L_{delta_i(r)}            for r in R,
  (2) X_j X_i = L_{d_ij} X_i X_j + L_{t0} + sum_k L_{t_k} X_k   for i < j.

Both sides of (1) are additive in r, so (1) holds once it holds on the
additive generators e_s of R, and (1), (2) are identities between integer
matrices over the additive generators of M: a finite, exact check.
`verify_presentation` checked the overlaps of the rewriting system, so by
the diamond lemma (Gallego and Lezama, Groebner bases for ideals of
sigma-PBW extensions, Comm. Algebra 2011) A is the ring generated by R and
x_1..x_n subject to exactly the relations x_i r = sigma_i(r) x_i +
delta_i(r) and x_j x_i = d_ij x_i x_j + t0 + sum_k t_k x_k, with the
standard monomials as a left R-basis.  So r -> L_r, x_i -> X_i extends to a
ring map rho: A -> End(M), which on normal forms reads

  rho(sum_alpha r_alpha x^alpha) = sum_alpha L_{r_alpha} X_1^alpha_1 ... X_n^alpha_n.

rho need not be injective: f^k = 0 gives rho(f)^k = 0, so a rho(f) that is
not nilpotent proves f^k != 0 for every k.  And that is decidable.  Let
L = sum_u Omega(k_u) be the length of M as a Z-module, with k_u the order
of its u-th generator and Omega(k) the number of prime factors of k with
multiplicity.  The images M >= phi(M) >= phi^2(M) >= ... of an additive
phi decrease strictly until they repeat, and then stay fixed; a nilpotent
phi is fixed only at 0.  So phi is nilpotent iff phi^L = 0, iff
phi^(2^s) = 0 for 2^s >= L.

Matrices.  An additive endomorphism phi of M = sum_u Z_{k_u} g_u is the
integer matrix whose column v holds the coordinates of phi(g_v), row u taken
modulo k_u.  Composition is the integer matrix product reduced row by row,
and any integer representatives of the entries give the same result: adding
k_v to entry (v, w) of the right factor adds k_v times column v of the left
factor to column w, and those are the coordinates of phi(k_v g_v) = 0.
The relations (1) and (2) are checked in int64, one contraction per
family: (1) for X_i on every e_s at once, and (2) for X_j X_i over every
term of its right side at once.  The decisions run in float64, exact on
integers below 2^53.  An image rho(f) is reduced before the first
squaring, so its entries are at most b = k - 1, with k the largest order.
Every sum of a product of two matrices with entries at most b is at most
D b^2, so each squaring bounds the next b, and `FiniteModules` reduces
before any squaring whose sums could reach 2^53.

The catalogue is one family of modules, each named by a shape
((m_1, rule_1), ..., (m_n, rule_n)): M = sum over alpha < m of R x^alpha,
L_r acting on the coefficients, and X_i(e_t x^alpha) the engine's
x_i * e_t x^alpha with each exponent gamma_j of each term reduced by the
rule of variable j, cyclic (x_j^{m_j} -> 1, gamma_j modulo m_j) or
truncated (x_j^{m_j} -> 0, the term dropped once gamma_j >= m_j).  A
candidate is kept only if it passes (1) and (2), so any shape is sound.
The shapes are tried in this order, each group left out when its size
passes DIMENSION_CAP:

  - every m_i = 1, truncated before cyclic in each variable.  Then M = R
    and X_i(s) = sigma_i(s) c_i + delta_i(s), with c_i = 1 for a cyclic
    variable and 0 for a truncated one.  (1) holds for every c, by
    delta(rs) = sigma(r) delta(s) + delta(r) s; (2) decides which c
    qualify.  For n = 1 this is R as a left R[x; sigma, delta]-module
    (Goodearl and Warfield, An Introduction to Noncommutative Noetherian
    Rings, ch. 2).
  - every m_i = 2, cyclic: x_i^2 -> 1.  For n = 1 this is A / A(x^2 - 1).

When J(R) is invariant under every sigma_i and delta_i, each f in J(R)<x>
is nilpotent (proof at probes._probe_rows), so no module certifies it: the
store keeps that J(R) as a mask with its t, J(R)^t = 0, and `decide`
answers such rows before it tries any module.  The store holds arrays,
numbers, its cache of atoms and a weak reference to the presentation, by
which it builds its shapes on first need, and no reference to the ring, so
a presentation that keeps it is still freed by reference counting.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .extension import ExtensionPresentation, SkewPolynomial, _cache_put
from .maps import DELTA_INVARIANT, SIGMA_INVARIANT, invariance
from .rings import jacobson_index, jacobson_radical

ATOM_CACHE_CAP = 1 << 8  # entries (module, alpha) in a store's cache of rho(x^alpha) atoms
# at most this many shapes with every m_i = 1, and additive generators in the
# shape with every m_i = 2: n variables give 2^n of each, times m for the latter
DIMENSION_CAP = 64
CYCLIC, TRUNCATED = "cyclic", "truncated"  # x_i^{m_i} -> 1, x_i^{m_i} -> 0


def _omega(k: int) -> int:
    """Prime factors of k, counted with multiplicity."""
    count, p = 0, 2
    while p * p <= k:
        while k % p == 0:
            k //= p
            count += 1
        p += 1
    return count + (k > 1)


@dataclass(slots=True)
class FiniteModule:
    """rho on M's additive generators: L_{e_s} and X_i, integer matrices."""

    shape: tuple        # ((m_1, rule_1), ..., (m_n, rule_n))
    left: np.ndarray    # (m, D, D): L_{e_s}
    ops: list           # X_1..X_n, each (D, D)
    orders: np.ndarray  # (D,): order of each additive generator of M

    @property
    def length(self) -> int:
        return sum(_omega(int(k)) for k in self.orders)

    def reduce(self, P: np.ndarray) -> np.ndarray:
        return P % self.orders[:, None]

    def scalar(self, coords: np.ndarray) -> np.ndarray:
        """L_r for r with the given coordinates, or one L_r per row of coordinates: one contraction."""
        D = len(self.orders)
        flat = coords @ self.left.reshape(len(self.left), D * D)
        return self.reduce(flat.reshape(coords.shape[:-1] + (D, D)))

    def monomial(self, alpha: tuple) -> np.ndarray:
        """rho(x^alpha) = X_1^alpha_1 ... X_n^alpha_n, by binary powering."""
        D = len(self.orders)
        out = np.eye(D, dtype=np.int64) % self.orders[:, None]
        for X, e in zip(self.ops, alpha):
            base = X
            while e:
                if e & 1:
                    out = self.reduce(out @ base)
                e >>= 1
                if e:
                    base = self.reduce(base @ base)
        return out


def shape_module(A: ExtensionPresentation, shape: tuple, products: Optional[dict] = None) -> FiniteModule:
    """M = sum_{alpha < m} R x^alpha with each x_i^{m_i} reduced by its rule.

    `products` maps (i, alpha) to the engine's products x_i (e_t x^alpha),
    one per generator e_t; it is filled on first use, so shapes that share
    it make each product once.  Only the reduction depends on the shape.
    """
    base = A.base
    m = base.m
    alphas = list(itertools.product(*(range(mi) for mi, _ in shape)))
    pos = {alpha: k for k, alpha in enumerate(alphas)}
    D = len(alphas) * m
    orders = np.tile(np.array(base.orders, dtype=np.int64), len(alphas))
    elems = base.elements_array
    gens = [base.generator(t).index for t in range(m)]
    products = {} if products is None else products
    ops = []
    for i in range(A.n):
        xi = {tuple(int(t == i) for t in range(A.n)): A._one}
        X = np.zeros((D, D), dtype=np.int64)
        for alpha in alphas:
            row = products.get((i, alpha))
            if row is None:
                row = products[(i, alpha)] = [A._mul_terms(xi, {alpha: et}) for et in gens]
            for t, terms in enumerate(row):
                for gamma, c in terms.items():
                    # cyclic exponents wrap; a truncated one past m_i falls outside pos, and the term is 0
                    k = pos.get(tuple(g % mi if rule == CYCLIC else g for g, (mi, rule) in zip(gamma, shape)))
                    if k is not None:
                        X[k * m : (k + 1) * m, pos[alpha] * m + t] += elems[c]
        ops.append(X % orders[:, None])
    # L_{e_s} = C[s]^T on each coefficient block: entry (u, t) is coordinate u of e_s e_t
    left = np.einsum("ab,stu->saubt", np.eye(len(alphas), dtype=np.int64), base.constants).reshape(m, D, D)
    return FiniteModule(shape, left, ops, orders)


def is_module(A: ExtensionPresentation, M: FiniteModule) -> bool:
    """Relations (1) on the generators e_s and (2) for every i < j, exactly.

    Each family is one contraction: (1) for X_i on every e_s at once, and
    (2) for x_j x_i on every term of its relation at once.  The checks stop
    at the first relation that fails.
    """
    elems = A.base.elements_array
    gens = [A.base.generator(t).index for t in range(A.base.m)]
    for i, X in enumerate(M.ops):
        lhs = M.reduce(X @ M.left)  # (m, D, D): X_i L_{e_s}
        sig, dlt = A._sig[i], A._del[i]
        rhs = M.scalar(elems[[sig[e] for e in gens]]) @ X + M.scalar(elems[[dlt[e] for e in gens]])
        if not np.array_equal(lhs, M.reduce(rhs)):
            return False
    for (i, j), rel in A._rel.items():
        lhs = M.reduce(M.ops[j] @ M.ops[i])
        coefs, monos = M.scalar(elems[[c for _, c in rel]]), np.stack([M.monomial(gamma) for gamma, _ in rel])
        if not np.array_equal(lhs, M.reduce((coefs @ monos).sum(axis=0))):
            return False
    return True


class FiniteModules:
    """The catalogue modules of one presentation, and the decisions made with them.

    `modules` are the candidates of the module docstring that pass
    `is_module`.  rho is linear in a polynomial's coordinates,
    rho(f) = sum_{alpha,s} f_{alpha,s} L_{e_s} rho(x^alpha), so a batch of
    coordinate rows over fixed monomials is decided by one contraction
    against the atoms L_{e_s} rho(x^alpha) and then ceil(log2 L) batched
    squarings (`decide`), module after module, each taking only the rows
    that the modules before it left open.  One polynomial (`certifies`)
    takes the same path without the batch: rho(f) is the sum of the images
    rho(c x^alpha) = L_c rho(x^alpha) of its terms, each formed from c's
    coordinates and the atoms of alpha, and the same squaring routine
    decides it.  The atoms are cached per store, at most ATOM_CACHE_CAP of
    them, and the cache is emptied when full.

    The invariant J(R) and its t are found when the store is made; the
    shapes are built, and checked by `is_module`, only when `decide` or
    `certifies` first reaches them (`_module`).  Both walk the catalogue in
    order, so the shapes built are always its first ones, and module k is
    the same module whenever it is built.  `width` bounds the matrix entries
    of a row over every candidate shape, built or not.  The store reaches
    the presentation through a weak reference only.
    """

    def __init__(self, A: ExtensionPresentation):
        A._require_verified()
        shapes = []
        if 2**A.n <= DIMENSION_CAP:
            shapes += itertools.product(((1, TRUNCATED), (1, CYCLIC)), repeat=A.n)
        if 2**A.n * A.base.m <= DIMENSION_CAP:
            shapes.append(((2, CYCLIC),) * A.n)
        self._shapes = shapes  # the candidates not built yet, in catalogue order
        self._presentation = weakref.ref(A)
        self._products: dict = {}  # x_i (e_t x^alpha), the same for every shape
        self._modules: list = []  # the modules among the candidates built so far
        self._elems = A.base.elements_array.astype(np.float64)
        self._m = A.base.m
        self._orders: list = []
        self._steps: list = []
        self._tops: list = []
        # matrix entries per row: D = prod(m_i) m for a shape
        self.width = max((math.prod(mi for mi, _ in shape) ** 2 * self._m**2 for shape in shapes), default=1)
        self._atoms: dict = {}  # (module, alpha) -> (m, D * D) float64 L_{e_s} rho(x^alpha)
        # J(R) and the least t with J(R)^t = 0 when J(R) is Sigma-Delta-invariant, else None
        J = jacobson_radical(A.base)
        invariant = all(invariance(J, A.system, kind).holds for kind in (SIGMA_INVARIANT, DELTA_INVARIANT))
        self.jacobson_mask: Optional[np.ndarray] = J.mask if invariant else None
        self.nil_index: Optional[int] = jacobson_index(A.base) if invariant else None

    def _module(self, k: int) -> Optional[FiniteModule]:
        """Module k of the catalogue, building candidates in order until it exists; None past the last."""
        while len(self._modules) <= k and self._shapes:
            A = self._presentation()
            if A is None:
                raise ReferenceError("the presentation of this module store is gone: its shapes cannot be built")
            M = shape_module(A, self._shapes.pop(0), self._products)
            if is_module(A, M):
                self._modules.append(M)
                self._orders.append(M.orders.astype(np.float64)[:, None])
                self._steps.append((M.length - 1).bit_length())  # ceil(log2 L)
                self._tops.append(float(M.orders.max() - 1))  # largest reduced entry
        if not self._shapes:
            self._products = {}
        return self._modules[k] if k < len(self._modules) else None

    @property
    def modules(self) -> list:
        """Every catalogue module, each candidate built and checked."""
        self._module(len(self._shapes) + len(self._modules))
        return self._modules

    def _atom(self, k: int, alpha: tuple) -> np.ndarray:
        key = (k, alpha)
        hit = self._atoms.get(key)
        if hit is None:
            M = self._module(k)
            hit = M.reduce(M.left @ M.monomial(alpha)).reshape(self._m, -1).astype(np.float64)
            _cache_put(self._atoms, key, hit, ATOM_CACHE_CAP)
        return hit

    def images(self, k: int, X: np.ndarray, monos: Sequence[tuple]) -> np.ndarray:
        """rho_k(f), reduced, for coordinate rows X over `monos`: (B, D, D)."""
        D = len(self._module(k).orders)
        P = np.concatenate([self._atom(k, alpha) for alpha in monos])
        # fmod is the remainder on these nonnegative integers, and far cheaper than %
        return np.fmod((X @ P).reshape(len(X), D, D), self._orders[k])

    def _top_power(self, k: int, R: np.ndarray) -> np.ndarray:
        """rho_k(f)^(2^s), reduced, with 2^s >= L, for reduced images R (B, D, D).

        rho_k(f) is nilpotent exactly when this power is 0.  Rows are reduced
        only when the next squaring could leave the exact float64 range: any
        integer representatives of the entries give the same map, so one
        reduction at the end suffices otherwise.  R is reduced in place, so
        it must be an array that no cache holds.
        """
        orders, top = self._orders[k], self._tops[k]
        D, bound = len(orders), top
        for _ in range(self._steps[k]):
            if D * bound * bound >= 2**53:
                np.fmod(R, orders, out=R)
                bound = top
            R = np.matmul(R, R)
            bound = D * bound * bound
        return np.fmod(R, orders, out=R)

    def decide(self, K: np.ndarray, monos: Sequence[tuple]) -> np.ndarray:
        """For element-index rows K over `monos`: does some module prove the row's f not nilpotent?

        Rows in the invariant J(R)<x> are not; the others go module after
        module, each taking only the rows the ones before it left open.
        """
        X = self._elems[K].reshape(len(K), K.shape[1] * self._m)
        out = np.zeros(len(K), dtype=bool)
        todo = np.arange(len(K))
        if self.jacobson_mask is not None:
            todo = np.flatnonzero(~self.jacobson_mask[K].all(axis=1))
        k = 0
        while len(todo) and self._module(k) is not None:
            power = self._top_power(k, self.images(k, X[todo], monos))
            hit = power.reshape(len(todo), -1).any(axis=1)
            out[todo[hit]] = True
            todo = todo[~hit]
            k += 1
        return out

    def certifies(self, f: SkewPolynomial) -> bool:
        """`decide` on f's row alone: does some module prove f not nilpotent?"""
        terms = f.terms
        if not terms or self.jacobson_mask is not None and all(self.jacobson_mask[c] for c in terms.values()):
            return False
        elems = self._elems
        k = 0
        while self._module(k) is not None:
            orders = self._orders[k]
            R = None
            for alpha, c in terms.items():
                image = elems[c] @ self._atom(k, alpha)
                R = image if R is None else np.add(R, image, out=R)
            R = np.fmod(R.reshape(1, len(orders), -1), orders)
            if np.count_nonzero(self._top_power(k, R)):
                return True
            k += 1
        return False


def finite_modules(A: ExtensionPresentation) -> FiniteModules:
    """A's module store, built on first use."""
    if A._modules is None:
        A._modules = FiniteModules(A)
    return A._modules
