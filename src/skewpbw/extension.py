"""Normal-form arithmetic in A = sigma(R)<x_1,...,x_n>.

Elements are finite maps from multi-indices to left coefficients.  Products
are computed by rewriting: coefficients are pushed through variables with
x_i r = sigma_i(r) x_i + delta_i(r), and out-of-order variable pairs are
swapped with x_j x_i = d_ij x_i x_j + t0 + sum_k t_k x_k.

Termination of the rewriting recursion is measured lexicographically by
(total degree, inversion count of the variable word): sigma-pushes and d-swaps
keep the degree and strictly reduce inversions, while delta-pushes and tail
branches strictly reduce the degree.

The cost of a product is lopsided.  For each term x^alpha of the left factor,
x^alpha is pushed past the right factor's coefficients (up to |alpha| + 1
terms when delta != 0) and x^alpha x^beta is reordered by recursion on alpha;
both grow with deg alpha and make cache keys per alpha.  So a long chain of
products should keep its short factor on the left.

Presentations are verified before any arithmetic is allowed: the overlap
checks below are the finite diamond-lemma conditions that make the rewriting
confluent, i.e. the multiplication associative and Mon(A) a left basis.
Arbitrary input data need not be consistent, so verification is mandatory.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .errors import (
    NonInjectiveSigma,
    OverlapFails,
    ShapeMismatch,
    Unverified,
    ZeroD,
)
from .maps import SigmaSystem
from .rings import FiniteRing, RingElement

CACHE_CAP = 1 << 18  # entries in each of _push_cache and _mono_cache


def _cache_put(cache: dict, key, value, cap: Optional[int] = None) -> None:
    """Insert into a cache of at most `cap` (default CACHE_CAP) entries, emptying it first if it is full.

    Callers only read the cached values, so a value handed out before the
    clear stays valid; the cache just forgets it.
    """
    if len(cache) >= (CACHE_CAP if cap is None else cap):
        cache.clear()
    cache[key] = value


class SkewPolynomial:
    """Element of A in normal form: multi-index -> left coefficient index."""

    __slots__ = ("ext", "terms", "_hash")

    def __init__(self, ext: "ExtensionPresentation", terms: dict):
        self.ext = ext
        self.terms = {a: c for a, c in terms.items() if c != 0}
        self._hash = None

    # -- inspection ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self):
        if not self.terms:
            return -math.inf
        return max(sum(a) for a in self.terms)

    def coefficient(self, alpha: Sequence[int]) -> RingElement:
        idx = self.terms.get(tuple(alpha), 0)
        return self.ext.base.element_from_index(idx)

    def coefficients(self) -> dict:
        base = self.ext.base
        return {a: base.element_from_index(c) for a, c in self.terms.items()}

    # -- arithmetic -------------------------------------------------------------

    def _require_same(self, other: "SkewPolynomial") -> None:
        if self.ext is not other.ext:
            raise ShapeMismatch("polynomials live over different presentations")

    def __add__(self, other: "SkewPolynomial") -> "SkewPolynomial":
        self._require_same(other)
        self.ext._require_verified()
        add = self.ext._add
        out = dict(self.terms)
        for a, c in other.terms.items():
            out[a] = add[out.get(a, 0)][c]
        return SkewPolynomial(self.ext, out)

    def __neg__(self) -> "SkewPolynomial":
        self.ext._require_verified()
        neg = self.ext._neg
        return SkewPolynomial(self.ext, {a: neg[c] for a, c in self.terms.items()})

    def __sub__(self, other: "SkewPolynomial") -> "SkewPolynomial":
        return self + (-other)

    def __mul__(self, other: "SkewPolynomial") -> "SkewPolynomial":
        self._require_same(other)
        self.ext._require_verified()
        return SkewPolynomial(self.ext, self.ext._mul_terms(self.terms, other.terms))

    def __pow__(self, k: int) -> "SkewPolynomial":
        self.ext._require_verified()
        if k < 0:
            raise ValueError("negative powers are not defined")
        result = self.ext.one_poly()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SkewPolynomial)
            and self.ext is other.ext
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    # -- rendering ----------------------------------------------------------------

    def to_expr(self) -> str:
        if not self.terms:
            return "0"
        base = self.ext.base
        n = self.ext.n
        parts = []
        for alpha in sorted(self.terms, key=lambda a: (sum(a), a), reverse=True):
            coeff = base.element_from_index(self.terms[alpha])
            cs = repr(coeff)
            if all(e == 0 for e in alpha):
                parts.append(cs)
                continue
            factors = []
            for i, e in enumerate(alpha):
                if e == 0:
                    continue
                var = "x" if n == 1 else f"x{i + 1}"
                factors.append(f"{var}^{e}")
            parts.append(cs + "*" + "*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return self.to_expr()


class ExtensionPresentation:
    """The data defining A = sigma(R)<x_1,...,x_n> plus verification status."""

    def __init__(
        self,
        base: FiniteRing,
        system: SigmaSystem,
        d: Optional[dict] = None,
        tails: Optional[dict] = None,
        name: str = "",
    ):
        if system.ring is not base:
            raise ShapeMismatch("system acts on a different ring")
        self.base = base
        self.system = system
        self.n = system.n
        self.name = name or f"A({base.name};n={self.n})"
        for i, s in enumerate(system.sigmas):
            if not s.injective:
                raise NonInjectiveSigma(i + 1)

        self.d: dict = {}
        self.tails: dict = {}
        d = d or {}
        tails = tails or {}
        one = base.one
        zero = base.zero
        for (i, j) in d:
            self._check_pair(i, j)
        for (i, j) in tails:
            self._check_pair(i, j)
        for i in range(1, self.n + 1):
            for j in range(i + 1, self.n + 1):
                dv = d.get((i, j), one)
                if not isinstance(dv, RingElement) or dv.ring is not base:
                    raise ShapeMismatch(f"d_{{{i},{j}}} must be an element of the base ring")
                if dv.is_zero:
                    raise ZeroD(i, j)
                t0, lin = tails.get((i, j), (zero, tuple([zero] * self.n)))
                lin = tuple(lin)
                if len(lin) != self.n:
                    raise ShapeMismatch(f"tail of ({i},{j}) must have {self.n} linear coefficients")
                for t in (t0, *lin):
                    if not isinstance(t, RingElement) or t.ring is not base:
                        raise ShapeMismatch("tail coefficients must be elements of the base ring")
                self.d[(i, j)] = dv
                self.tails[(i, j)] = (t0, lin)

        # classification flags, straight from the data
        self.derivation_type = system.all_sigma_identity
        self.endomorphism_type = not system.has_nontrivial_delta
        self.quasi_commutative = self.endomorphism_type and all(
            t0.is_zero and all(t.is_zero for t in lin) for t0, lin in self.tails.values()
        )
        units = base.units_mask
        self.bijective = all(s.injective for s in system.sigmas) and all(
            bool(units[dv.index]) for dv in self.d.values()
        )
        self.verified = False

        # index-level kernels for the rewriting loops
        mul_rows, add_rows, neg_list = base.index_rows()
        self._mul = mul_rows
        self._add = add_rows
        self._neg = neg_list
        self._one = base.one_index
        self._sig = [s.index_list for s in system.sigmas]
        self._del = [d_.index_list for d_ in system.deltas]
        self._zero_exp = (0,) * self.n
        self._rel: dict = {}
        for (i, j), dv in self.d.items():
            t0, lin = self.tails[(i, j)]
            rel = {}
            eij = list(self._zero_exp)
            eij[i - 1] += 1
            eij[j - 1] += 1
            rel[tuple(eij)] = dv.index
            if not t0.is_zero:
                rel[self._zero_exp] = t0.index
            for k, tk in enumerate(lin):
                if not tk.is_zero:
                    ek = list(self._zero_exp)
                    ek[k] += 1
                    rel[tuple(ek)] = tk.index
            self._rel[(i - 1, j - 1)] = list(rel.items())
        self._push_cache: dict = {}
        self._mono_cache: dict = {}
        self._graded_profiles: dict = {}
        self._modules = None  # modules.FiniteModules, built on first use

    def _check_pair(self, i: int, j: int) -> None:
        if not (1 <= i < j <= self.n):
            raise ShapeMismatch(f"relation pair ({i},{j}) must satisfy 1 <= i < j <= n")

    # -- constructors -------------------------------------------------------------

    def zero_poly(self) -> SkewPolynomial:
        return SkewPolynomial(self, {})

    def one_poly(self) -> SkewPolynomial:
        return SkewPolynomial(self, {self._zero_exp: self._one})

    def scalar(self, r: RingElement) -> SkewPolynomial:
        if r.ring is not self.base:
            raise ShapeMismatch("coefficient from a different ring")
        return SkewPolynomial(self, {self._zero_exp: r.index})

    def variable(self, i: int) -> SkewPolynomial:
        if not (1 <= i <= self.n):
            raise ShapeMismatch(f"variable index {i} out of range")
        e = list(self._zero_exp)
        e[i - 1] = 1
        return SkewPolynomial(self, {tuple(e): self._one})

    def monomial(self, alpha: Sequence[int], coeff: Optional[RingElement] = None) -> SkewPolynomial:
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.n or any(a < 0 for a in alpha):
            raise ShapeMismatch("bad multi-index")
        c = self._one if coeff is None else coeff.index
        return SkewPolynomial(self, {alpha: c})

    def poly(self, terms: dict) -> SkewPolynomial:
        out = {}
        add = self._add
        for alpha, coeff in terms.items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != self.n or any(a < 0 for a in alpha):
                raise ShapeMismatch("bad multi-index")
            idx = coeff.index if isinstance(coeff, RingElement) else int(coeff)
            out[alpha] = add[out.get(alpha, 0)][idx]
        return SkewPolynomial(self, out)

    def _require_verified(self) -> None:
        if not self.verified:
            raise Unverified(f"presentation {self.name} has not been verified")

    # -- the rewriting core ----------------------------------------------------------

    def _push(self, alpha: tuple, r: int) -> dict:
        """Normal form of x^alpha * r as {gamma: coefficient index}.

        r is pushed through the factors of x^alpha from the right, with
        x_i (c x^gamma) = sigma_i(c) x^(gamma + e_i) + delta_i(c) x^gamma.  That
        is already in normal form, because gamma has no variable before x_i.
        A loop, not a recursion, so any degree fits.
        """
        if r == 0:
            return {}
        if alpha == self._zero_exp:
            return {alpha: r}
        key = (alpha, r)
        hit = self._push_cache.get(key)
        if hit is not None:
            return hit
        add = self._add
        terms = {self._zero_exp: r}
        for i in range(self.n - 1, -1, -1):
            sigma_i, delta_i = self._sig[i], self._del[i]
            for _ in range(alpha[i]):
                out: dict = {}
                for gamma, c in terms.items():
                    sig_c = sigma_i[c]
                    if sig_c:
                        g2 = gamma[:i] + (gamma[i] + 1,) + gamma[i + 1 :]
                        prev = out.get(g2, 0)
                        out[g2] = add[prev][sig_c] if prev else sig_c
                    del_c = delta_i[c]
                    if del_c:
                        prev = out.get(gamma, 0)
                        out[gamma] = add[prev][del_c] if prev else del_c
                terms = {g: c for g, c in out.items() if c}
        _cache_put(self._push_cache, key, terms)
        return terms

    def _mono(self, alpha: tuple, beta: tuple) -> dict:
        """Normal form of x^alpha * x^beta as {gamma: coefficient index}."""
        if alpha == self._zero_exp:
            return {beta: self._one}
        if beta == self._zero_exp:
            return {alpha: self._one}
        key = (alpha, beta)
        hit = self._mono_cache.get(key)
        if hit is not None:
            return hit
        j = max(t for t in range(self.n) if alpha[t] > 0)
        i = min(t for t in range(self.n) if beta[t] > 0)
        if j <= i:
            merged = tuple(a + b for a, b in zip(alpha, beta))
            out = {merged: self._one}
            _cache_put(self._mono_cache, key, out)
            return out
        # junction x_j x_i with j > i: substitute the defining relation
        left = list(alpha)
        left[j] -= 1
        left = tuple(left)
        right = list(beta)
        right[i] -= 1
        right = tuple(right)
        rel = self._rel[(i, j)]
        mul = self._mul
        add = self._add
        out = {}
        for grel, c in rel:
            for delta, cd in self._mono(grel, right).items():
                c2 = mul[c][cd]
                if not c2:
                    continue
                for gam, cp in self._push(left, c2).items():
                    for eps, ce in self._mono(gam, delta).items():
                        coeff = mul[cp][ce]
                        if not coeff:
                            continue
                        prev = out.get(eps, 0)
                        out[eps] = add[prev][coeff] if prev else coeff
        out = {g: c for g, c in out.items() if c}
        _cache_put(self._mono_cache, key, out)
        return out

    def _mul_terms(self, f: dict, g: dict) -> dict:
        mul = self._mul
        add = self._add
        out: dict = {}
        for alpha, a in f.items():
            for beta, b in g.items():
                for gamma, c in self._push(alpha, b).items():
                    ac = mul[a][c]
                    if not ac:
                        continue
                    for eps, e in self._mono(gamma, beta).items():
                        coeff = mul[ac][e]
                        if not coeff:
                            continue
                        prev = out.get(eps, 0)
                        out[eps] = add[prev][coeff] if prev else coeff
        return {g2: c for g2, c in out.items() if c}

    def __repr__(self) -> str:
        tags = [
            t
            for t, on in (
                ("quasi-commutative", self.quasi_commutative),
                ("derivation-type", self.derivation_type),
                ("endomorphism-type", self.endomorphism_type),
                ("bijective", self.bijective),
            )
            if on
        ]
        status = "verified" if self.verified else "unverified"
        return f"ExtensionPresentation({self.name}; {status}; {', '.join(tags) or 'general'})"


def coefficient_keys(polys: Sequence[SkewPolynomial], pos: dict) -> np.ndarray:
    """Coefficient element index per monomial, one row per poly; `pos` maps monomial -> column."""
    K = np.zeros((len(polys), len(pos)), dtype=np.int32)
    rows, cols, vals = [], [], []
    for r, f in enumerate(polys):
        for alpha, c in f.terms.items():
            rows.append(r)
            cols.append(pos[alpha])
            vals.append(c)
    K[rows, cols] = vals
    return K


class DenseProducts:
    """Batched products of polynomials supported on `monos`, as matmuls.

    A polynomial sum_alpha r_alpha x^alpha with every alpha in `monos` is a
    row of base coordinates with one block of m per monomial; block alpha
    holds the coordinates of r_alpha (`base.elements_array`).  The rewriting
    engine computes the atom tensor once,

        T[(alpha, s), (beta, t)] = x^alpha e_s * x^beta e_t,

    written over `out_monos`, the monomials its products use; by
    bilinearity every product of two such polynomials lies on them.  For a
    fixed f with row x_f, the map h -> h f has the matrix
    sum_{beta,t} x_f[beta,t] T[:, (beta,t)] and h -> f h the matrix
    sum_{alpha,s} x_f[alpha,s] T[(alpha,s), :]; a batch of products is one
    matmul followed by reduction of each output coordinate modulo its order.
    So `_mul_terms` stays the only definition of the multiplication.

    Why this is exact: additively A is the direct sum of the Z_{k_u} x^gamma
    e_u (Mon(A) is a left basis), and its multiplication is Z-bilinear.  An
    integer coordinate c of e_s stands for its class modulo k_s, and another
    representative c + q k_s changes the product by q (k_s e_s) y = 0.  So
    the integer contraction of both factors' coordinates against T, reduced
    coordinate by coordinate modulo k_u, is the product.  The matmuls run in
    float64, exact on integers below 2^53: every factor entry is a reduced
    coordinate below k = max(orders) <= TABLE_CAP, so no sum exceeds
    (L m) (k - 1)^2, which T's own L^2 m^2 entries keep far below 2^53.
    Results are reduced as integers, in int32 whenever that bound allows.
    """

    def __init__(self, A: "ExtensionPresentation", monos: Sequence[tuple]):
        A._require_verified()
        base = A.base
        self.A = A
        self.m = m = base.m
        self.monos = list(monos)
        self._pos = {alpha: i for i, alpha in enumerate(self.monos)}
        atoms = [(alpha, base.generator(s).index) for alpha in self.monos for s in range(m)]
        products = [[A._mul_terms({a: ea}, {b: eb}) for b, eb in atoms] for a, ea in atoms]
        self.out_monos = sorted({g for row in products for p in row for g in p}, key=lambda a: (sum(a), a))
        col = {gamma: k for k, gamma in enumerate(self.out_monos)}
        elems = base.elements_array
        T = np.zeros((len(atoms), len(atoms), len(self.out_monos), m), dtype=np.int16)
        for i, row in enumerate(products):
            for j, p in enumerate(row):
                for gamma, c in p.items():
                    T[i, j, col[gamma]] = elems[c]
        self._T = T.reshape(len(atoms), len(atoms), -1)
        orders = np.array(base.orders, dtype=np.int64)
        bound = len(atoms) * (int(orders.max()) - 1) ** 2
        self._acc = np.int32 if bound < 2**31 else np.int64
        self._in_orders = np.tile(orders, len(self.monos)).astype(self._acc)
        self._out_orders = np.tile(orders, len(self.out_monos)).astype(self._acc)
        self.width = self._T.shape[2]
        self._elems = elems.astype(np.float64)
        self._strides = base._strides.astype(self._acc)

    def keys(self, polys: Sequence[SkewPolynomial]) -> np.ndarray:
        """Coefficient element index per monomial of `monos`, one row per poly."""
        return coefficient_keys(polys, self._pos)

    def coords(self, keys: np.ndarray) -> np.ndarray:
        """Coordinate rows (float64 integers) of element-index rows."""
        return self._elems[keys].reshape(len(keys), -1)

    def index_keys(self, P: np.ndarray) -> np.ndarray:
        """Element-index rows of reduced integer coordinate rows."""
        return (P.reshape(len(P), -1, self.m) @ self._strides).astype(np.int32)

    def times(self, f: np.ndarray, side: str) -> np.ndarray:
        """Matrix of h -> h f (side 'right') or h -> f h ('left'), reduced.

        `f` is a coordinate row; only its nonzero columns are contracted.
        """
        nz = np.flatnonzero(f)
        block = self._T[:, nz] if side == "right" else self._T[nz]
        M = np.tensordot(block.astype(np.float64), f[nz], axes=([1 if side == "right" else 0], [0]))
        return M % self._out_orders

    def products(self, X: np.ndarray, M: np.ndarray) -> np.ndarray:
        """Reduced integer coordinate rows of the products X @ M."""
        return (X @ M).astype(self._acc) % self._out_orders

    def sums(self, X: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Reduced integer coordinate rows of the sums X + f."""
        return (X + f).astype(self._acc) % self._in_orders

    def poly(self, key: np.ndarray, monos: Sequence[tuple]) -> SkewPolynomial:
        """The polynomial of one element-index row over `monos`."""
        return SkewPolynomial(self.A, dict(zip(monos, key.tolist())))


def make_extension(
    base: FiniteRing,
    system: SigmaSystem,
    d: Optional[dict] = None,
    tails: Optional[dict] = None,
    name: str = "",
) -> ExtensionPresentation:
    """Assemble an unverified presentation with classification flags."""
    return ExtensionPresentation(base, system, d=d, tails=tails, name=name)


def verify_presentation(A: ExtensionPresentation) -> ExtensionPresentation:
    """Run the diamond-lemma overlap checks; raises OverlapFails on mismatch.

    (a) (x_j x_i) e = x_j (x_i e) for every additive generator e and i < j;
    (b) (x_k x_j) x_i = x_k (x_j x_i) for i < j < k;
    (c) x_i (a b) = (x_i a) b on generator pairs -- implied by the verified map
        laws, re-checked cheaply.
    On success the multiplication is associative and Mon(A) is a left basis.
    """
    base = A.base
    n = A.n
    gens = [base.generator(t) for t in range(base.m)]

    def var_terms(i: int) -> dict:
        e = [0] * n
        e[i - 1] = 1
        return {tuple(e): A._one}

    def scalar_terms(r: RingElement) -> dict:
        return {A._zero_exp: r.index} if r.index else {}

    def render(terms: dict) -> str:
        return SkewPolynomial(A, terms).to_expr()

    for i in range(1, n + 1):
        Xi = var_terms(i)
        for a in gens:
            xa = A._mul_terms(Xi, scalar_terms(a))
            for b in gens:
                lhs = A._mul_terms(Xi, scalar_terms(a * b))
                rhs = A._mul_terms(xa, scalar_terms(b))
                if lhs != rhs:
                    raise OverlapFails("coefficient", (i, repr(a), repr(b)), render(lhs), render(rhs))

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            Xi, Xj = var_terms(i), var_terms(j)
            xji = A._mul_terms(Xj, Xi)
            for t, e in enumerate(gens):
                lhs = A._mul_terms(xji, scalar_terms(e))
                rhs = A._mul_terms(Xj, A._mul_terms(Xi, scalar_terms(e)))
                if lhs != rhs:
                    raise OverlapFails("relation-coefficient", (i, j, f"e{t + 1}"), render(lhs), render(rhs))

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                Xi, Xj, Xk = var_terms(i), var_terms(j), var_terms(k)
                lhs = A._mul_terms(A._mul_terms(Xk, Xj), Xi)
                rhs = A._mul_terms(Xk, A._mul_terms(Xj, Xi))
                if lhs != rhs:
                    raise OverlapFails("relation-relation", (i, j, k), render(lhs), render(rhs))

    A.verified = True
    return A
