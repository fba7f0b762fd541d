"""Normal-form arithmetic in A = sigma(R)<x_1,...,x_n>.

Elements are finite maps from multi-indices to left coefficients.  Products
are computed by rewriting: coefficients are pushed through variables with
x_i r = sigma_i(r) x_i + delta_i(r), and out-of-order variable pairs are
swapped with x_j x_i = d_ij x_i x_j + t0 + sum_k t_k x_k.

Termination of the rewriting is measured lexicographically by
(total degree, inversion count of the variable word): sigma-pushes and d-swaps
keep the degree and strictly reduce inversions, while delta-pushes and tail
branches strictly reduce the degree.

The cost of a product is lopsided.  For each term x^alpha of the left factor,
x^alpha is pushed past the right factor's coefficients (up to |alpha| + 1
terms when delta != 0) and x^alpha x^beta is reordered one junction at a
time, through x^(alpha - e_j); both grow with deg alpha and make cache keys
per alpha.  So a long chain of products should keep its short factor on the
left.

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
    TooLarge,
    Unverified,
    ZeroD,
)
from .maps import SigmaSystem, multi_indices
from .rings import FiniteRing, RingElement

CACHE_CAP = 1 << 18  # entries in each of _push_cache and _mono_cache
TABLE_ENTRIES = 1 << 24  # entries of an atom table, or of one block of its value rows


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

    @classmethod
    def _nonzero(cls, ext: "ExtensionPresentation", terms: dict) -> "SkewPolynomial":
        """The polynomial of `terms`, whose coefficients are all nonzero already: no filter, no copy."""
        f = cls.__new__(cls)
        f.ext, f.terms, f._hash = ext, terms, None
        return f

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
        self._leading: dict = {}  # alpha -> probes._leading_chain_row, bounded by probes.LEADING_CACHE_CAP
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
        """Normal form of x^alpha * x^beta as {gamma: coefficient index}.

        A junction x_j x_i with j > i is rewritten by its relation, which
        needs the normal forms of smaller products first (the termination
        order of the module docstring).  Each such product is a frame of
        `_reorder` on an explicit stack: a frame yields the product it needs
        and is sent its normal form back, so a reordering of any degree
        fits, with no recursion.
        """
        out = self._mono_ready(alpha, beta)
        if out is not None:
            return out
        stack = [self._reorder(alpha, beta)]
        value = None
        while True:
            try:
                need = stack[-1].send(value)
            except StopIteration as done:
                stack.pop()
                if not stack:
                    return done.value
                value = done.value
                continue
            value = self._mono_ready(*need)
            if value is None:
                stack.append(self._reorder(*need))

    def _mono_ready(self, alpha: tuple, beta: tuple) -> Optional[dict]:
        """x^alpha * x^beta when it is cached or has no junction to rewrite, else None."""
        if alpha == self._zero_exp:
            return {beta: self._one}
        if beta == self._zero_exp:
            return {alpha: self._one}
        hit = self._mono_cache.get((alpha, beta))
        if hit is not None:
            return hit
        j = max(t for t in range(self.n) if alpha[t] > 0)
        i = min(t for t in range(self.n) if beta[t] > 0)
        if j > i:
            return None
        out = {tuple(a + b for a, b in zip(alpha, beta)): self._one}
        _cache_put(self._mono_cache, (alpha, beta), out)
        return out

    def _reorder(self, alpha: tuple, beta: tuple):
        """Frame of `_mono` at the junction x_j x_i, j > i: substitute the defining relation.

        x^alpha x^beta = x^left (x_j x_i) x^right = sum over the relation's
        terms c x^grel of x^left c (x^grel x^right).  Yields each product of
        monomials whose normal form it needs and is not ready; returns, and
        caches, the normal form.
        """
        j = max(t for t in range(self.n) if alpha[t] > 0)
        i = min(t for t in range(self.n) if beta[t] > 0)
        left = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :]
        right = beta[:i] + (beta[i] - 1,) + beta[i + 1 :]
        mul = self._mul
        add = self._add
        out = {}
        for grel, c in self._rel[(i, j)]:
            tail = self._mono_ready(grel, right)
            if tail is None:
                tail = yield (grel, right)
            for delta, cd in tail.items():
                c2 = mul[c][cd]
                if not c2:
                    continue
                for gam, cp in self._push(left, c2).items():
                    head = self._mono_ready(gam, delta)
                    if head is None:
                        head = yield (gam, delta)
                    for eps, ce in head.items():
                        coeff = mul[cp][ce]
                        if not coeff:
                            continue
                        prev = out.get(eps, 0)
                        out[eps] = add[prev][coeff] if prev else coeff
        out = {g: c for g, c in out.items() if c}
        _cache_put(self._mono_cache, (alpha, beta), out)
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


class AtomTable:
    """The element-index atom table Q[gamma][alpha][c] = x^gamma (c x^alpha).

    `monos` are the monomials of the bounded polynomials; every row of Q is
    a polynomial written as element indices over `out_monos`, the monomials
    that the products of `monos` use.  By biadditivity every product of
    two polynomials supported on `monos` lies on them.

    The table is built once, from the m generator products
    x^gamma (e_t x^alpha) of the rewriting engine: c = sum_t c_t e_t with
    integer coordinates c_t, and x^gamma (c x^alpha) is additive in c, so
    its coordinates are sum_t c_t times those of x^gamma (e_t x^alpha),
    reduced modulo the additive orders.  Additively A is the direct sum of
    the Z_{k_u} e_u x^w (Mon(A) is a left basis), so that reduction is the
    product whatever integer stands for c_t: k_t e_t = 0.  The contraction
    is exact in int64, each sum being below m k^2 with k the largest order.
    So `_mul_terms` stays the only definition of the multiplication.

    Everything a scan does with a factor f is then a gather from the ring's
    int16 index tables, with no coordinates and no modulus, and every value
    row is int16, as the tables are:

      - left values  VL_f[alpha][c] = c (x^alpha f), since a left scalar
        acts on a normal form coefficient by coefficient, and
        x^alpha f = sum_beta Q[alpha][beta][f_beta]: the rows for every c
        at once are one column gather of the multiplication table at
        x^alpha f;
      - right values VR_f[alpha][c] = f (c x^alpha)
        = sum_beta f_beta Q[beta][alpha][c]: each term f_beta Q[beta] is a
        gather from row f_beta of the multiplication table.

    Neither forms a flat index over the whole output; only the slot sums of
    factors with two or more terms go through the addition table's flat
    index (`plus`).  For h = sum_alpha h_alpha x^alpha,
    h f = sum_alpha VL_f[alpha][h_alpha] and
    f h = sum_alpha VR_f[alpha][h_alpha]: the add-table sum of one value
    row per support slot of h.

    The scans need few of those sums.  When J = J(R) is invariant under
    every sigma_i and delta_i, J<x> is a two-sided ideal of A whose elements
    are nilpotent (proof at probes._probe_rows), so every product of a
    factor f in J<x> is a nilpotent closure check unless it is 0.  And
    h f = 0 exactly when the value row of h's last slot is the negated sum
    of the rows of its other slots: `probes._zero_ranges` finds those h as
    ranges of sorted keys of the negated partial sums of each prefix, and
    no product row is formed.  Q, and every block of value rows the scans
    allocate, is checked against TABLE_ENTRIES before it is allocated.
    """

    def __init__(self, A: "ExtensionPresentation", monos: Sequence[tuple]):
        A._require_verified()
        base = A.base
        self.A = A
        self.monos = list(monos)
        L, R, m = len(self.monos), base.size, base.m
        # the rewriting never raises the degree, so every product lies in
        # degree <= 2 max|alpha|: bound the table before any product is made
        top = 2 * max(sum(alpha) for alpha in self.monos)
        entries = L * L * R * len(multi_indices(A.n, 0, top))
        if entries > TABLE_ENTRIES:
            raise TooLarge(entries, TABLE_ENTRIES, "atom table")
        gens = [base.generator(t).index for t in range(m)]
        products = [
            [[A._mul_terms({gamma: A._one}, {alpha: e}) for e in gens] for alpha in self.monos]
            for gamma in self.monos
        ]
        self.out_monos = sorted(
            {g for row in products for col in row for p in col for g in p}, key=lambda a: (sum(a), a)
        )
        col = {gamma: k for k, gamma in enumerate(self.out_monos)}
        W = len(self.out_monos)
        elems = base.elements_array
        T = np.zeros((L, L, m, W, m), dtype=np.int64)  # coordinates of x^gamma (e_t x^alpha)
        for g, row in enumerate(products):
            for a, gen_products in enumerate(row):
                for t, p in enumerate(gen_products):
                    for gamma, c in p.items():
                        T[g, a, t, col[gamma]] = elems[c]
        orders = np.array(base.orders, dtype=np.int64)
        self.Q = np.empty((L, L, R, W), dtype=np.int16)
        for g in range(L):
            self.Q[g] = (np.einsum("ct,atwu->acwu", elems, T[g]) % orders) @ base._strides
        self.width = W
        self.size = R
        self._mul_table = base.mul_table
        self._mul = base.mul_table.ravel()
        # a view in memory order: + is commutative, so either order holds a + b at a * R + b
        self._add = base.add_table.ravel(order="K")

    def plus(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise sum of two arrays of element indices, by the flat addition table."""
        return self._add[np.add(np.multiply(a, self.size, dtype=np.intp), b, dtype=np.intp)]

    def times(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise product a * b of two arrays of element indices, by the flat multiplication table."""
        return self._mul[np.add(np.multiply(a, self.size, dtype=np.intp), b, dtype=np.intp)]

    def _slot_sum(self, K: np.ndarray, shape: tuple, term) -> np.ndarray:
        """Per key row of K, the add-table sum over its support slots b of term(rows, b), in int16.

        term(rows, b) is the value of slot b for the key rows `rows`, which
        all have a nonzero coefficient there; slots with coefficient 0
        contribute 0 and are skipped.
        """
        out = np.zeros((len(K),) + shape, dtype=np.int16)
        written = np.zeros(len(K), dtype=bool)  # rows holding a slot's value: the others hold 0
        for b in range(len(self.monos)):
            rows = np.flatnonzero(K[:, b])
            if len(rows):
                value = term(rows, b)
                out[rows] = self.plus(out[rows], value) if written[rows].any() else value
                written[rows] = True
        return out

    def left_values(self, K: np.ndarray) -> np.ndarray:
        """VL[f][alpha][c] = c (x^alpha f) for the factors with key rows K: (len(K), L, R, W), int16.

        x^alpha f is an add-table sum of rows of Q; then every c at once is
        one column gather of the multiplication table at x^alpha f, whose
        axis of c is moved into place as a view.
        """
        L, W = len(self.monos), self.width
        xf = self._slot_sum(K, (L, W), lambda rows, b: self.Q[:, b, K[rows, b]].transpose(1, 0, 2))
        return np.moveaxis(self._mul_table[:, xf], 0, 2)

    def right_values(self, K: np.ndarray) -> np.ndarray:
        """VR[f][alpha][c] = f (c x^alpha) for the factors with key rows K: (len(K), L, R, W), int16.

        The term f_b Q[b] of slot b is a gather from row f_b of the
        multiplication table, for every factor with that slot at once.
        """
        Q = self.Q
        return self._slot_sum(K, Q.shape[1:], lambda rows, b: self._mul_table[K[rows, b]][:, Q[b]])

    def products(self, V: np.ndarray, K: np.ndarray) -> np.ndarray:
        """Rows sum_alpha V[alpha][K[:, alpha]]: h f (V = VL_f) or f h (V = VR_f) per key row h."""
        return self._slot_sum(K, (self.width,), lambda rows, a: V[a, K[rows, a]])

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
    The generators are element indices and a b is read from the
    multiplication table; elements are built only for a failure's message.
    """
    base = A.base
    n = A.n
    gens = [base.generator(t).index for t in range(base.m)]
    mul = A._mul

    def var_terms(i: int) -> dict:
        e = [0] * n
        e[i - 1] = 1
        return {tuple(e): A._one}

    def scalar_terms(r: int) -> dict:
        return {A._zero_exp: r} if r else {}

    def render(terms: dict) -> str:
        return SkewPolynomial(A, terms).to_expr()

    for i in range(1, n + 1):
        Xi = var_terms(i)
        for a in gens:
            xa = A._mul_terms(Xi, scalar_terms(a))
            for b in gens:
                lhs = A._mul_terms(Xi, scalar_terms(mul[a][b]))
                rhs = A._mul_terms(xa, scalar_terms(b))
                if lhs != rhs:
                    pair = (repr(base.element_from_index(a)), repr(base.element_from_index(b)))
                    raise OverlapFails("coefficient", (i, *pair), render(lhs), render(rhs))

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
