"""Bounded searches over skew polynomials: nilpotency, NI closure, Armendariz.

Nilpotency in A is only semi-decidable by power iteration, so probes return a
three-valued verdict instead of a boolean:

  * nilpotent(k)      -- f^k = 0 was computed, k minimal within the cap;
  * not_nilpotent     -- a sound certificate was found: in a bijective
                         presentation, a leading-coefficient chain that never
                         vanishes, so lc(f^k) != 0 for every k (reason
                         leading_chain; proof at _leading_chain_holds); or a
                         finite left A-module M whose rho(f) is not nilpotent,
                         decided by rho(f)^L != 0 with L the length of M
                         (reason finite_module; proof in the modules module);
  * unknown(cap)      -- neither certificate applies and f^k != 0 for every
                         k <= cap.

A proved nilpotent f is quasi-regular: quasi_regularity_witness sums the
series 1 - f + f^2 - ... until its term vanishes, within the exponent cap, and
checks the inverse of 1 + f by multiplication.

Enumeration order for all bounded searches is graded lexicographic on
(degree, support size, coefficient vectors), so witnesses are reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import BudgetExceeded, NotProvedNilpotent, TooLarge
from .extension import TABLE_ENTRIES, AtomTable, ExtensionPresentation, SkewPolynomial, _cache_put
from .maps import multi_indices
from .modules import finite_modules
from .rings import Ideal

DEFAULT_EXPONENT_CAP = 16
DEFAULT_PAIR_BUDGET = 10**6
BLOCK_ENTRIES = 1 << 22  # matrix entries per row block of a batched product
ROW_ENTRIES = 1 << 14  # entries per block of value, product, sum or cross-product rows
LEADING_CACHE_CAP = 1 << 8  # leading monomials alpha in a presentation's leading-chain table

NILPOTENT = "nilpotent"
NOT_NILPOTENT = "not_nilpotent"
UNKNOWN = "unknown"

LEADING_CHAIN = "leading_chain"
FINITE_MODULE = "finite_module"


@dataclass(slots=True)
class ProbeResult:
    status: str
    index: Optional[int] = None   # nilpotency index, set exactly when nilpotent
    reason: Optional[str] = None  # certificate when not nilpotent: leading_chain or finite_module
    cap: Optional[int] = None     # exponent cap, set exactly when unknown

    @property
    def proved_nilpotent(self) -> bool:
        return self.status == NILPOTENT

    @property
    def proved_not_nilpotent(self) -> bool:
        return self.status == NOT_NILPOTENT


def _leading_chain_holds(f: SkewPolynomial) -> bool:
    """Whether the orbit of c under b -> c sigma^alpha(b) never reaches 0.

    Here c x^alpha is the deglex-leading term of f.  In a bijective A this
    proves f^k != 0 for every k.  The lower terms of x^alpha r and x^alpha
    x^beta have smaller total degree and deglex is a monomial order, so the
    x^(k alpha)-coefficient of f f^(k-1) is
    a_k = c sigma^alpha(a_(k-1)) c_(alpha,(k-1)alpha), where c_(alpha,beta),
    the leading coefficient of x^alpha x^beta, is a product of sigma-images
    of the d_ij: a unit when A is bijective.  As sigma(1) = 1,
    induction gives a_k = b_k u_k with b_k the orbit and u_k a unit, so
    a_k = 0 iff b_k = 0, R commutative or not.  The orbit is eventually
    periodic, and a unit c has a unit orbit.  Bijectivity is needed: in
    Z_4[x1, x2] with x2 x1 = 2 x1 x2, lc = 1 yet (x1 x2)^3 = 0.

    The answer depends only on (alpha, c), so it is read from the row of
    alpha in the presentation's table (`_leading_chain_row`).
    """
    terms = f.terms
    alpha = max(terms, key=lambda a: (sum(a), a))
    return _leading_chain_row(f.ext, alpha)[terms[alpha]]


def _leading_chain_row(A: ExtensionPresentation, alpha: tuple) -> list:
    """Per coefficient c: whether the orbit of c under T_c(b) = c sigma^alpha(b) avoids 0.

    Built on first use and cached on A.  A unit c answers True.  The orbits
    of the other c run side by side, with Floyd's two pointers x_k and
    x_2k, until each pair meets: then x_k lies on the orbit's cycle, which
    holds 0 exactly when the orbit reaches 0, since T_c(0) = 0.  Each pair
    meets within |R| steps.
    """
    row = A._leading.get(alpha)
    if row is None:
        mul, units = A.base.mul_table, A.base.units_mask
        sigma = A.system.sigma_power(alpha)
        out = units.copy()
        c = np.flatnonzero(~units)
        slow = mul[c, sigma[c]]
        fast = mul[c, sigma[slow]]
        while len(c):
            met = slow == fast
            out[c[met]] = slow[met] != 0
            c, slow, fast = c[~met], slow[~met], fast[~met]
            slow = mul[c, sigma[slow]]
            fast = mul[c, sigma[mul[c, sigma[fast]]]]
        row = out.tolist()
        _cache_put(A._leading, alpha, row, LEADING_CACHE_CAP)
    return row


def nilpotency_probe(f: SkewPolynomial, exponent_cap: int = DEFAULT_EXPONENT_CAP) -> ProbeResult:
    """The certificate ladder, see module docstring: the leading chain, then
    the finite modules, then power iteration up to the cap."""
    A = f.ext
    A._require_verified()
    if f.is_zero:
        return ProbeResult(NILPOTENT, index=1)
    if A.bijective and _leading_chain_holds(f):
        return ProbeResult(NOT_NILPOTENT, reason=LEADING_CHAIN)
    if finite_modules(A).certifies(f):
        return ProbeResult(NOT_NILPOTENT, reason=FINITE_MODULE)
    return _power_chain(f, exponent_cap)


def _power_chain(f: SkewPolynomial, exponent_cap: int) -> ProbeResult:
    """nilpotent(k) for the least k <= exponent_cap with f^k = 0, else unknown.

    Powers are built as f^k = f * f^(k-1), with the short fixed factor on the
    left.  By associativity and the uniqueness of the PBW normal form this is
    the same element as f^(k-1) * f, but it is far cheaper: the rewriting
    product pays for the degree of its left factor (see the extension module),
    so the growing power belongs on the right.
    """
    current = f
    for k in range(2, exponent_cap + 1):
        current = f * current
        if current.is_zero:
            return ProbeResult(NILPOTENT, index=k)
    return ProbeResult(UNKNOWN, cap=exponent_cap)


def quasi_regularity_witness(f: SkewPolynomial, exponent_cap: int = DEFAULT_EXPONENT_CAP) -> SkewPolynomial:
    """For proved-nilpotent f, the finite geometric inverse of 1 + f.

    Sums g = sum_{j<k} (-f)^j, building each term as (-f) times the last,
    until the term (-f)^k vanishes with k <= exponent_cap; the terms are the
    only power chain of f computed.  Checks (1+f)g = g(1+f) = 1 by
    multiplication; raises NotProvedNilpotent when no term vanishes.
    """
    A = f.ext
    g = A.zero_poly()
    term = A.one_poly()
    minus_f = -f
    for _ in range(exponent_cap):
        g = g + term
        term = minus_f * term  # (-f)^k = 0 exactly when f^k = 0
        if term.is_zero:
            break
    else:
        raise NotProvedNilpotent(f"{f} was not proved nilpotent within cap {exponent_cap}")
    one_plus_f = A.one_poly() + f
    if one_plus_f * g != A.one_poly() or g * one_plus_f != A.one_poly():
        raise NotProvedNilpotent("witness verification failed")  # engine bug if ever hit
    return g


# ---------------------------------------------------------------------------
# bounded enumeration
# ---------------------------------------------------------------------------


def _count_over_monomials(A: ExtensionPresentation, n_monos: int, support_cap: int) -> int:
    """How many nonzero polynomials have at most support_cap of n_monos monomials."""
    nz = A.base.size - 1
    return sum(math.comb(n_monos, s) * nz**s for s in range(1, support_cap + 1))


def _admit_bounded_polys(A: ExtensionPresentation, monos: list, support_cap: int, budget: int) -> int:
    """How many polynomials a bounded search over `monos` enumerates, checked before any is made.

    Raises when A is not verified, and BudgetExceeded when the count is
    over the budget: every bounded enumeration is admitted here.
    """
    A._require_verified()
    total = _count_over_monomials(A, len(monos), support_cap)
    if total > budget:
        raise BudgetExceeded(total, budget, "bounded polynomial enumeration")
    return total


def enumerate_bounded_polys(
    A: ExtensionPresentation,
    degree_cap: int,
    support_cap: int,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> list[SkewPolynomial]:
    """All nonzero f with degree <= degree_cap and <= support_cap terms."""
    monos = multi_indices(A.n, 0, degree_cap)
    _admit_bounded_polys(A, monos, support_cap, budget)
    return _polys_over_monomials(A, monos, support_cap)


# ---------------------------------------------------------------------------
# bounded NI check
# ---------------------------------------------------------------------------


class BoundedScan:
    """Probe results for every bounded polynomial, kept as arrays; shared by the harness checks.

    The bounded polynomials are never built as objects.  `keys` holds one
    element-index row per polynomial, one column per monomial of `monos`
    (degree <= degree_cap, `multi_indices` order): the columns of an
    `AtomTable` over them (`table`).  The rows come in enumeration order and
    are made by combinatorics (`_bounded_keys`), so row i is the polynomial
    whose support size, combination and coefficient digits give i
    (`row_of`).

    The scan climbs the ladder of `nilpotency_probe` in bulk.  `monos` is
    sorted by (degree, exponents), so a row's deglex-leading term is its last
    nonzero column, and the leading chain is one gather from the table of
    `_leading_chain_row` at that column and coefficient.  The rows it leaves
    open go to `FiniteModules.decide` in row blocks.  `certificate` is the
    store's invariant J(R) when its t = `nil_index` <= exponent_cap.  Every
    row that no module decides and whose coefficients all lie in J(R) is
    then an f in J(R)<x> with f^t = 0 (proof at `_probe_rows`), and as the
    certificates of the ladder are sound, `nilpotency_probe(f)` is
    nilpotent(k) with k <= t: one mask gather marks all such rows
    nilpotent.  Only the remaining rows become polynomials, for the power
    chain.  `status` holds each row's outcome as a code into `RESULTS`
    (nilpotent, not nilpotent by either certificate, unknown), and `index`
    the nilpotency index of the nilpotent rows, 0 for a row certified in
    J(R)<x> until `result` first reads it; `result` and `results` turn them
    back into `ProbeResult`s.  `nilpotent_rows` are the nilpotent rows, in
    order, and `poly` builds a row's polynomial when a witness needs it.
    The closure rows that `probe` decides outside the scanned set are kept
    in `closure_probes`.
    """

    # the codes of `status`, and the (status, reason) of the probe result each stands for
    NILPOTENT_CODE, LEADING_CODE, MODULE_CODE, UNKNOWN_CODE = range(4)
    RESULTS = ((NILPOTENT, None), (NOT_NILPOTENT, LEADING_CHAIN), (NOT_NILPOTENT, FINITE_MODULE), (UNKNOWN, None))

    def __init__(
        self,
        A: ExtensionPresentation,
        degree_cap: int,
        support_cap: int,
        exponent_cap: int = DEFAULT_EXPONENT_CAP,
        pair_budget: int = DEFAULT_PAIR_BUDGET,
    ):
        self.monos = monos = multi_indices(A.n, 0, degree_cap)
        _admit_bounded_polys(A, monos, support_cap, pair_budget)
        self.A = A
        self.degree_cap = degree_cap
        self.support_cap = support_cap
        self.exponent_cap = exponent_cap
        self.pair_budget = pair_budget
        self._col = {alpha: k for k, alpha in enumerate(monos)}
        modules = finite_modules(A)
        self.certificate: Optional[Ideal] = None
        self.nil_index: Optional[int] = None
        if modules.nil_index is not None and modules.nil_index <= exponent_cap:
            self.certificate = Ideal.from_mask(A.base, modules.jacobson_mask)
            self.nil_index = modules.nil_index
        K = self.keys = _bounded_keys(len(monos), A.base.size, support_cap)
        self.status = np.full(len(K), self.MODULE_CODE, dtype=np.int8)
        self.index = np.zeros(len(K), dtype=np.int32)
        open_rows = np.arange(len(K))
        if A.bijective and len(K):
            # the last nonzero column is the deglex-leading one
            lead = len(monos) - 1 - np.argmax(K[:, ::-1] != 0, axis=1)
            chain = np.array([_leading_chain_row(A, alpha) for alpha in monos])
            holds = chain[lead, K[open_rows, lead]]
            self.status[holds] = self.LEADING_CODE
            open_rows = open_rows[~holds]
        block = max(1, BLOCK_ENTRIES // modules.width)
        chains = [np.zeros(0, dtype=np.intp)]
        for lo in range(0, len(open_rows), block):
            rows = open_rows[lo : lo + block]
            chains.append(rows[~modules.decide(K[rows], monos)])
        open_rows = np.concatenate(chains)
        if self.certificate is not None:
            certified = self.certificate.mask[K[open_rows]].all(axis=1)
            self.status[open_rows[certified]] = self.NILPOTENT_CODE
            open_rows = open_rows[~certified]
        for i in open_rows.tolist():
            r = _power_chain(self.poly(i), exponent_cap)
            if r.proved_nilpotent:
                self.status[i], self.index[i] = self.NILPOTENT_CODE, r.index
            else:
                self.status[i] = self.UNKNOWN_CODE
        self.nilpotent_rows = np.flatnonzero(self.status == self.NILPOTENT_CODE)
        self.scan_unknown = int(np.count_nonzero(self.status == self.UNKNOWN_CODE))
        self.closure_probes: dict[SkewPolynomial, ProbeResult] = {}
        self.ni_result: Optional["NICheckResult"] = None

    @cached_property
    def table(self) -> AtomTable:
        """The atom table over the scan's monomials, built on first read.

        The NI check reads it only to form the closure rows of a proved
        nilpotent outside J(R)<x>, so on a scan whose proved nilpotents are
        all certified it builds none; Armendariz reads it at support >= 2.
        """
        return AtomTable(self.A, self.monos)

    def poly(self, i: int) -> SkewPolynomial:
        """The polynomial of row i."""
        return SkewPolynomial(self.A, dict(zip(self.monos, self.keys[i].tolist())))

    def result(self, i: int) -> ProbeResult:
        """The probe result of row i.

        A row certified in J(R)<x> has f^t = 0 with t = `nil_index`, and
        every nonzero row has index at least 2, so index 0 marks a row whose
        index is not computed yet.  The first read computes it by the power
        chain of f, within t steps, and stores it.  A chain that does not
        vanish by then would contradict the certificate: that is an engine
        error, raised, never an unknown result.
        """
        status, reason = self.RESULTS[self.status[i]]
        if status == NILPOTENT:
            if not self.index[i]:
                r = _power_chain(self.poly(i), self.nil_index)
                if not r.proved_nilpotent:
                    raise NotProvedNilpotent(f"row {i} is in J(R)<x> but its power {self.nil_index} is not 0")
                self.index[i] = r.index
            return ProbeResult(status, index=int(self.index[i]))
        return ProbeResult(status, reason=reason, cap=self.exponent_cap if status == UNKNOWN else None)

    def results(self):
        """(polynomial, probe result) of every row, in enumeration order."""
        for i in range(len(self.keys)):
            yield self.poly(i), self.result(i)

    def row_of(self, cols: list, coefs: list) -> Optional[int]:
        """The row of the polynomial with nonzero coefficients `coefs` at the ascending columns `cols`.

        Rows run by support size s, then by the rank of the combination of
        columns in lexicographic order, then by the coefficient digits
        c - 1 in base |R| - 1, the first column's the most significant: the
        order of `_bounded_keys`.  None when the polynomial is not scanned.
        """
        s, L, r = len(cols), len(self.monos), self.A.base.size - 1
        if not 0 < s <= self.support_cap:
            return None
        i = sum(math.comb(L, t) * r**t for t in range(1, s))
        rank, prev = 0, -1
        for j, c in enumerate(cols):
            rank += sum(math.comb(L - 1 - v, s - 1 - j) for v in range(prev + 1, c))
            prev = c
        digits = 0
        for c in coefs:
            digits = digits * r + c - 1
        return i + rank * r**s + digits

    def probe(self, f: SkewPolynomial) -> ProbeResult:
        """nilpotency_probe of f at the scan's exponent cap, computed once.

        A scanned f is answered from the arrays at its row (`row_of`); any
        other f is probed on first use and kept in `closure_probes`.
        """
        cols = [self._col.get(alpha, -1) for alpha in f.terms]
        if -1 not in cols:
            order = sorted(range(len(cols)), key=cols.__getitem__)
            coefs = list(f.terms.values())
            i = self.row_of([cols[k] for k in order], [coefs[k] for k in order])
            if i is not None:
                return self.result(i)
        r = self.closure_probes.get(f)
        if r is None:
            r = self.closure_probes[f] = nilpotency_probe(f, self.exponent_cap)
        return r


def _bounded_keys(L: int, R: int, support_cap: int) -> np.ndarray:
    """The key row of every polynomial with 1..support_cap terms over L monomials, in enumeration order.

    Support s, then the combinations of s columns in lexicographic order,
    then the coefficient vectors over 1..R-1 in lexicographic order: the
    order of `_polys_over_monomials`, built without a polynomial.
    """
    r = R - 1
    blocks = [np.zeros((0, L), dtype=np.int32)]
    for s in range(1, min(support_cap, L) + 1):
        combos = np.array(list(itertools.combinations(range(L), s)), dtype=np.intp)
        digits = 1 + np.arange(r**s)[:, None] // r ** np.arange(s - 1, -1, -1) % r
        K = np.zeros((len(combos), r**s, L), dtype=np.int32)
        shape = (len(combos), r**s, s)
        np.put_along_axis(K, np.broadcast_to(combos[:, None, :], shape), np.broadcast_to(digits, shape), axis=2)
        blocks.append(K.reshape(-1, L))
    return np.concatenate(blocks)


class NICheckResult:
    """The outcome of `bounded_NI_check`: a status, the first witness, and the counts behind them.

    `stats` is a dict (`_scan_stats`).  Its closure_checks include the
    checks of the proved nilpotents in J<x>, J the scan's certificate, and
    those are counted on the first read of `stats` (`_CertifiedChecks`),
    not by the check.  That is safe: each such check has a row that is 0
    or nilpotent (proof at `_probe_rows`), so it is neither the first
    failing check nor an unknown one, and the status, the witness and
    closure_unknown are final without it.  The count keeps its own inputs,
    never the scan, so it gives the same number whenever it is read, after
    the scan is gone too, and the scan, which keeps this result as
    `ni_result`, is in no reference cycle.
    """

    CONSISTENT = "consistent"
    VIOLATION = "violation"
    INCONCLUSIVE = "inconclusive"

    def __init__(
        self,
        status: str,
        witness: Optional[dict] = None,
        stats: Optional[dict] = None,
        certified: Optional["_CertifiedChecks"] = None,
    ):
        self.status = status  # CONSISTENT, VIOLATION or INCONCLUSIVE
        self.witness = witness
        self._stats = {} if stats is None else stats
        self._certified = certified

    @property
    def stats(self) -> dict:
        if self._certified is not None:
            self._stats["closure_checks"] += self._certified.count()
            self._certified = None
        return self._stats

    def __repr__(self) -> str:
        return f"NICheckResult({self.status!r}, witness={self.witness!r}, stats={self.stats!r})"


def bounded_NI_check(scan: BoundedScan) -> NICheckResult:
    """Is the set of proved-nilpotent elements closed under + and *, at the scan's bounds?

    A proved-nilpotent pair whose sum or product is proved NOT nilpotent is a
    genuine witness that N(A) is not an ideal, hence that A is not NI.  The
    caps and the operation budget are the scan's, and the result is kept in
    `scan.ni_result`, so a second call returns it.

    The checks are those of the scalar scan, in its order: the products of
    each proved nilpotent f with every scanned h, [h0 f, f h0, h1 f, ...],
    then the sums f + g over the pairs of proved nilpotents, f not after g.
    When f lies in J<x>, J the scan's certificate, every h f and f h lies
    in that two-sided ideal of nilpotents (proof at `_probe_rows`), and so
    does f + g when g lies in it too: none of those checks can fail or be
    unknown.  So the walk that decides the status and the witness takes
    only the others.  The product rows of each f outside J<x> are formed
    from its value rows in the scan's `AtomTable`, and the sums with a
    factor outside J<x> by the addition table; each block goes through
    `_probe_rows`, and the walk stops at the first failing check.  The
    certified checks before that point are counted when `stats` is first
    read (`_CertifiedChecks`).  When every proved nilpotent lies in J<x>,
    no row is formed and no table is built.
    """
    if scan.ni_result is not None:
        return scan.ni_result
    pn = scan.nilpotent_rows
    H, n = len(scan.keys), len(pn)
    ops = H + n * n + 2 * n * H
    if ops > scan.pair_budget:
        raise BudgetExceeded(ops, scan.pair_budget, "NI closure check")
    K, K_pn = scan.keys, scan.keys[pn]
    certified = np.zeros(n, dtype=bool)
    if scan.certificate is not None:
        certified = scan.certificate.mask[K_pn].all(axis=1)
    checks = unknown_checks = 0

    def result(status: str, witness: Optional[dict] = None, products: int = n, sums: int = n * (n + 1) // 2):
        # the certified checks before the end of the walk: the product checks
        # of the first `products` proved nilpotents, the first `sums` sum pairs
        later = _CertifiedChecks(scan, certified, products, sums) if certified.any() else None
        scan.ni_result = NICheckResult(status, witness, _scan_stats(scan, checks, unknown_checks), later)
        return scan.ni_result

    def violation(kind: str, f, g, hit, **end) -> NICheckResult:
        return result(NICheckResult.VIOLATION, {"kind": kind, "f": f, "g": g, "result": hit[1], "probe": hit[2]}, **end)

    open_factors = np.flatnonzero(~certified)
    if len(open_factors):
        table = scan.table
        # products first: the canonical witnesses (x*y on the Weyl-like fixture)
        # live in the multiplication face
        block = max(1, ROW_ENTRIES // (2 * table.width))
        for i in open_factors.tolist():
            left, right = table.left_values(K_pn[i : i + 1])[0], table.right_values(K_pn[i : i + 1])[0]
            for lo in range(0, H, block):
                Kh = K[lo : lo + block]
                rows = np.empty((2 * len(Kh), table.width), dtype=np.int16)
                rows[0::2] = table.products(left, Kh)
                rows[1::2] = table.products(right, Kh)
                c, u, hit = _probe_rows(scan, table, rows, table.out_monos)
                checks += c
                unknown_checks += u
                if hit is not None:
                    kind = "left_product" if hit[0] % 2 == 0 else "right_product"
                    return violation(kind, scan.poly(pn[i]), scan.poly(lo + hit[0] // 2), hit, products=i, sums=0)
        # sums f + g with f or g outside J<x>
        for k, I, J in _pair_blocks(n, max(1, ROW_ENTRIES // K_pn.shape[1])):
            keep = ~certified[I] | ~certified[J]
            k, I, J = k[keep], I[keep], J[keep]
            c, u, hit = _probe_rows(scan, table, table.plus(K_pn[J], K_pn[I]), table.monos)
            checks += c
            unknown_checks += u
            if hit is not None:
                f, g = scan.poly(pn[I[hit[0]]]), scan.poly(pn[J[hit[0]]])
                return violation("sum", f, g, hit, sums=int(k[hit[0]]))
    return result(NICheckResult.CONSISTENT if unknown_checks == 0 else NICheckResult.INCONCLUSIVE)


def _pair_blocks(n: int, block: int):
    """The pairs i <= j < n in i-major order, `block` at a time, as (flat index, i, j) arrays.

    Row i of the pairs starts at flat index i n - i (i - 1) / 2.
    """
    at = np.arange(n)
    starts = at * n - at * (at - 1) // 2
    total = n * (n + 1) // 2
    for lo in range(0, total, block):
        k = np.arange(lo, min(lo + block, total))
        I = np.searchsorted(starts, k, "right") - 1
        yield k, I, I + k - starts[I]


class _CertifiedChecks:
    """The NI check's closure checks with factors in J<x> before the end of its walk, counted on demand.

    Each such row is 0 or nilpotent (see `bounded_NI_check`), so the count
    is of the nonzero rows: for each certified f among the first `products`
    proved nilpotents, its 2H products less its zero products, which the
    range join counts (`_count_zero_products`), without forming a pair; and
    the sums f + g of two certified factors whose pair comes before flat
    index `sums` of the sum walk (`_pair_blocks`), less those that are 0.
    It keeps the presentation, the monomials, the support cap, the key rows
    of the certified factors and their places among the proved nilpotents,
    never the scan, and builds its own atom table.
    """

    def __init__(self, scan: BoundedScan, certified: np.ndarray, products: int, sums: int):
        self.A, self.monos, self.support_cap = scan.A, scan.monos, scan.support_cap
        self.H, self.n = len(scan.keys), len(certified)
        self.at = np.flatnonzero(certified)
        self.keys = scan.keys[scan.nilpotent_rows[self.at]]
        self.products, self.sums = products, sums

    def count(self) -> int:
        joined = self.keys[self.at < self.products]
        if not len(joined):  # the walk failed before the first certified factor, so before any sum
            return 0
        table = AtomTable(self.A, self.monos)
        checks = 0
        factors = _factor_block(table, self.support_cap)
        for lo in range(0, len(joined), factors):
            Kf = joined[lo : lo + factors]
            for values in (table.left_values, table.right_values):
                checks += len(Kf) * self.H - _count_zero_products(table, values(Kf), self.support_cap)
        for _, a, b in _pair_blocks(len(self.at), max(1, ROW_ENTRIES // self.keys.shape[1])):
            i, j = self.at[a], self.at[b]
            before = i * self.n - i * (i - 1) // 2 + j - i < self.sums
            checks += int(np.count_nonzero(~_zero_rows(table.plus(self.keys[b[before]], self.keys[a[before]]))))
            if not before[-1]:  # the flat index only grows
                break
        return checks


def _probe_rows(scan: BoundedScan, table: AtomTable, rows: np.ndarray, monos: list) -> tuple:
    """Closure checks on element-index rows, in row order: (checks, unknown, hit).

    Zero rows are skipped, as the scalar scan skipped zero results.  When
    `scan.certificate` is an ideal J, a nonzero row with every coefficient
    in J is an f in J<x> with f^t = 0, t = ideal_power_index(J) <= cap.
    Proof: sigma_i(J) <= J and delta_i(J) <= J, so every J^k is invariant
    too, by sigma(ab) = sigma(a)sigma(b) and delta(ab) = sigma(a)delta(b) +
    delta(a)b.  The rewriting keeps the left coefficient c of c x^a on the
    left, and every coefficient of x^a * d x^b is a sum of terms w(d) s,
    with w a word in the sigmas and deltas and s in R.  For c in J and d in
    J^(k-1) they lie in J J^(k-1) R = J^k: J<x> * J^(k-1)<x> <= J^k<x>, so
    by induction f^k = f * f^(k-1) lies in J^k<x>, and f^t = 0.  The same
    two facts make J<x> a two-sided ideal of A: (r x^a)(c x^b) has the
    coefficients r w(c) s and (c x^a)(r x^b) the coefficients c w(r) s, all
    in J for c in J.  As the not-nilpotent certificates of
    `nilpotency_probe` are sound, `scan.probe` would return nilpotent(k)
    with k <= t <= cap.  So one mask test counts
    such rows as nilpotent checks; none becomes a polynomial.  The distinct
    remaining rows are walked in order of first occurrence, each as its
    polynomial through `scan.probe`, as the scalar scan probed it.  The walk
    stops at the first row proved not nilpotent; `hit` is (row, polynomial,
    probe) for that row, whose first occurrence is then the first failing
    check.  Counts cover the rows up to and including it, unknowns once per
    occurrence.
    """
    nonzero = ~_zero_rows(rows)
    open_rows = nonzero
    if scan.certificate is not None:
        open_rows = nonzero & ~scan.certificate.mask[rows].all(axis=1)
    todo = np.flatnonzero(open_rows)
    if not len(todo):
        return int(np.count_nonzero(nonzero)), 0, None
    sub = np.ascontiguousarray(rows[todo])
    view = sub.view(np.dtype((np.void, sub.dtype.itemsize * sub.shape[1])))
    _, first, inverse = np.unique(view.ravel(), return_index=True, return_inverse=True)
    unknown = np.zeros(len(first), dtype=bool)
    hit = None
    for u in np.argsort(first):
        row = int(todo[first[u]])
        f = table.poly(rows[row], monos)
        r = scan.probe(f)
        if r.proved_not_nilpotent:
            hit = (row, f, r)
            break
        unknown[u] = r.status == UNKNOWN
    end = len(rows) if hit is None else hit[0] + 1
    return (
        int(np.count_nonzero(nonzero[:end])),
        int(np.count_nonzero(unknown[inverse.ravel()[: np.searchsorted(todo, end)]])),
        hit,
    )


def _zero_rows(rows: np.ndarray) -> np.ndarray:
    """Whether each row of element indices (the last axis) is all 0.

    The entries are nonnegative, so a row is 0 exactly when the bitwise or
    of its entries is.  The or runs column by column, one vector operation
    per column over all rows: rows are a few entries wide, where that is
    several times faster than a sum or `any` reduced along the row, and an
    or, unlike a sum, cannot wrap in the tables' int16.
    """
    acc = rows[..., 0].copy()
    for w in range(1, rows.shape[-1]):
        acc |= rows[..., w]
    return acc == 0


def _row_ids(labels: np.ndarray, rows: np.ndarray, radix: int, tail=None, tail_radix: int = 1) -> np.ndarray:
    """Integers that are equal exactly where the pairs (label, row) are equal.

    Every row entry is below `radix`.  The columns are folded in base radix
    after the label, as many at a time as keep the ids below 2^63; when not
    one more fits, the ids are first replaced by their ranks, which keeps
    them exact.  A `tail` of entries below `tail_radix` is folded in last,
    as the least significant digit: then the id of (label, row, t) is the
    id of (label, row, 0) plus t, and the ids of one (label, row) are
    contiguous in sorted order.
    """
    ids = labels.astype(np.int64)
    bound = int(ids.max()) + 1 if len(ids) else 1
    j = 0
    while j < rows.shape[1]:
        k = 0
        while j + k < rows.shape[1] and bound * radix ** (k + 1) < 1 << 63:
            k += 1
        if not k:
            _, ids = np.unique(ids, return_inverse=True)
            bound = int(ids.max()) + 1
            continue
        powers = np.array([radix ** (k - 1 - t) for t in range(k)], dtype=np.int64)
        ids = ids * radix**k + rows[:, j : j + k] @ powers
        bound *= radix**k
        j += k
    if tail is not None:
        if bound * tail_radix >= 1 << 63:
            _, ids = np.unique(ids, return_inverse=True)
        ids = ids * tail_radix + tail
    return ids


def _factor_block(table: AtomTable, support_cap: int) -> int:
    """Factors per block of value rows, 4 ROW_ENTRIES entries in all.

    A factor takes its value table, its largest partial sums and, when
    there is a join (support_cap >= 2), the ids and sort keys of its
    partial sums and slot rows, two int64 (8 index entries) each.  No block
    holds a factor's pairs: a count is a sum of range lengths, and listed
    pairs come in chunks (`_zero_products`).
    """
    L, r = len(table.monos), table.size - 1
    partials = max(math.comb(L, s) * r**s for s in range(support_cap))
    per_factor = table.Q[0].size + partials * table.width
    if support_cap > 1:
        per_factor += 8 * (partials + L * r)
    if per_factor > TABLE_ENTRIES:
        raise TooLarge(per_factor, TABLE_ENTRIES, "value rows of one factor")
    return max(1, 4 * ROW_ENTRIES // per_factor)


def _zero_ranges(table: AtomTable, V: np.ndarray, support_cap: int, pairs: bool) -> tuple:
    """The range join behind the zero products of a block of factors with the bounded polynomials.

    V[f][alpha][c] is a value table of each factor f (`AtomTable.left_values`
    or `right_values`), and the h are the bounded polynomials over
    `table.monos` with at most support_cap terms, numbered in enumeration
    order (`_bounded_keys`).  The product of f with h = sum_k c_k x^alpha_k
    (alpha_1 < ... < alpha_s, every c_k != 0) is the add-table sum of the
    rows V[f][alpha_k][c_k], so it is 0 exactly when the last slot's row
    V[f][alpha_s][c_s] equals the negated partial sum
    -(V[f][alpha_1][c_1] + ... + V[f][alpha_(s-1)][c_(s-1)]) of its prefix.

    Support 1 has the one partial sum 0: its zero products are the zero
    rows, returned as the mask `zero` (nF, L, R - 1).  For s >= 2, each
    negated partial sum of a prefix with a later slot gets the key
    (id, alpha_(s-1)), id exact for (factor, row) (`_row_ids`) and the
    prefix's last slot its least significant digit, and the keys are sorted
    once.  A slot row (f, alpha, c) with id i completes exactly the prefixes
    with its row whose last slot is below alpha: every such prefix extends
    by alpha to an h of support s, and no other prefix does.  Their keys are
    the contiguous range [(i, 0), (i, alpha)) of the sorted keys, found by
    two binary searches, so no match outside it is ever formed.  Each level
    is (offset, lo, hits, order, rank, shape): the first h of support s,
    per slot row the range's start and length in the sorted keys, and, with
    `pairs`, the sort order of the keys, the rank of prefix + (alpha,) among
    the combinations of s slots, and the shape (nF, prefixes, digits) of the
    partial sums.
    """
    nF, L, R, W = V.shape
    r = R - 1  # nonzero coefficients per slot
    neg = table.A.base.neg_array
    rows = V[:, :, 1:]  # (nF, L, r, W): row (f, alpha, c) for every nonzero c
    zero = _zero_rows(rows)
    levels = []
    offset = L * r  # index of the first h of the next support
    prefixes = [(a,) for a in range(L - 1)]  # those with a later slot
    partial = rows[:, :-1]  # (nF, prefixes, r^(s-1), W): their partial sums
    alpha = np.tile(np.repeat(np.arange(L), r), nF)  # the slot of each slot row
    slot_labels = np.repeat(np.arange(nF), L * r)
    for s in range(2, support_cap + 1):
        if not prefixes:  # no h has s slots
            break
        P, digits = partial.shape[1], partial.shape[2]
        nN = nF * P * digits
        last = np.broadcast_to(np.array([prefix[-1] for prefix in prefixes])[None, :, None], partial.shape[:3])
        ids = _row_ids(
            np.concatenate([np.repeat(np.arange(nF), P * digits), slot_labels]),
            np.concatenate([neg[partial].reshape(-1, W), rows.reshape(-1, W)]),
            R,
            np.concatenate([last.ravel(), np.zeros(nF * L * r, dtype=np.int64)]),
            L,
        )
        order = rank = None
        if pairs:
            order = np.argsort(ids[:nN], kind="stable")
            keys = ids[:nN][order]
        else:
            keys = np.sort(ids[:nN])
        lo = np.searchsorted(keys, ids[nN:], "left")
        hits = np.searchsorted(keys, ids[nN:] + alpha, "left") - lo
        combos = list(itertools.combinations(range(L), s))
        where = {prefix: k for k, prefix in enumerate(prefixes)}
        if pairs:
            rank = np.full((P, L), -1)
            for k, combo in enumerate(combos):
                rank[where[combo[:-1]], combo[-1]] = k
        levels.append((offset, lo, hits, order, rank, partial.shape[:3]))
        offset += len(combos) * r**s
        later = [k for k, combo in enumerate(combos) if combo[-1] < L - 1]
        if s < support_cap and later:
            parent = [where[combos[k][:-1]] for k in later]
            slot = [combos[k][-1] for k in later]
            partial = table.plus(partial[:, parent, :, None, :], rows[:, slot, None, :, :])
            partial = partial.reshape(nF, len(later), -1, W)
        prefixes = [combos[k] for k in later]
    return zero, levels


def _count_zero_products(table: AtomTable, V: np.ndarray, support_cap: int) -> int:
    """How many products of the factors of V with the bounded polynomials are 0: the range lengths (`_zero_ranges`)."""
    zero, levels = _zero_ranges(table, V, support_cap, pairs=False)
    return int(np.count_nonzero(zero)) + sum(int(hits.sum()) for _, _, hits, _, _, _ in levels)


def _zero_products(table: AtomTable, V: np.ndarray, support_cap: int):
    """The zero products of the factors of V, as (factor, h) index arrays, factor-major and h-minor.

    The ranges of `_zero_ranges` are expanded in chunks of whole factors,
    at most ROW_ENTRIES pairs each unless one factor has more, and each
    chunk is sorted by (factor, h).
    """
    zero, levels = _zero_ranges(table, V, support_cap, pairs=True)
    nF, L, r = zero.shape
    per_factor = zero.reshape(nF, -1).sum(axis=1)
    for _, _, hits, _, _, _ in levels:
        per_factor += hits.reshape(nF, -1).sum(axis=1)
    ends = np.cumsum(per_factor)
    f0 = 0
    while f0 < nF:
        f1 = max(f0 + 1, int(np.searchsorted(ends, (ends[f0 - 1] if f0 else 0) + ROW_ENTRIES, "right")))
        f, a, c = np.nonzero(zero[f0:f1])
        found_f, found_h = [f0 + f], [a * r + c]
        for offset, lo, hits, order, rank, shape in levels:
            first, last = f0 * L * r, f1 * L * r
            count = hits[first:last]
            v = first + np.repeat(np.arange(len(count)), count)  # each match, by its slot row
            matched = order[lo[v] + np.arange(len(v)) - (np.cumsum(count) - count)[v - first]]
            _, pre, p = np.unravel_index(matched, shape)
            f, a, c = np.unravel_index(v, (nF, L, r))
            found_f.append(f)
            found_h.append(offset + (rank[pre, a] * shape[2] + p) * r + c)
        f, h = np.concatenate(found_f), np.concatenate(found_h)
        if len(f):
            order = np.lexsort((h, f))
            yield f[order], h[order]
        f0 = f1


def _scan_stats(scan: BoundedScan, checks: int, unknown_checks: int) -> dict:
    return {
        "enumerated": len(scan.keys),
        "proved_nilpotent": len(scan.nilpotent_rows),
        "scan_unknown": scan.scan_unknown,
        "closure_checks": checks,
        "closure_unknown": unknown_checks,
    }


def replay_violation(witness: dict, exponent_cap: int = DEFAULT_EXPONENT_CAP) -> bool:
    """Re-evaluate a Violation witness with the engine; True if it reproduces.

    Pass the exponent cap of the scan that found the witness: its probes
    were proved at that cap.
    """
    f, g, result = witness["f"], witness["g"], witness["result"]
    kind = witness["kind"]
    if kind == "sum":
        recomputed = f + g
    elif kind == "left_product":
        recomputed = g * f
    else:
        recomputed = f * g
    if recomputed != result:
        return False
    pf = nilpotency_probe(f, exponent_cap)
    pg = nilpotency_probe(g, exponent_cap) if kind == "sum" else None
    pr = nilpotency_probe(recomputed, exponent_cap)
    if not pf.proved_nilpotent or not pr.proved_not_nilpotent:
        return False
    return pg is None or pg.proved_nilpotent


# ---------------------------------------------------------------------------
# coefficient-criterion agreement (the computable face of N(A) = N(R)<x>)
# ---------------------------------------------------------------------------


@dataclass
class AgreementResult:
    holds: bool
    exact_failure: bool = False
    witness: Optional[dict] = None
    unknown: int = 0

    def __bool__(self) -> bool:
        return self.holds


def coefficient_agreement(scan: BoundedScan) -> AgreementResult:
    """Probe vs coefficient criterion, both directions over the enumerated set.

    A proved-nilpotent f with a coefficient outside N(R) exactly disproves
    N(A) <= N(R)<x>; an N(R)-coefficient f proved not nilpotent exactly
    disproves the reverse inclusion.  Unknown probes on N(R)-coefficient
    polynomials leave the agreement undecided at this budget.  Membership
    is read from the scan's key rows: the empty slots hold index 0, the
    zero element, which is nilpotent.  The witness is the first failing
    polynomial in enumeration order.
    """
    member = scan.A.base.nilpotent_mask[scan.keys].all(axis=1)
    status = scan.status
    nilpotent = status == BoundedScan.NILPOTENT_CODE
    bad = np.flatnonzero(np.where(member, ~nilpotent & (status != BoundedScan.UNKNOWN_CODE), nilpotent))
    if len(bad):
        i = int(bad[0])
        direction = "criterion->probe" if member[i] else "probe->criterion"
        return AgreementResult(False, exact_failure=True, witness={"direction": direction, "f": scan.poly(i)})
    return AgreementResult(True, unknown=int(np.count_nonzero(member & (status == BoundedScan.UNKNOWN_CODE))))


# ---------------------------------------------------------------------------
# bounded Armendariz checks
# ---------------------------------------------------------------------------


@dataclass
class ArmendarizResult:
    holds: bool
    witness: Optional[dict] = None
    degree_cap: int = 0
    support_cap: int = 0


def bounded_skew_armendariz(
    A: ExtensionPresentation,
    degree_cap: int,
    support_cap: int,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    scan: Optional[BoundedScan] = None,
) -> ArmendarizResult:
    """fg = 0 must force every cross-product a_i sigma^{alpha_i}(b_j) = 0.

    The polynomials are key rows in enumeration order (`_bounded_keys`).
    When `scan` is a scan of A at the same degree cap and at least this
    support cap, they are the first rows of its keys, as enumeration runs by
    support size, and its atom table is the one used.

    At support cap 1 in a bijective A the answer is `holds`, with nothing
    enumerated.  Take f = c x^alpha and g = d x^beta.  As in
    `_leading_chain_holds`, the lower terms of x^alpha d and x^alpha x^beta
    have smaller total degree, so the x^(alpha+beta)-coefficient of fg is
    c sigma^alpha(d) c_(alpha,beta), and c_(alpha,beta) is a unit when A is
    bijective.  So fg = 0 forces c sigma^alpha(d) = 0, the only cross
    product.  Bijectivity is needed: in Z_4[x1, x2] with x2 x1 = 2 x1 x2,
    x2 (2 x1) = 0, yet 1 sigma^(0,1)(2) = 2.  The budgets are checked first,
    so a refusal is the same with or without this shortcut.
    """
    # both budgets are checked on the counts, before anything is enumerated
    monos = multi_indices(A.n, 0, degree_cap)
    total = _admit_bounded_polys(A, monos, support_cap, pair_budget)
    if total**2 > pair_budget:
        raise BudgetExceeded(total**2, pair_budget, "Armendariz pair enumeration")
    if support_cap == 1 and A.bijective:
        return ArmendarizResult(True, degree_cap=degree_cap, support_cap=support_cap)
    if scan is not None and scan.A is A and scan.degree_cap == degree_cap and scan.support_cap >= support_cap:
        K, table = scan.keys[:total], scan.table
    else:
        K, table = _bounded_keys(len(monos), A.base.size, support_cap), AtomTable(A, monos)
    # each polynomial's support slots in order, padded with coefficient 0,
    # and images[g, alpha, j] = sigma^alpha(b_j) of the j-th coefficient of g
    slots = np.argsort(K == 0, axis=1, kind="stable")[:, :support_cap]
    coefs = np.take_along_axis(K, slots, axis=1)
    sigma_pow = np.stack([A.system.sigma_power(alpha) for alpha in monos]).astype(np.int32)
    images = sigma_pow[:, coefs].transpose(1, 0, 2)
    # the zero products f g from the join of the right values of f; the cross
    # products are tested only on those pairs, in f-major, g-minor order
    factors = _factor_block(table, support_cap)
    chunk = max(1, ROW_ENTRIES // slots.shape[1] ** 2)
    for lo in range(0, len(K), factors):
        for F, G in _zero_products(table, table.right_values(K[lo : lo + factors]), support_cap):
            for at in range(0, len(F), chunk):
                f, g = lo + F[at : at + chunk], G[at : at + chunk]
                # cross[k, i, j] = a_i sigma^alpha_i(b_j), 0 on padding
                cross = table.times(coefs[f][:, :, None], images[g[:, None], slots[f]])
                bad = np.flatnonzero(cross.any(axis=(1, 2)))
                if len(bad):
                    k = int(bad[0])
                    i, j = divmod(int(np.flatnonzero(cross[k])[0]), slots.shape[1])
                    return ArmendarizResult(
                        False,
                        witness={
                            "f": table.poly(K[f[k]], monos),
                            "g": table.poly(K[g[k]], monos),
                            "alpha": monos[slots[f[k], i]],
                            "beta": monos[slots[g[k], j]],
                        },
                        degree_cap=degree_cap,
                        support_cap=support_cap,
                    )
    return ArmendarizResult(True, degree_cap=degree_cap, support_cap=support_cap)


def _polys_over_monomials(A: ExtensionPresentation, monos: list, support_cap: int) -> list:
    """Every polynomial with 1..support_cap terms over `monos`, in enumeration order.

    The coefficients run over 1..|R|-1, so none is zero and the constructor's
    zero filter is skipped.
    """
    new, coeffs = SkewPolynomial._nonzero, range(1, A.base.size)
    return [
        new(A, dict(zip(combo, cs)))
        for s in range(1, support_cap + 1)
        for combo in itertools.combinations(monos, s)
        for cs in itertools.product(coeffs, repeat=s)
    ]
