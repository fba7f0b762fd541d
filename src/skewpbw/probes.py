"""Bounded searches over skew polynomials: nilpotency, NI closure, ideals.

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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import BudgetExceeded, NotAnIdeal, NotProvedNilpotent, TooLarge
from .extension import TABLE_ENTRIES, AtomTable, ExtensionPresentation, SkewPolynomial, _cache_put, coefficient_keys
from .maps import DELTA_INVARIANT, invariance, multi_indices
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


def coefficient_criterion_member(f: SkewPolynomial) -> bool:
    """True iff every coefficient of f lies in N(R): membership in N(R)<x_1..x_n>."""
    nil = f.ext.base.nilpotent_mask
    return all(bool(nil[c]) for c in f.terms.values())


# ---------------------------------------------------------------------------
# bounded enumeration
# ---------------------------------------------------------------------------


def _count_over_monomials(A: ExtensionPresentation, n_monos: int, support_cap: int) -> int:
    """How many nonzero polynomials have at most support_cap of n_monos monomials."""
    nz = A.base.size - 1
    return sum(math.comb(n_monos, s) * nz**s for s in range(1, support_cap + 1))


def count_bounded_polys(A: ExtensionPresentation, degree_cap: int, support_cap: int) -> int:
    return _count_over_monomials(A, len(multi_indices(A.n, 0, degree_cap)), support_cap)


def enumerate_bounded_polys(
    A: ExtensionPresentation,
    degree_cap: int,
    support_cap: int,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> list[SkewPolynomial]:
    """All nonzero f with degree <= degree_cap and <= support_cap terms."""
    A._require_verified()
    total = count_bounded_polys(A, degree_cap, support_cap)
    if total > budget:
        raise BudgetExceeded(total, budget, "bounded polynomial enumeration")
    return _polys_over_monomials(A, multi_indices(A.n, 0, degree_cap), support_cap)


# ---------------------------------------------------------------------------
# bounded NI check
# ---------------------------------------------------------------------------


class BoundedScan:
    """Probe results for every bounded polynomial; shared by the harness checks.

    The scan climbs the ladder of `nilpotency_probe` in bulk: the leading
    chain per polynomial, one `FiniteModules.decide` per row block for the
    rows it leaves open, the power chain for the rest.  `status` holds them
    in enumeration order, then the NI closure rows that `probe` decides.
    `keys` holds the coefficient row of each polynomial of `polys`
    (`coefficient_keys`), one column per monomial of degree <= degree_cap in
    `multi_indices` order: the columns of an `AtomTable` over them.
    `certificate` is the store's invariant J(R) when its t <= exponent_cap.
    """

    def __init__(
        self,
        A: ExtensionPresentation,
        degree_cap: int,
        support_cap: int,
        exponent_cap: int = DEFAULT_EXPONENT_CAP,
        pair_budget: int = DEFAULT_PAIR_BUDGET,
    ):
        self.A = A
        self.degree_cap = degree_cap
        self.support_cap = support_cap
        self.exponent_cap = exponent_cap
        self.pair_budget = pair_budget
        self.polys = enumerate_bounded_polys(A, degree_cap, support_cap, pair_budget)
        modules = finite_modules(A)
        self.certificate: Optional[Ideal] = None
        if modules.nil_index is not None and modules.nil_index <= exponent_cap:
            self.certificate = Ideal.from_mask(A.base, modules.jacobson_mask)
        self.status: dict[SkewPolynomial, ProbeResult] = {}
        monos = multi_indices(A.n, 0, degree_cap)
        K = self.keys = coefficient_keys(self.polys, monos)
        block = max(1, BLOCK_ENTRIES // modules.width)
        for lo in range(0, len(K), block):
            polys = self.polys[lo : lo + block]
            reason = [LEADING_CHAIN if A.bijective and _leading_chain_holds(f) else None for f in polys]
            todo = np.array([i for i, r in enumerate(reason) if r is None], dtype=int)
            for i in todo[modules.decide(K[lo + todo], monos)]:
                reason[i] = FINITE_MODULE
            for f, r in zip(polys, reason):
                self.status[f] = _power_chain(f, exponent_cap) if r is None else ProbeResult(NOT_NILPOTENT, reason=r)
        self.proved_nilpotent = [f for f in self.polys if self.status[f].proved_nilpotent]
        self.scan_unknown = sum(1 for r in self.status.values() if r.status == UNKNOWN)
        self.ni_result: Optional["NICheckResult"] = None

    def probe(self, f: SkewPolynomial) -> ProbeResult:
        """nilpotency_probe of f at the scan's exponent cap, computed once."""
        r = self.status.get(f)
        if r is None:
            r = self.status[f] = nilpotency_probe(f, self.exponent_cap)
        return r


@dataclass
class NICheckResult:
    status: str  # "consistent" | "violation" | "inconclusive"
    witness: Optional[dict] = None
    stats: dict = field(default_factory=dict)

    CONSISTENT = "consistent"
    VIOLATION = "violation"
    INCONCLUSIVE = "inconclusive"


def bounded_NI_check(
    A: ExtensionPresentation,
    degree_cap: int,
    support_cap: int,
    exponent_cap: int = DEFAULT_EXPONENT_CAP,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    scan: Optional[BoundedScan] = None,
) -> NICheckResult:
    """Is the set of proved-nilpotent elements closed under + and *, at bounds?

    A proved-nilpotent pair whose sum or product is proved NOT nilpotent is a
    genuine witness that N(A) is not an ideal, hence that A is not NI.

    The products of each proved nilpotent f with every scanned h come from
    the value rows of f in an `AtomTable`.  When f lies in J<x>, J the
    scan's certificate, every h f and f h lies in that two-sided ideal of
    nilpotents (proof at `_probe_rows`), so f adds one nilpotent check per
    nonzero product, and only its zero products are found, by the join of
    `_zero_products`.  The rows of any other f are formed and go through
    `_probe_rows` in the scalar scan's order, [h0 f, f h0, h1 f, ...].
    """
    if scan is None:
        scan = BoundedScan(A, degree_cap, support_cap, exponent_cap, pair_budget)
    if scan.ni_result is not None:
        return scan.ni_result
    pn = scan.proved_nilpotent
    ops = len(scan.polys) + len(pn) * len(pn) + 2 * len(pn) * len(scan.polys)
    if ops > pair_budget:
        raise BudgetExceeded(ops, pair_budget, "NI closure check")
    checks = unknown_checks = 0

    def verdict(kind: str, f, g, hit) -> NICheckResult:
        scan.ni_result = NICheckResult(
            NICheckResult.VIOLATION,
            witness={"kind": kind, "f": f, "g": g, "result": hit[1], "probe": hit[2]},
            stats=_scan_stats(scan, checks, unknown_checks),
        )
        return scan.ni_result

    if pn:
        table = AtomTable(scan.A, multi_indices(scan.A.n, 0, scan.degree_cap))
        K = scan.keys
        K_pn = K[[scan.status[f].proved_nilpotent for f in scan.polys]]
        H = len(scan.polys)
        certified = np.zeros(len(pn), dtype=bool)
        if scan.certificate is not None:
            certified = scan.certificate.mask[K_pn].all(axis=1)
        # products first: the canonical witnesses (x*y on the Weyl-like fixture)
        # live in the multiplication face.  Per f the rows are
        # [h0 f, f h0, h1 f, ...], the order of the scalar scan this replaces.
        seen_products: dict = {}
        factors = _factor_block(table, scan.support_cap, H)
        block = max(1, ROW_ENTRIES // (2 * table.width))
        cuts = [0, *(np.flatnonzero(np.diff(certified)) + 1).tolist(), len(pn)]
        for first, end in zip(cuts, cuts[1:]):  # runs of factors in J<x> or outside it
            if certified[first]:
                # each nonzero h f and f h is in J<x>, so a nilpotent check
                for lo in range(first, end, factors):
                    Kf = K_pn[lo : min(end, lo + factors)]
                    for values in (table.left_values, table.right_values):
                        checks += len(Kf) * H - len(_zero_products(table, values(Kf), scan.support_cap)[0])
                continue
            for i in range(first, end):
                left, right = table.left_values(K_pn[i : i + 1])[0], table.right_values(K_pn[i : i + 1])[0]
                for lo in range(0, H, block):
                    Kh = K[lo : lo + block]
                    rows = np.empty((2 * len(Kh), table.width), dtype=np.int32)
                    rows[0::2] = table.products(left, Kh)
                    rows[1::2] = table.products(right, Kh)
                    c, u, hit = _probe_rows(scan, table, rows, table.out_monos, seen_products)
                    checks += c
                    unknown_checks += u
                    if hit is not None:
                        kind = "left_product" if hit[0] % 2 == 0 else "right_product"
                        return verdict(kind, pn[i], scan.polys[lo + hit[0] // 2], hit)
        # sums f + g over the pairs i <= j of proved nilpotents, i-major;
        # row i starts at flat pair index i n - i (i - 1) / 2
        seen_sums: dict = {}
        n = len(pn)
        starts = np.arange(n) * n - np.arange(n) * (np.arange(n) - 1) // 2
        block = max(1, ROW_ENTRIES // K_pn.shape[1])
        for lo in range(0, n * (n + 1) // 2, block):
            k = np.arange(lo, min(lo + block, n * (n + 1) // 2))
            I = np.searchsorted(starts, k, "right") - 1
            J = I + k - starts[I]
            c, u, hit = _probe_rows(scan, table, table.plus(K_pn[J], K_pn[I]), table.monos, seen_sums)
            checks += c
            unknown_checks += u
            if hit is not None:
                return verdict("sum", pn[I[hit[0]]], pn[J[hit[0]]], hit)
    status = NICheckResult.CONSISTENT if unknown_checks == 0 else NICheckResult.INCONCLUSIVE
    scan.ni_result = NICheckResult(status, stats=_scan_stats(scan, checks, unknown_checks))
    return scan.ni_result


def _probe_rows(
    scan: BoundedScan, table: AtomTable, rows: np.ndarray, monos: list, seen: dict
) -> tuple:
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
    such rows as nilpotent checks; none becomes a polynomial or enters
    `scan.status`.  Each distinct remaining row is looked up in `seen` (row
    bytes -> probe result, shared by all blocks of one face) in order of
    first occurrence; only a row not seen before becomes a polynomial and
    goes through `scan.probe`.  The walk stops at the first row proved not
    nilpotent; `hit` is (row, polynomial, probe) for that row, whose first
    occurrence is then the first failing check.  Counts cover the rows up
    to and including it.
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
        key = rows[row].tobytes()
        r = seen.get(key)
        if r is None:
            r = seen[key] = scan.probe(table.poly(rows[row], monos))
        if r.proved_not_nilpotent:
            hit = (row, table.poly(rows[row], monos), r)
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

    The entries are nonnegative, so a row is 0 exactly when its sum is, and
    einsum sums a row of a few entries several times faster than `any`
    reduces it.  The sum runs in int32, never in the tables' int16: a row
    of an `AtomTable` has at most W entries below R, with R W <=
    TABLE_ENTRIES = 2^24 (the table has L^2 R W entries), so it stays
    below 2^31.
    """
    return np.einsum("...w->...", rows, dtype=np.int32, casting="same_kind") == 0


def _row_ids(labels: np.ndarray, rows: np.ndarray, radix: int) -> np.ndarray:
    """Integers that are equal exactly where the pairs (label, row) are equal.

    Every row entry is below `radix`.  The columns are folded in base radix
    after the label, as many at a time as keep the ids below 2^63; when not
    one more fits, the ids are first replaced by their ranks, which keeps
    them exact.
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
    return ids


def _factor_block(table: AtomTable, support_cap: int, n_polys: int) -> int:
    """Factors per block of value rows: a value table, the largest partial sums and the pairs of each."""
    L, r = len(table.monos), table.size - 1
    partials = max(math.comb(L, s) * r**s for s in range(support_cap))
    per_factor = table.Q[0].size + partials * table.width + n_polys
    if per_factor > TABLE_ENTRIES:
        raise TooLarge(per_factor, TABLE_ENTRIES, "value rows of one factor")
    return max(1, ROW_ENTRIES // per_factor)


def _zero_products(table: AtomTable, V: np.ndarray, support_cap: int) -> tuple:
    """The zero products of a block of factors with the bounded polynomials.

    V[f][alpha][c] is a value table of each factor f (`AtomTable.left_values`
    or `right_values`), and the h are `_polys_over_monomials(table.monos,
    support_cap)`, numbered in that order.  The product of f with
    h = sum_k c_k x^alpha_k (alpha_1 < ... < alpha_s, every c_k != 0) is the
    add-table sum of the rows V[f][alpha_k][c_k], so it is 0 exactly when
    the last slot's row V[f][alpha_s][c_s] equals the negated partial sum
    -(V[f][alpha_1][c_1] + ... + V[f][alpha_(s-1)][c_(s-1)]).  So support
    by support, the rows of every slot are joined with the negated partial
    sums of every prefix, on exact ids of (factor, row) (`_row_ids`), and a
    match counts when its slot comes after the prefix.  Support 1 has the
    one partial sum 0, so its join is a zero test.  No product row is
    formed.  Returns (factor, h) index arrays, sorted factor-major, h-minor.
    """
    nF, L, R, W = V.shape
    r = R - 1  # nonzero coefficients per slot
    neg = table.A.base.neg_array
    rows = V[:, :, 1:]  # (nF, L, r, W): row (f, alpha, c) for every nonzero c
    f, a, c = np.nonzero(_zero_rows(rows))
    found_f, found_h = [f], [a * r + c]
    offset = L * r  # index of the first h of the next support
    prefixes = [(a,) for a in range(L - 1)]  # those with a later slot
    partial = rows[:, :-1]  # (nF, prefixes, r^(s-1), W): their partial sums
    for s in range(2, support_cap + 1):
        if not prefixes:  # no h has s slots
            break
        combos = list(itertools.combinations(range(L), s))
        where = {prefix: k for k, prefix in enumerate(prefixes)}
        rank = np.full((len(prefixes), L), -1)  # rank of prefix + (alpha,) among the combos
        for k, combo in enumerate(combos):
            rank[where[combo[:-1]], combo[-1]] = k
        nN = partial.shape[0] * partial.shape[1] * partial.shape[2]
        ids = _row_ids(
            np.concatenate([np.repeat(np.arange(nF), nN // nF), np.repeat(np.arange(nF), L * r)]),
            np.concatenate([neg[partial].reshape(-1, W), rows.reshape(-1, W)]),
            R,
        )
        order = np.argsort(ids[:nN], kind="stable")
        sorted_ids = ids[:nN][order]
        lo = np.searchsorted(sorted_ids, ids[nN:], "left")
        count = np.searchsorted(sorted_ids, ids[nN:], "right") - lo
        v = np.repeat(np.arange(len(count)), count)  # each match, by its slot row
        matched = order[lo[v] + np.arange(len(v)) - (np.cumsum(count) - count)[v]]
        _, pre, p = np.unravel_index(matched, partial.shape[:3])
        f, a, c = np.unravel_index(v, (nF, L, r))
        k = rank[pre, a]
        keep = k >= 0
        found_f.append(f[keep])
        found_h.append(offset + (k[keep] * partial.shape[2] + p[keep]) * r + c[keep])
        offset += len(combos) * r**s
        prefixes = [combo for combo in combos if combo[-1] < L - 1]
        if s < support_cap and prefixes:
            parent = [where[combo[:-1]] for combo in prefixes]
            slot = [combo[-1] for combo in prefixes]
            partial = table.plus(partial[:, parent, :, None, :], rows[:, slot, None, :, :])
            partial = partial.reshape(nF, len(prefixes), -1, W)
    f, h = np.concatenate(found_f), np.concatenate(found_h)
    order = np.lexsort((h, f))
    return f[order], h[order]


def _scan_stats(scan: BoundedScan, checks: int, unknown_checks: int) -> dict:
    return {
        "enumerated": len(scan.polys),
        "proved_nilpotent": len(scan.proved_nilpotent),
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
    status = np.array([scan.status[f].status for f in scan.polys], dtype=str)
    bad = np.flatnonzero(np.where(member, status == NOT_NILPOTENT, status == NILPOTENT))
    if len(bad):
        i = int(bad[0])
        direction = "criterion->probe" if member[i] else "probe->criterion"
        return AgreementResult(False, exact_failure=True, witness={"direction": direction, "f": scan.polys[i]})
    return AgreementResult(True, unknown=int(np.count_nonzero(member & (status == UNKNOWN))))


# ---------------------------------------------------------------------------
# extended ideals
# ---------------------------------------------------------------------------


def extended_ideal_membership(ideal: Ideal, f: SkewPolynomial) -> bool:
    """f in I<x_1..x_n>: every coefficient of f lies in I."""
    if ideal.ring is not f.ext.base:
        raise NotAnIdeal("ideal does not live in the base ring of f")
    return all(bool(ideal.mask[c]) for c in f.terms.values())


@dataclass
class IdealClosureReport:
    holds: bool
    witness: Optional[dict] = None
    delta_invariant: Optional[bool] = None
    agrees: Optional[bool] = None  # closure outcome vs the invariance criterion


CLOSURE_DEGREE_CAP = 2  # the largest monomial degree of the members the closure report tries


def extended_ideal_closure_report(ideal: Ideal, A: ExtensionPresentation) -> IdealClosureReport:
    """Bounded check that I<x> absorbs generator and base-element products.

    For a derivation-type A this is the executable face of: I<x_1..x_n> is an
    ideal of A iff I is a Delta-invariant ideal of R.
    """
    if ideal.ring is not A.base:
        raise NotAnIdeal("ideal does not live in the base ring")
    A._require_verified()
    monos = multi_indices(A.n, 0, CLOSURE_DEGREE_CAP)
    members = [
        A.monomial(alpha, coeff=r)
        for alpha in monos
        for r in ideal.sorted_elements()
        if not r.is_zero
    ]
    multipliers = [A.variable(i) for i in range(1, A.n + 1)]
    multipliers += [A.scalar(r) for r in A.base.elements() if not r.is_zero]
    witness = next(
        (
            {"kind": kind, "member": f, "multiplier": h, "product": p}
            for f in members
            for h in multipliers
            for kind, p in (("left", h * f), ("right", f * h))
            if not extended_ideal_membership(ideal, p)
        ),
        None,
    )
    holds = witness is None
    inv = invariance(ideal, A.system, DELTA_INVARIANT)
    return IdealClosureReport(
        holds=holds,
        witness=witness,
        delta_invariant=inv.holds,
        agrees=(holds == inv.holds) if A.derivation_type else None,
    )


# ---------------------------------------------------------------------------
# bounded Armendariz checks
# ---------------------------------------------------------------------------


@dataclass
class ArmendarizResult:
    holds: bool
    witness: Optional[dict] = None
    degree_cap: int = 0
    support_cap: int = 0
    weak: bool = False


def bounded_skew_armendariz(
    A: ExtensionPresentation,
    degree_cap: int,
    support_cap: int,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    weak: bool = False,
) -> ArmendarizResult:
    """fg = 0 must force every cross-product a_i sigma^{alpha_i}(b_j) = 0.

    The weak variant restricts both factors to the shape a_0 + a_1 x_1 + ... +
    a_n x_n, on which sigma^{alpha_i} is sigma_i for the x_i term and the
    identity for a_0.
    """
    A._require_verified()
    # both budgets are checked on the counts, before anything is enumerated
    if weak:
        monos = [A._zero_exp] + [
            tuple(1 if t == i else 0 for t in range(A.n)) for i in range(A.n)
        ]
    else:
        monos = multi_indices(A.n, 0, degree_cap)
    total = _count_over_monomials(A, len(monos), support_cap)
    if not weak and total > pair_budget:
        raise BudgetExceeded(total, pair_budget, "bounded polynomial enumeration")
    if total**2 > pair_budget:
        raise BudgetExceeded(total**2, pair_budget, "Armendariz pair enumeration")
    polys = _polys_over_monomials(A, monos, support_cap)
    table = AtomTable(A, monos)
    K = coefficient_keys(polys, monos)  # total**2 <= pair_budget keeps this small
    # each polynomial's support slots in order, padded with coefficient 0,
    # and images[g, alpha, j] = sigma^alpha(b_j) of the j-th coefficient of g
    slots = np.argsort(K == 0, axis=1, kind="stable")[:, :support_cap]
    coefs = np.take_along_axis(K, slots, axis=1)
    sigma_pow = np.stack([A.system.sigma_power(alpha) for alpha in monos]).astype(np.int32)
    images = sigma_pow[:, coefs].transpose(1, 0, 2)
    # the zero products f g from the join of the right values of f; the cross
    # products are tested only on those pairs, in f-major, g-minor order
    factors = _factor_block(table, support_cap, len(polys))
    chunk = max(1, ROW_ENTRIES // slots.shape[1] ** 2)
    for lo in range(0, len(polys), factors):
        F, G = _zero_products(table, table.right_values(K[lo : lo + factors]), support_cap)
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
                        "f": polys[f[k]],
                        "g": polys[g[k]],
                        "alpha": monos[slots[f[k], i]],
                        "beta": monos[slots[g[k], j]],
                    },
                    degree_cap=degree_cap,
                    support_cap=support_cap,
                    weak=weak,
                )
    return ArmendarizResult(True, degree_cap=degree_cap, support_cap=support_cap, weak=weak)


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
