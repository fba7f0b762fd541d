"""The bounded evidence as it was computed before it was array-native: oracles for the tests.

`BoundedScan` builds its key rows by combinatorics, reads the leading chain
at each row's leading column, and keeps its statuses in arrays; the scan
below builds every polynomial, finds each key row and each leading chain
in a Python loop, and keeps a dict of results.  `AtomTable` forms its value
rows by gathering whole table rows and columns in int16; the value rows
below form a flat index over the whole output.  `_zero_products` takes each
slot row's contiguous key range; the pair join below matches every prefix
and keeps the matches whose slot comes after it.
"""

from __future__ import annotations

import itertools

import numpy as np

from skewpbw.extension import AtomTable
from skewpbw.maps import multi_indices
from skewpbw.modules import finite_modules
from skewpbw.probes import (
    BLOCK_ENTRIES,
    FINITE_MODULE,
    LEADING_CHAIN,
    NOT_NILPOTENT,
    ProbeResult,
    _leading_chain_holds,
    _polys_over_monomials,
    _power_chain,
    _row_ids,
    _zero_rows,
)


def coefficient_keys(polys, monos) -> np.ndarray:
    """Coefficient element index per monomial of `monos`, one row per poly."""
    pos = {alpha: k for k, alpha in enumerate(monos)}
    K = np.zeros((len(polys), len(pos)), dtype=np.int32)
    rows, cols, vals = [], [], []
    for r, f in enumerate(polys):
        for alpha, c in f.terms.items():
            rows.append(r)
            cols.append(pos[alpha])
            vals.append(c)
    K[rows, cols] = vals
    return K


def oracle_scan(A, degree_cap, support_cap, exponent_cap, power_chain=_power_chain):
    """(polys, keys, leading-chain answers, status dict) of the scan's old loops, in enumeration order.

    `power_chain(f, exponent_cap)` decides the rows that no certificate decides.
    """
    monos = multi_indices(A.n, 0, degree_cap)
    polys = _polys_over_monomials(A, monos, support_cap)
    K = coefficient_keys(polys, monos)
    modules = finite_modules(A)
    leading = [A.bijective and _leading_chain_holds(f) for f in polys]
    status = {}
    block = max(1, BLOCK_ENTRIES // modules.width)
    for lo in range(0, len(K), block):
        reason = [LEADING_CHAIN if holds else None for holds in leading[lo : lo + block]]
        todo = np.array([i for i, r in enumerate(reason) if r is None], dtype=int)
        for i in todo[modules.decide(K[lo + todo], monos)]:
            reason[i] = FINITE_MODULE
        for f, r in zip(polys[lo : lo + block], reason):
            status[f] = power_chain(f, exponent_cap) if r is None else ProbeResult(NOT_NILPOTENT, reason=r)
    return polys, K, leading, status


def _times(table: AtomTable, a, b):
    return table._mul[np.add(np.multiply(a, table.size, dtype=np.intp), b, dtype=np.intp)]


def _slot_sum(table: AtomTable, K, shape, term):
    out = np.zeros((len(K),) + shape, dtype=np.int32)
    for b in range(len(table.monos)):
        rows = np.flatnonzero(K[:, b])
        if len(rows):
            out[rows] = table.plus(out[rows], term(rows, b))
    return out


def oracle_left_values(table: AtomTable, K) -> np.ndarray:
    """VL[f][alpha][c] = c (x^alpha f), by flat indices over the whole output."""
    L, W = len(table.monos), table.width
    xf = _slot_sum(table, K, (L, W), lambda rows, b: table.Q[:, b, K[rows, b]].transpose(1, 0, 2))
    return _times(table, np.arange(table.size, dtype=np.int32)[None, None, :, None], xf[:, :, None, :])


def oracle_right_values(table: AtomTable, K) -> np.ndarray:
    """VR[f][alpha][c] = f (c x^alpha), by flat indices over the whole output."""
    return _slot_sum(table, K, table.Q.shape[1:], lambda rows, b: _times(table, K[rows, b, None, None, None], table.Q[b]))


def oracle_zero_products(table: AtomTable, V, support_cap):
    """The pair join: every slot row against every prefix, then the matches whose slot comes later.

    Returns (factor, h) index arrays, sorted factor-major, h-minor.
    """
    nF, L, R, W = V.shape
    r = R - 1
    neg = table.A.base.neg_array
    rows = V[:, :, 1:]
    f, a, c = np.nonzero(_zero_rows(rows))
    found_f, found_h = [f], [a * r + c]
    offset = L * r
    prefixes = [(a,) for a in range(L - 1)]
    partial = rows[:, :-1]
    for s in range(2, support_cap + 1):
        if not prefixes:
            break
        combos = list(itertools.combinations(range(L), s))
        where = {prefix: k for k, prefix in enumerate(prefixes)}
        rank = np.full((len(prefixes), L), -1)
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
        v = np.repeat(np.arange(len(count)), count)
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


def listed_pairs(chunks):
    """The (factor, h) chunks of `_zero_products`, concatenated: empty arrays when there is none."""
    chunks = list(chunks)
    empty = np.zeros(0, dtype=np.intp)
    return np.concatenate([empty, *(f for f, _ in chunks)]), np.concatenate([empty, *(h for _, h in chunks)])
