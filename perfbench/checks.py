"""Checks on the benchmark's answers, made apart from the program.

Every check returns a list of failure messages; an empty list means the
answers passed.  The reference values are closed forms and predicted sizes
written here, or properties the method must have; none is a copy of the
program's own output.
"""

from __future__ import annotations

import itertools
from math import prod

# ---------------------------------------------------------------------------
# products: closed forms in three presentations
# ---------------------------------------------------------------------------


def coord_terms(f) -> dict:
    """A SkewPolynomial as {exponent tuple: coefficient coordinate tuple}."""
    base = f.ext.base
    return {alpha: base.element_from_index(c).coords for alpha, c in f.terms.items()}


def _collect(pairs, add, is_zero) -> dict:
    out: dict = {}
    for alpha, c in pairs:
        out[alpha] = add(out[alpha], c) if alpha in out else c
    return {alpha: c for alpha, c in out.items() if not is_zero(c)}


def product_z4_commutative(f: dict, g: dict) -> dict:
    """Z_4[x1, x2]: convolution of coefficients mod 4."""
    pairs = [
        (tuple(a + b for a, b in zip(alpha, beta)), ((cf[0] * cg[0]) % 4,))
        for alpha, cf in f.items()
        for beta, cg in g.items()
    ]
    return _collect(pairs, lambda u, v: ((u[0] + v[0]) % 4,), lambda c: c[0] == 0)


def product_quasi_comm_z3(f: dict, g: dict) -> dict:
    """Z_3 with x2 x1 = 2 x1 x2: x1^a x2^b . x1^c x2^d = 2^(bc) x1^(a+c) x2^(b+d)."""
    pairs = [
        ((a + c, b + d), ((cf[0] * cg[0] * pow(2, b * c, 3)) % 3,))
        for (a, b), cf in f.items()
        for (c, d), cg in g.items()
    ]
    return _collect(pairs, lambda u, v: ((u[0] + v[0]) % 3,), lambda c: c[0] == 0)


def _z2y_mul(p: tuple, q: tuple) -> tuple:
    # (u1 + v1 y)(u2 + v2 y) in Z_2[y]/(y^2)
    return ((p[0] * q[0]) % 2, (p[0] * q[1] + p[1] * q[0]) % 2)


def product_weyl_z2(f: dict, g: dict) -> dict:
    """Z_2[y]/(y^2)[x; d/dy]: (p x^i)(q x^j) = pq x^(i+j) + i p q' x^(i+j-1).

    This is x^i q = q x^i + i q' x^(i-1) (Leibniz, with q'' = 0 here).
    """
    pairs = []
    for (i,), p in f.items():
        for (j,), q in g.items():
            pairs.append(((i + j,), _z2y_mul(p, q)))
            if i % 2:
                pairs.append(((i + j - 1,), _z2y_mul(p, (q[1], 0))))
    return _collect(
        pairs, lambda u, v: ((u[0] + v[0]) % 2, (u[1] + v[1]) % 2), lambda c: c == (0, 0)
    )


CLOSED_FORMS = {
    "poly_z4_2v": product_z4_commutative,
    "quasi_comm_z3": product_quasi_comm_z3,
    "weyl_like_2": product_weyl_z2,
}


def check_products(name: str, samples: list) -> list:
    """samples: (f, g, fg) triples of coordinate-term dicts from the engine."""
    closed = CLOSED_FORMS[name]
    failures = []
    for f, g, fg in samples:
        want = closed(f, g)
        if fg != want:
            failures.append(f"{name}: ({f})*({g}) gave {fg}, closed form {want}")
    return failures


# ---------------------------------------------------------------------------
# radicals: sizes and sets the algebra predicts
# ---------------------------------------------------------------------------

# For each factor kind: (number of coordinates, |J(R)|, membership of a
# coordinate vector in J(R), whether R is NI), as functions of the parameters.
#   trunc(p, m)   Z_p[y]/(y^m) on 1, y, .., y^(m-1):   J = (y), p^(m-1)
#   upper(p)      U_2(Z_p) on e11, e12, e22:            J = Z_p e12, p
#   full(p)       M_2(Z_p):                             J = 0, not NI
#   zn(p)         Z_p, p prime:                         J = 0
#   clifford(n)   Z_2[y_1..y_n], products of y's zero:  J = (y_1..y_n), 2^n
#   q8            F_2[Q_8]:                             J = augmentation ideal, 128
FACTORS = {
    "trunc": (lambda p, m: m, lambda p, m: p ** (m - 1), lambda c: c[0] == 0, True),
    "upper": (lambda p: 3, lambda p: p, lambda c: c[0] == 0 and c[2] == 0, True),
    "full": (lambda p: 4, lambda p: 1, lambda c: not any(c), False),
    "zn": (lambda p: 1, lambda p: 1, lambda c: not any(c), True),
    "clifford": (lambda n: n + 1, lambda n: 2**n, lambda c: c[0] == 0, True),
    "q8": (lambda: 8, lambda: 128, lambda c: sum(c) % 2 == 0, True),
}


def predicted_jacobson_size(factors: list) -> int:
    """|J(R_1 x .. x R_k)| = |J(R_1)| ... |J(R_k)|."""
    return prod(FACTORS[kind][1](*args) for kind, *args in factors)


def predicted_in_jacobson(factors: list, coords: tuple) -> bool:
    """J(R_1 x R_2) = J(R_1) x J(R_2), factor by factor on coordinate blocks."""
    at = 0
    for kind, *args in factors:
        width, _, member, _ = FACTORS[kind]
        width = width(*args)
        if not member(coords[at : at + width]):
            return False
        at += width
    return True


def check_radicals(label: str, factors: list, ring, profile) -> list:
    """J, N_*, N^* and L of a finite ring against the predicted J."""
    failures = []
    radicals = {
        "jacobson": profile.jacobson_radical.mask,
        "prime": profile.prime_radical.mask,
        "upper_nil": profile.upper_nilradical.mask,
        "levitzki": profile.levitzki_radical.mask,
    }
    j = radicals["jacobson"]
    for name, mask in radicals.items():
        if not (mask == j).all():
            failures.append(f"{label}: {name} radical differs from the Jacobson radical")
    size = int(j.sum())
    want = predicted_jacobson_size(factors)
    if size != want:
        failures.append(f"{label}: |J| = {size}, predicted {want}")
    for coords in itertools.product(*(range(k) for k in ring.orders)):
        if bool(j[ring.index_of(coords)]) != predicted_in_jacobson(factors, coords):
            failures.append(f"{label}: J membership of {coords} is not J(R1) x J(R2)")
            break
    ni = all(FACTORS[kind][3] for kind, *_ in factors)
    if profile.NI != ni:
        failures.append(f"{label}: NI = {profile.NI}, predicted {ni}")
    return failures


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

# enveloping algebras over a field are domains: no nonzero nilpotent
DOMAINS = {"heisenberg_2"}


def _mul_coords(constants, orders, a: tuple, b: tuple) -> tuple:
    m = len(orders)
    acc = [0] * m
    for s, x in enumerate(a):
        if x:
            for t, y in enumerate(b):
                if y:
                    row = constants[s][t]
                    for u in range(m):
                        acc[u] += x * y * row[u]
    return tuple(acc[u] % orders[u] for u in range(m))


def plain_nilpotents(ring) -> set:
    """{coordinates of r : r^|R| = 0}, by repeated multiplication from the constants."""
    constants = ring.constants.tolist()
    orders = ring.orders
    zero = (0,) * len(orders)
    out = set()
    for r in itertools.product(*(range(k) for k in orders)):
        power = r
        for _ in range(ring.size):
            if power == zero:
                out.add(r)
                break
            power = _mul_coords(constants, orders, power, r)
    return out


def check_probes(name: str, results: list, cap: int, nilpotent_coords=None) -> list:
    """results: (f, ProbeResult) pairs.  nilpotent_coords: N(R) when N(R) is Delta-invariant."""
    failures = []
    for f, r in results:
        if r.status == "nilpotent":
            k = r.index
            if not (f**k).is_zero or (f ** (k - 1)).is_zero:
                failures.append(f"{name}: {f} has f^{k} != 0 or f^{k - 1} = 0")
            if name in DOMAINS:
                failures.append(f"{name}: {f} proved nilpotent in a domain")
            if nilpotent_coords is not None and any(
                c not in nilpotent_coords for c in coord_terms(f).values()
            ):
                failures.append(f"{name}: nilpotent {f} has a coefficient outside N(R)")
        elif r.reason == "stabilized_power":
            if not _stabilizes(f, cap):
                failures.append(f"{name}: {f} has no f^m = f^2m != 0 with 2m <= {cap}")
        elif r.reason == "unit_leading_chain":
            if (f**cap).is_zero:
                failures.append(f"{name}: {f} has f^{cap} = 0")
    return failures


def _stabilizes(f, cap: int) -> bool:
    # powers associated to the left (f * f^(k-1)); the probe associates right
    powers = [None, f]
    for k in range(2, cap + 1):
        powers.append(f * powers[-1])
        if k % 2 == 0 and not powers[k].is_zero and powers[k // 2] == powers[k]:
            return True
    return False


# ---------------------------------------------------------------------------
# verdicts of `skewpbw check --json`
# ---------------------------------------------------------------------------

NOT_NI = {"weyl_like_2", "swap_extension", "matrix_poly_2"}
NI = {"euler_like_2", "euler_like_3", "quasi_comm_z3", "poly_z4_2v"}


def _a_ni_conditions(report: dict) -> list:
    return [
        c
        for res in report["results"]
        for c in res["preconditions"] + res["conclusions"]
        if c["name"].endswith("A NI (bounded)")
    ]


def check_verdicts(name: str, exit_code: int, report: dict) -> list:
    failures = []
    if exit_code != 0 or report["exit"] != 0:
        failures.append(f"{name}: exit {exit_code} (report {report['exit']}) at the recorded budget")
    for res in report["results"]:
        if res["verdict"] == "Violated":
            failures.append(f"{name}: {res['id']} Violated")
    conds = _a_ni_conditions(report)
    if name in NOT_NI:
        if not conds or any(c["holds"] is not False or not c["exact"] for c in conds):
            failures.append(f"{name}: 'A NI (bounded)' is not exactly false")
    if name in NI and any(c["holds"] is False for c in conds):
        failures.append(f"{name}: 'A NI (bounded)' is false")
    return failures
