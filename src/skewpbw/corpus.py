"""Built-in example families: rings, maps, and presentations used everywhere.

The flagship algebras these imitate (Weyl algebras, enveloping algebras,
graded Clifford algebras) live over infinite rings; each builder constructs a
finite truncation that preserves the phenomenon a theorem check exercises --
Delta-(non)invariance of the nilpotent set, graded structure, connectedness.
Every entry records its expected profile and re-checks it on construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import BadShape
from .extension import ExtensionPresentation, make_extension, verify_presentation
from .graded import Grading, attach_grading, trivial_grading
from .maps import RingMap, SigmaSystem, identity_map, make_endomorphism, make_sigma_derivation
from .rings import FiniteRing, classify_ring, make_ring

_PRIMES = (2, 3, 5)


def _check_prime(p: int) -> None:
    if p not in _PRIMES:
        raise BadShape(f"p must be a prime <= 5, got {p}")


# ---------------------------------------------------------------------------
# rings
# ---------------------------------------------------------------------------


def zn(n: int) -> FiniteRing:
    """The cyclic ring Z_n."""
    if n < 2:
        raise BadShape("n must be >= 2")
    return make_ring([n], [[[1]]], [1], name=f"Z{n}")


def _matrix_units(p: int, units: list, name: str) -> FiniteRing:
    """The Z_p-span of the 2x2 matrix units e_rc, (r, c) in units, which must be closed under products."""
    _check_prime(p)
    # e_ab e_cd = e_ad if b == c, else 0
    constants = [[[int(b[0] == a[1] and (a[0], b[1]) == u) for u in units] for b in units] for a in units]
    one = [int(r == c) for r, c in units]
    return make_ring([p] * len(units), constants, one, name=name)


def matrix_full(p: int) -> FiniteRing:
    """M_2(Z_p) on the matrix units e11, e12, e21, e22."""
    return _matrix_units(p, [(0, 0), (0, 1), (1, 0), (1, 1)], f"M2(Z{p})")


def matrix_upper(p: int) -> FiniteRing:
    """U_2(Z_p), upper-triangular 2x2 matrices, on e11, e12, e22."""
    return _matrix_units(p, [(0, 0), (0, 1), (1, 1)], f"U2(Z{p})")


def product_ring(r1: FiniteRing, r2: FiniteRing) -> FiniteRing:
    """Direct product with block-diagonal structure constants."""
    m1, m2 = r1.m, r2.m
    m = m1 + m2
    constants = [[[0] * m for _ in range(m)] for _ in range(m)]
    for i in range(m1):
        for j in range(m1):
            row = r1.constants[i, j]
            for u in range(m1):
                constants[i][j][u] = int(row[u])
    for i in range(m2):
        for j in range(m2):
            row = r2.constants[i, j]
            for u in range(m2):
                constants[m1 + i][m1 + j][m1 + u] = int(row[u])
    one = list(r1.one.coords) + list(r2.one.coords)
    orders = list(r1.orders) + list(r2.orders)
    return make_ring(orders, constants, one, name=f"{r1.name}x{r2.name}")


def trunc_poly(p: int, m: int) -> FiniteRing:
    """Z_p[y]/(y^m) on 1, y, ..., y^{m-1}, graded by exponent."""
    _check_prime(p)
    if not (2 <= m <= 4):
        raise BadShape("truncation order m must be in 2..4")
    constants = [
        [[1 if (u == i + j and i + j < m) else 0 for u in range(m)] for j in range(m)]
        for i in range(m)
    ]
    one = [1] + [0] * (m - 1)
    return make_ring([p] * m, constants, one, name=f"Z{p}[y]/(y^{m})")


def trunc_poly_grading(ring: FiniteRing) -> Grading:
    return attach_grading(ring, list(range(ring.m)))


def field4() -> FiniteRing:
    """The field with four elements, Z_2[t]/(t^2+t+1)."""
    return make_ring([2, 2], [[[1, 0], [0, 1]], [[0, 1], [1, 1]]], [1, 0], name="F4")


# the elements (sign, unit) of Q_8 and their generator index in F_2[Q_8]
_Q8 = {g: n for n, g in enumerate((s, b) for b in "1ijk" for s in (1, -1))}


def group_ring_q8() -> FiniteRing:
    """F_2[Q_8], the group ring of the quaternion group over Z_2.

    The classical example of a reversible ring that is not symmetric; local
    with nilpotent augmentation ideal, so NI, NJ and 2-primal.
    """
    def bmul(a, b):
        if a == "1":
            return (1, b)
        if b == "1":
            return (1, a)
        if a == b:
            return (-1, "1")
        table = {
            ("i", "j"): (1, "k"),
            ("j", "k"): (1, "i"),
            ("k", "i"): (1, "j"),
            ("j", "i"): (-1, "k"),
            ("k", "j"): (-1, "i"),
            ("i", "k"): (-1, "j"),
        }
        return table[(a, b)]

    m = len(_Q8)
    constants = [[[0] * m for _ in range(m)] for _ in range(m)]
    for (sg, bg), g in _Q8.items():
        for (sh, bh), h in _Q8.items():
            s, b = bmul(bg, bh)
            constants[g][h][_Q8[(sg * sh * s, b)]] = 1
    one = [0] * m
    one[_Q8[(1, "1")]] = 1
    return make_ring([2] * m, constants, one, name="F2[Q8]")


def clifford_base(n: int, p: int = 2) -> FiniteRing:
    """Z_p[y_1..y_n] truncated above degree 2, with the y_k in degree 2."""
    _check_prime(p)
    if not (1 <= n <= 3):
        raise BadShape("n must be in 1..3")
    m = n + 1  # generators: 1, y_1, ..., y_n
    constants = [[[0] * m for _ in range(m)] for _ in range(m)]
    for j in range(m):
        constants[0][j][j] = 1
        constants[j][0][j] = 1
    one = [1] + [0] * n
    return make_ring([p] * m, constants, one, name=f"CliffBase{n}(Z{p})")


# ---------------------------------------------------------------------------
# corpus entries
# ---------------------------------------------------------------------------


@dataclass
class CorpusEntry:
    name: str
    ring: FiniteRing
    presentation: Optional[ExtensionPresentation] = None
    grading: Optional[Grading] = None
    expected: dict = field(default_factory=dict)
    budget: Optional[dict] = None  # per-entry bounded-search caps for the sweep
    maps: dict[str, RingMap] = field(default_factory=dict)  # a definition file's map blocks, by name
    # the harness's Evidence by budget caps, made on first use.  It is kept
    # here rather than on the presentation, which its scan points back to, and
    # it holds no reference to the entry, so no cycle keeps it alive once the
    # entry is dropped
    evidence: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.selfcheck()

    @property
    def system(self) -> Optional[SigmaSystem]:
        """The presentation's (Sigma, Delta), or None for a ring-only entry."""
        return None if self.presentation is None else self.presentation.system

    def selfcheck(self) -> None:
        """Recompute the expected ring profile; raises on mismatch."""
        if self.expected:
            profile = classify_ring(self.ring, cap=max(256, self.ring.size))
            flags = profile.flags()
            for key, want in self.expected.items():
                got = flags.get(key)
                if got != want:
                    raise BadShape(f"{self.name}: expected {key}={want}, recomputed {got}")


_BUDGET = {"degree_cap": 2, "support_cap": 2, "exponent_cap": 8}  # the sweep caps of most entries


def _extension(name: str, sigmas: list, deltas=None, d=None, tails=None, budget=_BUDGET, **fields) -> CorpusEntry:
    """The entry of the verified presentation sigma(R)<x_1..x_n>, named like the entry.

    `budget` is the entry's bounded-search caps for the sweep; `fields` go to
    the CorpusEntry as they are.
    """
    system = SigmaSystem(sigmas, deltas)
    A = verify_presentation(make_extension(system.ring, system, d=d, tails=tails, name=name))
    return CorpusEntry(name, system.ring, A, budget=dict(budget), **fields)


def swap_extension() -> CorpusEntry:
    """Quasi-commutative A over Z_2 x Z_2 with sigma the coordinate swap.

    An endomorphism-type skew polynomial ring whose automorphism is not
    compatible: the base is reduced (hence NI) but not weak Sigma-compatible,
    and A is not NI: f = (1,0)x and g = (0,1)x are nilpotent while f + g = x
    is not.
    """
    ring = product_ring(zn(2), zn(2))
    swap = make_endomorphism(ring, [[0, 1], [1, 0]], name="swap")
    return _extension(
        "swap_extension",
        [swap],
        grading=trivial_grading(ring),
        expected={"reduced": True, "NI": True, "NJ": True},
    )


def _ddy_matrix(ring: FiniteRing) -> list:
    # d/dy on the basis 1, y, ..., y^{m-1}
    m = ring.m
    mat = [[0] * m for _ in range(m)]
    for k in range(1, m):
        mat[k - 1][k] = k
    return mat


def _yddy_matrix(ring: FiniteRing) -> list:
    m = ring.m
    mat = [[0] * m for _ in range(m)]
    for k in range(1, m):
        mat[k][k] = k
    return mat


def weyl_like(p: int) -> CorpusEntry:
    """Derivation-type A over Z_p[y]/(y^p) with delta = d/dy.

    It stands for the first Weyl algebra, the ring of differential operators,
    over a truncated base.  Here delta(N(R)) is not contained in N(R)
    (delta(y) = 1), so A is not NI: y is nilpotent but x*y = yx + 1 is a
    non-nilpotent idempotent-like element.

    d/dy is a sigma-derivation of the quotient only when char = truncation
    order, so p must be 2 or 3 (m = p stays within the truncation range).
    """
    if p not in (2, 3):
        raise BadShape("weyl_like needs p in {2, 3}")
    ring = trunc_poly(p, p)
    ident = identity_map(ring)
    ddy = make_sigma_derivation(ring, ident, _ddy_matrix(ring), name="d/dy")
    return _extension(f"weyl_like({p})", [ident], [ddy], expected={"NI": True, "NJ": True, "reduced": False})


def euler_like(p: int) -> CorpusEntry:
    """Derivation-type A over Z_p[y]/(y^p) with delta = y*d/dy.

    It stands for the differential ring of the Euler operator over a
    truncated base.  N(R) = (y) is Delta-invariant, so A stays NI (and NJ,
    derivation type).
    """
    if p not in (2, 3):
        raise BadShape("euler_like needs p in {2, 3}")
    ring = trunc_poly(p, p)
    ident = identity_map(ring)
    yddy = make_sigma_derivation(ring, ident, _yddy_matrix(ring), name="y*d/dy")
    # p = 3 has 26 nonzero coefficients; support 1 keeps the closure check
    # inside the default pair budget
    return _extension(
        f"euler_like({p})",
        [ident],
        [yddy],
        budget={"degree_cap": 2, "support_cap": 3 if p == 2 else 1, "exponent_cap": 8},
        expected={"NI": True, "NJ": True, "reduced": False},
    )


def weyl_like_corrupted() -> ExtensionPresentation:
    """A deliberately inconsistent two-variable Weyl variant.

    delta_1 = d/dy over Z_2[y]/(y^2) with the inter-variable relation
    x_2 x_1 = x_1 x_2 + y x_1: the linear tail breaks the overlap
    (x_2 x_1) y = x_2 (x_1 y), so verify_presentation must fail.
    """
    ring = trunc_poly(2, 2)
    ident = identity_map(ring)
    ddy = make_sigma_derivation(ring, ident, _ddy_matrix(ring), name="d/dy")
    zero = None
    system = SigmaSystem([ident, ident], [ddy, zero])
    y = ring.el([0, 1])
    tails = {(1, 2): (ring.zero, (y, ring.zero))}
    return make_extension(ring, system, tails=tails, name="weyl_like_corrupted")


def clifford_trunc(n: int, ms: Optional[list] = None, p: int = 2) -> CorpusEntry:
    """Graded extension x_j x_i = -x_i x_j + sum_k (M_k)_{ij} y_k over the
    truncated base with the y_k in degree 2.

    It stands for a graded Clifford algebra over a polynomial base.  Only the
    off-diagonal entries of the symmetric matrices M_k enter the presentation
    (relations exist for i < j only).
    """
    if not (2 <= n <= 3):
        raise BadShape("n must be 2 or 3")
    ring = clifford_base(n, p)
    labels = [0] + [2] * n
    grading = attach_grading(ring, labels)
    minus_one = -ring.one
    if ms is None:
        # default: one off-diagonal coupling, tail y_1 on the (1,2) relation
        ms = [[[1 if (a != b and k == 0) else 0 for b in range(n)] for a in range(n)] for k in range(n)]
    d = {}
    tails = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            d[(i, j)] = minus_one
            coords = [0] * ring.m
            for k in range(n):
                coords[1 + k] = (coords[1 + k] + int(ms[k][i - 1][j - 1])) % p
            t0 = ring.el(coords)
            tails[(i, j)] = (t0, tuple([ring.zero] * n))
    return _extension(
        f"clifford_trunc({n})",
        [identity_map(ring)] * n,
        d=d,
        tails=tails,
        grading=grading,
        expected={"NI": True, "NJ": True},
    )


def q8_twist() -> CorpusEntry:
    """F_2[Q_8][x; rot] with rot the order-3 automorphism i -> j -> k -> i.

    A skew polynomial ring twisted by a group automorphism, and the only entry
    with a noncommutative base and a twisted variable.  The augmentation ideal
    is stable under rot, so the base stays weak Sigma-compatible and the NJ
    transfer applies.
    """
    ring = group_ring_q8()
    rot = {"1": "1", "i": "j", "j": "k", "k": "i"}
    mat = [[0] * ring.m for _ in range(ring.m)]
    for (s, b), g in _Q8.items():
        mat[_Q8[(s, rot[b])]][g] = 1
    return _extension(
        "q8_twist",
        [make_endomorphism(ring, mat, name="rot")],
        budget={"degree_cap": 1, "support_cap": 1, "exponent_cap": 8},
        grading=trivial_grading(ring),
        expected={"NI": True, "NJ": True, "reversible": True, "symmetric": False},
    )


def heisenberg(p: int = 2) -> CorpusEntry:
    """Enveloping algebra of the Heisenberg Lie algebra over Z_p.

    Three variables with x_2 x_1 = x_1 x_2 - x_3 and x_3 central: the only
    three-variable corpus entry, so it is the one that exercises the
    relation-relation overlap check with nonzero tails.
    """
    _check_prime(p)
    ring = zn(p)
    tails = {(1, 2): (ring.zero, (ring.zero, ring.zero, -ring.one))}
    return _extension(
        f"heisenberg({p})",
        [identity_map(ring)] * 3,
        tails=tails,
        expected={"NI": True, "NJ": True, "reduced": True, "domain": True},
    )


def quasi_comm(p: int = 3, n: int = 2, d_value=2) -> CorpusEntry:
    """Quasi-commutative bijective extension over Z_p with x_j x_i = d_ij x_i x_j.

    It stands for the quantum plane (n = 2) or quantum space over a prime
    field.  d_value is either a single integer used for every pair or a full
    table {(i, j): integer} over the pairs i < j.
    """
    _check_prime(p)
    if not (1 <= n <= 3):
        raise BadShape("n must be in 1..3")
    ring = zn(p)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if isinstance(d_value, dict):
        d = {pair: ring.el([d_value.get(pair, 1)]) for pair in pairs}
        label = "table"
    else:
        d = {pair: ring.el([d_value]) for pair in pairs}
        label = str(d_value)
    return _extension(
        f"quasi_comm(Z{p},d={label})",
        [identity_map(ring)] * n,
        d=d,
        grading=trivial_grading(ring),
        expected={"NI": True, "NJ": True, "reduced": True},
    )


def commutative_poly(n_modulus: int = 4, nvars: int = 2) -> CorpusEntry:
    """Ordinary polynomial ring Z_n[x_1..x_k]: the commutative-oracle fixture."""
    if not (1 <= nvars <= 3):
        raise BadShape("nvars must be in 1..3")
    ring = zn(n_modulus)
    return _extension(
        f"poly(Z{n_modulus},{nvars})",
        [identity_map(ring)] * nvars,
        grading=trivial_grading(ring),
        expected={"NI": True, "NJ": True},
    )


def matrix_poly(p: int = 2) -> CorpusEntry:
    """M_2(Z_p)[x] with identity maps: a base that is not NI.

    Weak compatibility is automatic (Sigma = {id}), so the NI transfer theorem
    forces A to fail NI too; the bounded check finds the base-level witness.
    """
    ring = matrix_full(p)
    return _extension(
        f"matrix_poly({p})",
        [identity_map(ring)],
        budget={"degree_cap": 1, "support_cap": 2, "exponent_cap": 8},
        grading=trivial_grading(ring),
        expected={"NI": False, "NJ": False},
    )


# ---------------------------------------------------------------------------
# standard collections
# ---------------------------------------------------------------------------


def standard_rings() -> list[CorpusEntry]:
    """The ring-level corpus used by the radical and classification oracles."""
    return [
        CorpusEntry("Z4", zn(4), expected={"NI": True, "NJ": True, "two_primal": True, "reduced": False}),
        CorpusEntry("Z6", zn(6), expected={"NI": True, "NJ": True, "reduced": True}),
        CorpusEntry("Z2xZ2", product_ring(zn(2), zn(2)), expected={"reduced": True, "NI": True}),
        CorpusEntry("F4", field4(), expected={"reduced": True, "domain": True, "NI": True}),
        CorpusEntry("M2(Z2)", matrix_full(2), expected={"NI": False, "NJ": False, "reduced": False}),
        CorpusEntry("U2(Z2)", matrix_upper(2), expected={"NI": True, "NJ": True, "two_primal": True}),
        CorpusEntry("U2(Z3)", matrix_upper(3), expected={"NI": True, "NJ": True}),
        CorpusEntry("Z2[y]/(y^2)", trunc_poly(2, 2), grading=trunc_poly_grading(trunc_poly(2, 2)),
                    expected={"NI": True, "NJ": True, "reduced": False}),
        CorpusEntry("Z2[y]/(y^3)", trunc_poly(2, 3), expected={"NI": True, "NJ": True}),
        CorpusEntry("Z3[y]/(y^3)", trunc_poly(3, 3), expected={"NI": True, "NJ": True}),
        CorpusEntry("Z2[y]/(y^4)", trunc_poly(2, 4), expected={"NI": True, "NJ": True}),
        CorpusEntry("CliffBase2", clifford_base(2), expected={"NI": True, "NJ": True}),
        CorpusEntry("Z4xZ2y", product_ring(zn(4), trunc_poly(2, 2)), expected={"NI": True, "NJ": True}),
    ]


BUILDERS: dict[str, Callable[[], CorpusEntry]] = {
    "swap_extension": swap_extension,
    "weyl_like_2": lambda: weyl_like(2),
    "euler_like_2": lambda: euler_like(2),
    "euler_like_3": lambda: euler_like(3),
    "clifford_trunc_2": lambda: clifford_trunc(2),
    "heisenberg_2": lambda: heisenberg(2),
    "quasi_comm_z3": lambda: quasi_comm(3, 2, 2),
    "poly_z4_2v": lambda: commutative_poly(4, 2),
    "matrix_poly_2": lambda: matrix_poly(2),
    "q8_twist": q8_twist,
}


def standard_corpus() -> list[CorpusEntry]:
    """Every presentation-level entry, each fully verified at build time, in BUILDERS order."""
    return [build() for build in BUILDERS.values()]
