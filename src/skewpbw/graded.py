"""N-gradings on finite base rings and the graded-extension conditions.

A grading assigns a natural-number degree to each additive generator; the ring
is graded when every structure constant e_s*e_t lands in the span of degree
deg(s)+deg(t) generators and the identity is concentrated in degree 0.

An extension over a graded base is a graded extension when the sigmas preserve
degree, the deltas raise it by exactly one, every d_ij is homogeneous of
degree 0 and the tails are homogeneous of degree 2 (constant part) and 1
(linear coefficients).  The extension is then N-graded with the component of
degree p spanned by { r_t x^alpha : t + |alpha| = p }.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import (
    BadShape,
    IdentityNotDegreeZero,
    InhomogeneousConstant,
    NotBijective,
    NotGraded,
)
from .extension import ExtensionPresentation, SkewPolynomial
from .rings import FiniteRing, RingElement


class Grading:
    """Degree labels for the additive generators of a finite ring."""

    def __init__(self, ring: FiniteRing, labels: Sequence[int]):
        if len(labels) != ring.m:
            raise BadShape("need one degree label per additive generator")
        self.ring = ring
        self.labels = tuple(int(x) for x in labels)
        if any(x < 0 for x in self.labels):
            raise BadShape("degree labels must be natural numbers")

    @property
    def is_trivial(self) -> bool:
        return all(x == 0 for x in self.labels)

    def component_generators(self, p: int) -> list[int]:
        return [t for t, lab in enumerate(self.labels) if lab == p]

    def element_components(self, r: RingElement) -> dict[int, RingElement]:
        """Split r into homogeneous parts, indexed by degree."""
        out: dict[int, list[int]] = {}
        for t, c in enumerate(r.coords):
            if c == 0:
                continue
            out.setdefault(self.labels[t], [0] * self.ring.m)[t] = c
        return {p: RingElement(self.ring, coords) for p, coords in sorted(out.items())}

    def is_homogeneous(self, r: RingElement, degree: Optional[int] = None) -> bool:
        comps = self.element_components(r)
        if len(comps) > 1:
            return False
        if degree is None or not comps:
            return True
        return next(iter(comps)) == degree

    def __repr__(self) -> str:
        return f"Grading({self.labels})"


def attach_grading(ring: FiniteRing, labels: Sequence[int]) -> Grading:
    """Verify homogeneity of the structure constants and of the identity."""
    g = Grading(ring, labels)
    for t, c in enumerate(ring.one.coords):
        if c != 0 and g.labels[t] != 0:
            raise IdentityNotDegreeZero("identity has a component of positive degree")
    for s in range(ring.m):
        for t in range(ring.m):
            target = g.labels[s] + g.labels[t]
            row = ring.constants[s, t]
            for u in range(ring.m):
                if row[u] != 0 and g.labels[u] != target:
                    raise InhomogeneousConstant(s + 1, t + 1)
    return g


def trivial_grading(ring: FiniteRing) -> Grading:
    return attach_grading(ring, [0] * ring.m)


@dataclass
class GradedProfile:
    is_graded_extension: bool
    connected: bool
    diagnostics: list = field(default_factory=list)  # (condition, witness) on failure

    def __bool__(self) -> bool:
        return self.is_graded_extension


def is_connected(grading: Grading) -> bool:
    """True iff the degree-0 part R_0 is spanned by 1 and is a field.

    Decided by counting.  R_0 is the additive span of the degree-0
    generators, so |R_0| is the product of their orders k_t.  `attach_grading`
    puts 1 in R_0, so Z*1 lies in R_0, and Z*1 has ord(1) elements.  ord(1)
    is the exponent of the additive group, the lcm of every k_t, since
    n*r = (n*1) r for every r.  So R_0 = Z*1 iff |R_0| = ord(1).  Then R_0
    is the ring Z/ord(1), since (a*1)(b*1) = (ab)*1, and that is a field iff
    ord(1) is prime; ord(1) >= 2, since every k_t >= 2.
    """
    ring = grading.ring
    ring._require_size("degree-0 component")
    size = math.prod(ring.orders[t] for t in grading.component_generators(0))
    order = math.lcm(*ring.orders)
    return size == order and all(order % p for p in range(2, math.isqrt(order) + 1))


def is_graded_extension(A: ExtensionPresentation, grading: Grading) -> GradedProfile:
    """Check the two graded-extension conditions; diagnostics carry failures."""
    if grading.ring is not A.base:
        raise BadShape("grading is for a different ring")
    if not A.bijective:
        raise NotBijective("graded extensions are defined for bijective presentations")
    cache = A._graded_profiles
    key = grading.labels
    if key in cache:
        return cache[key]
    diagnostics = []
    gens = [A.base.generator(t) for t in range(A.base.m)]
    for i, s in enumerate(A.system.sigmas):
        for t, e in enumerate(gens):
            if not grading.is_homogeneous(s(e), grading.labels[t]):
                diagnostics.append((f"sigma{i + 1} not degree-preserving", f"e{t + 1}"))
    for i, d in enumerate(A.system.deltas):
        for t, e in enumerate(gens):
            img = d(e)
            if not img.is_zero and not grading.is_homogeneous(img, grading.labels[t] + 1):
                diagnostics.append((f"delta{i + 1} does not raise degree by 1", f"e{t + 1}"))
    for (i, j), dv in A.d.items():
        if not grading.is_homogeneous(dv, 0):
            diagnostics.append((f"d_{{{i},{j}}} not in degree 0", repr(dv)))
    for (i, j), (t0, lin) in A.tails.items():
        if not t0.is_zero and not grading.is_homogeneous(t0, 2):
            diagnostics.append((f"tail constant of ({i},{j}) not in degree 2", repr(t0)))
        for k, tk in enumerate(lin):
            if not tk.is_zero and not grading.is_homogeneous(tk, 1):
                diagnostics.append((f"tail x{k + 1}-coefficient of ({i},{j}) not in degree 1", repr(tk)))
    profile = GradedProfile(
        is_graded_extension=not diagnostics,
        connected=is_connected(grading),
        diagnostics=diagnostics,
    )
    cache[key] = profile
    return profile


def homogeneous_components(f: SkewPolynomial, grading: Grading) -> list[tuple[int, SkewPolynomial]]:
    """Split f into graded parts: r_t x^alpha sits in component t + |alpha|."""
    A = f.ext
    profile = is_graded_extension(A, grading)
    if not profile.is_graded_extension:
        raise NotGraded("presentation is not a graded extension for this grading")
    buckets: dict[int, dict] = {}
    add = A._add
    for alpha, cidx in f.terms.items():
        r = A.base.element_from_index(cidx)
        for t, part in grading.element_components(r).items():
            p = t + sum(alpha)
            bucket = buckets.setdefault(p, {})
            prev = bucket.get(alpha, 0)
            bucket[alpha] = add[prev][part.index] if prev else part.index
    return [(p, SkewPolynomial(A, terms)) for p, terms in sorted(buckets.items())]


def polynomial_is_homogeneous(f: SkewPolynomial, grading: Grading, degree: Optional[int] = None) -> bool:
    comps = [c for c in homogeneous_components(f, grading) if not c[1].is_zero]
    if len(comps) > 1:
        return False
    if degree is None or not comps:
        return True
    return comps[0][0] == degree
