"""The benchmark's three workloads.

Each workload has `setup(seed, workdir)`, which makes the inputs, and
`run(inputs)`, one timed round that starts with cold program caches.
`ops(outputs)` counts the operations of a round, `summary(outputs)` is what
every round must repeat exactly, and `check(inputs, outputs)` returns the
failures found by the checks in `checks.py`, run after the timed phase.

The package's functions are called through their modules (`rings.classify_ring`,
not a name imported here), so the tracer's wrappers see these calls too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections import Counter
from pathlib import Path

from skewpbw import cli, corpus, defio, extension, probes, rings

import checks

# ---------------------------------------------------------------------------
# corpus_sweep: `skewpbw check --json` over the exported corpus
# ---------------------------------------------------------------------------


class CorpusSweep:
    name = "corpus_sweep"
    PRODUCT_SAMPLES = 200  # seeded products per closed-form presentation

    @staticmethod
    def setup(seed: int, workdir: Path) -> dict:
        # the body of `skewpbw corpus --export-all DIR`, keeping each entry's budget
        budgets = {}
        for name, builder in sorted(corpus.BUILDERS.items()):
            entry = builder()
            text = defio.definition_to_text(defio.entry_to_definition(entry))
            (workdir / f"{name}.json").write_text(text, encoding="utf-8")
            budgets[name] = entry.budget
        order = sorted(budgets)
        random.Random(seed).shuffle(order)
        return {"seed": seed, "workdir": workdir, "budgets": budgets, "order": order}

    @staticmethod
    def argv(inputs: dict, name: str) -> list:
        b = inputs["budgets"][name]
        return [
            "check", str(inputs["workdir"] / f"{name}.json"), "--json",
            "--degree", str(b["degree_cap"]),
            "--support", str(b["support_cap"]),
            "--exponent", str(b["exponent_cap"]),
        ]

    @staticmethod
    def run(inputs: dict) -> dict:
        out = {}
        for name in inputs["order"]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(CorpusSweep.argv(inputs, name))
            out[name] = (code, buf.getvalue())
        return out

    @staticmethod
    def ops(outputs: dict) -> int:
        return len(outputs)

    @staticmethod
    def summary(outputs: dict):
        return sorted(outputs.items())

    @staticmethod
    def digest(outputs: dict) -> str:
        """sha256 of the reports without their file paths, in name order."""
        h = hashlib.sha256()
        for name in sorted(outputs):
            report = json.loads(outputs[name][1])
            report.pop("file")
            h.update(json.dumps(report, sort_keys=True).encode())
        return h.hexdigest()

    @staticmethod
    def check(inputs: dict, outputs: dict) -> list:
        failures = []
        for name, (code, text) in sorted(outputs.items()):
            try:
                report = json.loads(text)
            except json.JSONDecodeError:
                failures.append(f"{name}: exit {code} without a JSON report")
                continue
            failures += checks.check_verdicts(name, code, report)
        rng = random.Random(inputs["seed"])
        for name in sorted(checks.CLOSED_FORMS):
            parsed = defio.load_definition(str(inputs["workdir"] / f"{name}.json"))
            A = extension.verify_presentation(parsed.presentation)
            samples = []
            for _ in range(CorpusSweep.PRODUCT_SAMPLES):
                f, g = random_poly(A, rng), random_poly(A, rng)
                samples.append((checks.coord_terms(f), checks.coord_terms(g), checks.coord_terms(f * g)))
            if name == "weyl_like_2":
                x, y = A.variable(1), A.scalar(A.base.el([0, 1]))
                samples.append((checks.coord_terms(x), checks.coord_terms(y), checks.coord_terms(x * y)))
            failures += checks.check_products(name, samples)
        return failures


def random_poly(A, rng: random.Random, degree: int = 3, support: int = 3):
    """A seeded polynomial with up to `support` terms of degree <= `degree`."""
    terms = {}
    for _ in range(rng.randint(1, support)):
        while True:
            alpha = tuple(rng.randint(0, degree) for _ in range(A.n))
            if sum(alpha) <= degree:
                break
        terms[alpha] = rng.randrange(A.base.size)
    return extension.SkewPolynomial(A, terms)


# ---------------------------------------------------------------------------
# ring_lattice: classify_ring on freshly built rings
# ---------------------------------------------------------------------------

FACTOR_BUILDERS = {
    "trunc": corpus.trunc_poly,
    "upper": corpus.matrix_upper,
    "full": corpus.matrix_full,
    "zn": corpus.zn,
    "clifford": corpus.clifford_base,
    "q8": corpus.group_ring_q8,
}


class RingLattice:
    name = "ring_lattice"
    # (label, factors): many elements and few ideals, then many ideals over
    # fewer elements, then a ring that is not NI
    RINGS = [
        ("Z5[y]/(y^4)", [("trunc", 5, 4)]),
        ("U2(Z5)xZ5", [("upper", 5), ("zn", 5)]),
        ("CliffBase3xCliffBase2", [("clifford", 3), ("clifford", 2)]),
        ("U2(Z2)xZ2[y]/(y^4)xZ2", [("upper", 2), ("trunc", 2, 4), ("zn", 2)]),
        ("F2[Q8]xZ2", [("q8",), ("zn", 2)]),
        ("M2(Z3)", [("full", 3)]),
    ]

    @staticmethod
    def setup(seed: int, workdir: Path) -> dict:
        order = list(RingLattice.RINGS)
        random.Random(seed).shuffle(order)
        return {"order": order}

    @staticmethod
    def build(factors: list):
        parts = [FACTOR_BUILDERS[kind](*args) for kind, *args in factors]
        ring = parts[0]
        for part in parts[1:]:
            ring = corpus.product_ring(ring, part)
        return ring

    @staticmethod
    def run(inputs: dict) -> list:
        out = []
        for label, factors in inputs["order"]:
            ring = RingLattice.build(factors)
            profile = rings.classify_ring(ring, cap=max(rings.DEFAULT_IDEAL_CAP, ring.size))
            out.append((label, factors, ring, profile))
        return out

    @staticmethod
    def ops(outputs: list) -> int:
        return len(outputs)

    @staticmethod
    def summary(outputs: list):
        return sorted(
            (label, tuple(sorted(p.flags().items())), int(p.jacobson_radical.mask.sum()))
            for label, _, _, p in outputs
        )

    @staticmethod
    def check(inputs: dict, outputs: list) -> list:
        failures = []
        for label, factors, ring, profile in outputs:
            failures += checks.check_radicals(label, factors, ring, profile)
        return failures


# ---------------------------------------------------------------------------
# nil_census: deep nilpotency probes over bounded polynomials
# ---------------------------------------------------------------------------


class NilCensus:
    name = "nil_census"
    CAP = 32
    # (corpus entry, degree cap, support cap)
    ENTRIES = [
        ("heisenberg_2", 2, 2),
        ("clifford_trunc_2", 2, 2),
        ("euler_like_3", 2, 2),
        ("weyl_like_2", 2, 2),
        ("swap_extension", 2, 2),
        ("q8_twist", 1, 1),
    ]
    # N(R) is Delta-invariant here, so nilpotents of A have coefficients in N(R)
    INVARIANT_NIL = {"euler_like_3"}

    @staticmethod
    def setup(seed: int, workdir: Path) -> dict:
        entries = {name: corpus.BUILDERS[name]() for name, _, _ in NilCensus.ENTRIES}
        order = list(NilCensus.ENTRIES)
        random.Random(seed).shuffle(order)
        return {"seed": seed, "entries": entries, "order": order}

    @staticmethod
    def run(inputs: dict) -> dict:
        out = {}
        for name, degree, support in inputs["order"]:
            entry = inputs["entries"][name]
            P = entry.presentation
            # a fresh presentation: empty product caches in every round
            A = extension.verify_presentation(
                extension.make_extension(P.base, P.system, d=P.d, tails=P.tails, name=P.name)
            )
            polys = probes.enumerate_bounded_polys(A, degree, support)
            random.Random(f"{inputs['seed']}/{name}").shuffle(polys)
            out[name] = [(f, probes.nilpotency_probe(f, NilCensus.CAP)) for f in polys]
        return out

    @staticmethod
    def ops(outputs: dict) -> int:
        return sum(len(v) for v in outputs.values())

    @staticmethod
    def summary(outputs: dict):
        return sorted((name, sorted(Counter(r.status for _, r in res).items())) for name, res in outputs.items())

    @staticmethod
    def check(inputs: dict, outputs: dict) -> list:
        failures = []
        for name, results in sorted(outputs.items()):
            nil = None
            if name in NilCensus.INVARIANT_NIL:
                nil = checks.plain_nilpotents(inputs["entries"][name].ring)
            failures += checks.check_probes(name, results, NilCensus.CAP, nil)
        return failures


WORKLOADS = {w.name: w for w in (CorpusSweep, RingLattice, NilCensus)}
