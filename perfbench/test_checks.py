"""Each check passes on right answers and rejects a deliberately wrong one.

    python3 -m pytest perfbench -q
"""

import dataclasses
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
from skewpbw import corpus, rings  # noqa: E402
from skewpbw.probes import ProbeResult, nilpotency_probe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import RingLattice, random_poly  # noqa: E402

PRESENTATIONS = {
    "poly_z4_2v": lambda: corpus.commutative_poly(4, 2),
    "quasi_comm_z3": lambda: corpus.quasi_comm(3, 2, 2),
    "weyl_like_2": lambda: corpus.weyl_like(2),
}


def _samples(A, n=40, seed=0):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        f, g = random_poly(A, rng), random_poly(A, rng)
        out.append((checks.coord_terms(f), checks.coord_terms(g), checks.coord_terms(f * g)))
    return out


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_products_match_closed_form_and_reject_a_wrong_one(name):
    A = PRESENTATIONS[name]().presentation
    samples = [s for s in _samples(A) if s[2]]
    assert checks.check_products(name, samples) == []
    f, g, fg = samples[0]
    alpha = next(iter(fg))
    wrong = dict(fg)
    wrong[alpha] = tuple((c + 1) % k for c, k in zip(fg[alpha], A.base.orders))
    assert checks.check_products(name, [(f, g, wrong)])


def test_weyl_product_needs_the_derivation_term():
    A = corpus.weyl_like(2).presentation
    x, y = A.variable(1), A.scalar(A.base.el([0, 1]))
    xt, yt = checks.coord_terms(x), checks.coord_terms(y)
    assert checks.check_products("weyl_like_2", [(xt, yt, checks.coord_terms(x * y))]) == []
    assert checks.check_products("weyl_like_2", [(xt, yt, checks.coord_terms(y * x))])


def _classified(factors):
    ring = RingLattice.build(factors)
    return ring, rings.classify_ring(ring, cap=max(rings.DEFAULT_IDEAL_CAP, ring.size))


@pytest.mark.parametrize(
    "factors",
    [[("trunc", 2, 2), ("zn", 2)], [("upper", 2)], [("full", 2)], [("clifford", 2)], [("q8",)]],
)
def test_radicals_match_prediction(factors):
    ring, profile = _classified(factors)
    assert checks.check_radicals("r", factors, ring, profile) == []


def test_radicals_reject_wrong_answers():
    factors = [("trunc", 2, 2), ("zn", 2)]
    ring, profile = _classified(factors)
    J = profile.jacobson_radical.mask
    flipped = J.copy()
    flipped[int(J.argmin())] = True  # one element too many
    wrong_J = rings.Ideal.from_mask(ring, flipped)
    # all four radicals wrong the same way: size and membership both fail
    same = dataclasses.replace(
        profile, jacobson_radical=wrong_J, prime_radical=wrong_J,
        upper_nilradical=wrong_J, levitzki_radical=wrong_J,
    )
    assert any("|J|" in m for m in checks.check_radicals("r", factors, ring, same))
    # one radical differing from the others
    odd = dataclasses.replace(profile, prime_radical=wrong_J)
    assert any("prime" in m for m in checks.check_radicals("r", factors, ring, odd))
    # same size, wrong set: swap a member for a non-member
    moved = J.copy()
    moved[int(J.argmax())] = False
    moved[int(J.argmin())] = True
    wrong = rings.Ideal.from_mask(ring, moved)
    swapped = dataclasses.replace(
        profile, jacobson_radical=wrong, prime_radical=wrong,
        upper_nilradical=wrong, levitzki_radical=wrong,
    )
    assert any("membership" in m for m in checks.check_radicals("r", factors, ring, swapped))
    not_ni = dataclasses.replace(profile, NI=False)
    assert any("NI" in m for m in checks.check_radicals("r", factors, ring, not_ni))


def test_predicted_sizes():
    assert checks.predicted_jacobson_size([("trunc", 5, 4)]) == 125
    assert checks.predicted_jacobson_size([("upper", 5), ("zn", 5)]) == 5
    assert checks.predicted_jacobson_size([("clifford", 3), ("clifford", 2)]) == 32
    assert checks.predicted_jacobson_size([("q8",), ("zn", 2)]) == 128
    assert checks.predicted_jacobson_size([("full", 3)]) == 1


def test_plain_nilpotents_of_a_truncated_ring():
    ring = corpus.trunc_poly(3, 3)
    want = {(0, a, b) for a in range(3) for b in range(3)}
    assert checks.plain_nilpotents(ring) == want


def test_probe_checks_reject_wrong_answers():
    A = corpus.weyl_like(2).presentation
    y = A.scalar(A.base.el([0, 1]))
    xy = A.variable(1) * y
    cap = 8
    ry, rxy = nilpotency_probe(y, cap), nilpotency_probe(xy, cap)
    assert (ry.status, ry.index) == ("nilpotent", 2)
    assert rxy.reason == "stabilized_power"
    nil_R = {(0, 0), (0, 1)}
    assert checks.check_probes("weyl_like_2", [(y, ry), (xy, rxy)], cap, nil_R) == []
    wrong_index = ProbeResult("nilpotent", index=3)
    assert checks.check_probes("weyl_like_2", [(y, wrong_index)], cap)
    assert checks.check_probes("weyl_like_2", [(xy, ProbeResult("nilpotent", index=2))], cap)
    stabilized = ProbeResult("not_nilpotent", reason="stabilized_power")
    assert checks.check_probes("weyl_like_2", [(y, stabilized)], cap)
    unit_chain = ProbeResult("not_nilpotent", reason="unit_leading_chain")
    assert checks.check_probes("weyl_like_2", [(y, unit_chain)], cap)
    # a domain has no nilpotent outcome
    assert checks.check_probes("heisenberg_2", [(y, ry)], cap)
    # a nilpotent whose coefficient lies outside N(R)
    assert checks.check_probes("euler_like_3", [(y, ry)], cap, {(0, 0)})


def _report(holds, exact=True, verdict="Consistent", code=0):
    cond = {"name": "A NI (bounded)", "holds": holds, "exact": exact}
    return {"exit": code, "results": [{"id": "T3", "verdict": verdict, "preconditions": [], "conclusions": [cond]}]}


def test_verdict_checks_reject_wrong_answers():
    assert checks.check_verdicts("weyl_like_2", 0, _report(False)) == []
    assert checks.check_verdicts("euler_like_2", 0, _report(True, exact=False)) == []
    assert checks.check_verdicts("weyl_like_2", 0, _report(True, exact=False))
    assert checks.check_verdicts("weyl_like_2", 0, _report(False, exact=False))
    assert checks.check_verdicts("weyl_like_2", 0, {"exit": 0, "results": []})
    assert checks.check_verdicts("euler_like_2", 0, _report(False))
    assert checks.check_verdicts("euler_like_2", 0, _report(True, verdict="Violated"))
    assert checks.check_verdicts("euler_like_2", 3, _report(True, code=3))


def test_tracer_restores_functions_and_self_times_fit_in_wall_time():
    from skewpbw import cli, harness

    originals = (rings.classify_ring, harness.classify_ring, cli.classify_ring)
    tracer = Tracer()
    start = time.perf_counter()
    tracer.install()
    try:
        assert harness.classify_ring is rings.classify_ring is not originals[0]
        rings.classify_ring(RingLattice.build([("upper", 3), ("zn", 3)]))
    finally:
        tracer.uninstall()
    tracer.end_round()
    wall = time.perf_counter() - start
    assert (rings.classify_ring, harness.classify_ring, cli.classify_ring) == originals
    metrics = tracer.report(wall, wall)
    assert metrics["rings.rings_classified"][0] == 1
    assert metrics["rings.tables_s"][0] > 0
    assert 0 < metrics["trace.self_sum_s"][0] <= wall
    assert {name for name, _, _, _ in tracer.spans} >= {"classify_ring", "prime_radical", "jacobson_radical"}
