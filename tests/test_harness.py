"""Theorem checks T1..T10 and the counterexample search."""

import sys
from functools import cached_property

import pytest

from skewpbw.corpus import BUILDERS, standard_rings
from skewpbw.errors import WrongShape
from skewpbw.harness import (
    CONSISTENT,
    INCONCLUSIVE,
    PRECONDITION_FAILED,
    THEOREM_IDS,
    VIOLATED,
    STATEMENTS,
    Evidence,
    SearchBudget,
    TheoremCheck,
    counterexample_search,
    run_all,
    run_check,
    shape_compatible,
)
from skewpbw.probes import NICheckResult, bounded_NI_check, replay_violation


def check(tid, entry, budget=None):
    return run_check(TheoremCheck(tid, entry, budget))


def test_ring_flags_read_against_each_nilradical():
    # every nilradical of a finite ring is J(R), so a flag read against J(R)
    # has the value and the witness it has read against its own radical
    for entry in standard_rings() + [build() for build in BUILDERS.values()]:
        ev = Evidence.of(entry)
        p = ev.profile
        for attr, flag, radical in (
            ("R_NI", "NI", p.upper_nilradical),
            ("two_primal", "two_primal", p.prime_radical),
            ("weakly_two_primal", "weakly_two_primal", p.levitzki_radical),
        ):
            tv = getattr(ev, attr)
            sep = min(() if tv.value else p.nilpotents ^ radical.carrier, key=lambda e: e.index, default=None)
            assert tv.value == getattr(p, flag), (entry.name, flag)
            want = None if sep is None else f"{sep!r} separates"
            assert want is None if tv.witness is None else tv.witness.startswith(want), (entry.name, flag)
        assert ev.Nstar_eq_N.value == (p.upper_nilradical.carrier == p.nilpotents), entry.name


def test_t1_swap_precondition_failed_with_witness(swap_entry):
    report = check("T1", swap_entry)
    assert report.verdict == PRECONDITION_FAILED
    failed = [p for p in report.preconditions if p["holds"] is False]
    assert failed and all(p["witness"] for p in failed)
    # the hypothesis is not vacuous: the same instance violates NI closure
    ni = bounded_NI_check(swap_entry.presentation, 2, 2, 8)
    assert ni.status == NICheckResult.VIOLATION


def test_t1_euler_consistent(euler2):
    report = check("T1", euler2)
    assert report.verdict == CONSISTENT


def test_t1_forced_conclusions_show_hypothesis_tightness(swap_entry):
    # dropping the failed hypothesis: R is NI while A is not, so the
    # conclusion of the transfer theorem genuinely needs weak compatibility
    report = run_check(TheoremCheck("T1", swap_entry, None, force_conclusions=True))
    assert report.verdict == PRECONDITION_FAILED
    sides = {c["name"]: c["holds"] for c in report.conclusions}
    assert sides["R NI"] is True
    assert sides["A NI (bounded)"] is False


def test_every_forced_conclusion_is_noted(corpus_entries):
    forced = []
    for entry in corpus_entries:
        for tid in THEOREM_IDS:
            if not shape_compatible(tid, entry):
                continue
            report = run_check(TheoremCheck(tid, entry, None, force_conclusions=True))
            if report.verdict == PRECONDITION_FAILED and report.conclusions:
                forced.append(f"{entry.name} {tid}")
                assert "conclusions evaluated despite failed hypotheses (forced)" in report.notes, forced[-1]
    assert len(forced) >= 8, forced


def test_t1_matrix_poly_contrapositive(matrix_poly2):
    # base not NI, weak compatibility automatic: both sides of the iff false
    report = check("T1", matrix_poly2)
    assert report.verdict == CONSISTENT
    sides = {c["name"]: c["holds"] for c in report.conclusions}
    assert sides["R NI"] is False
    assert sides["A NI (bounded)"] is False


def test_t2_euler_consistent(euler2):
    report = check("T2", euler2)
    assert report.verdict == CONSISTENT


def test_t2_weyl_precondition_failed(weyl2):
    report = check("T2", weyl2)
    assert report.verdict == PRECONDITION_FAILED


def test_t3_weyl_consistent_both_false(weyl2):
    report = check("T3", weyl2)
    assert report.verdict == CONSISTENT
    values = {c["name"]: c["holds"] for c in report.conclusions}
    assert values["A NI (bounded)"] is False
    assert values["N(R) Delta-invariant ideal"] is False


def test_t3_euler_consistent_both_true(euler2):
    report = check("T3", euler2)
    assert report.verdict == CONSISTENT
    values = {c["name"]: c["holds"] for c in report.conclusions}
    assert values["A NI (bounded)"] is True
    assert values["N(R) Delta-invariant ideal"] is True
    assert values["N(A) = N(R)<x> (bounded)"] is True


def test_t4_runs_on_everything(corpus_entries):
    for entry in corpus_entries:
        report = check("T4", entry)
        assert report.verdict in (CONSISTENT, INCONCLUSIVE), entry.name


def test_t5_euler_consistent(euler2):
    report = check("T5", euler2)
    assert report.verdict == CONSISTENT


def test_t5_weyl_precondition_failed(weyl2):
    # bounded NI check is a Violation, so the NI hypothesis fails
    report = check("T5", weyl2)
    assert report.verdict == PRECONDITION_FAILED


def test_t6_clifford_connected_clause_exact(clifford2):
    report = check("T6", clifford2)
    assert report.verdict == CONSISTENT
    clause = [c for c in report.conclusions if "connected" in c["name"]]
    assert clause and clause[0]["exact"] is True
    assert not any("vacuous" in note for note in report.notes)


def test_t6_trivially_graded_not_connected_notes(swap_entry):
    report = check("T6", swap_entry)
    assert report.verdict == CONSISTENT
    assert any("not computable" in note for note in report.notes)
    # no conclusion is left to check, and the report says so
    assert report.conclusions == []
    assert report.notes[-1] == "no conclusion checked at this budget: the verdict is vacuous"


def test_t7_quasi_comm_consistent(quasi_z3):
    report = check("T7", quasi_z3)
    assert report.verdict == CONSISTENT


def test_t7_swap_precondition_failed(swap_entry):
    report = check("T7", swap_entry)
    assert report.verdict == PRECONDITION_FAILED
    failing = [p for p in report.preconditions if p["holds"] is False]
    assert failing[0]["name"] == "weak Sigma-compatible"


def test_t8_euler_consistent(euler2):
    report = check("T8", euler2)
    assert report.verdict == CONSISTENT


def test_t8_weyl_consistent_all_false(weyl2):
    report = check("T8", weyl2)
    assert report.verdict == CONSISTENT
    values = [c["holds"] for c in report.conclusions]
    assert values == [False, False, False]


def test_t9_t10_positive_instances(quasi_z3, poly_z4, euler2):
    assert check("T9", quasi_z3).verdict == CONSISTENT
    assert check("T9", poly_z4).verdict == CONSISTENT
    assert check("T10", euler2).verdict == CONSISTENT
    assert check("T10", poly_z4).verdict == CONSISTENT


def test_twisted_noncommutative_base_instance(q8_twisted):
    # noncommutative NI base, order-3 automorphism: the NJ transfer holds
    assert len(q8_twisted.system.sigma_closure()) == 3
    assert check("T1", q8_twisted).verdict == CONSISTENT
    assert check("T7", q8_twisted).verdict == CONSISTENT
    assert check("T9", q8_twisted).verdict == CONSISTENT


def test_wrong_shape_raises(swap_entry, euler2):
    with pytest.raises(WrongShape):
        check("T3", swap_entry)  # not derivation type
    with pytest.raises(WrongShape):
        check("T7", euler2)  # not quasi-commutative
    with pytest.raises(WrongShape):
        check("T11", euler2)


def test_t6_requires_grading(weyl2):
    assert not shape_compatible("T6", weyl2)
    with pytest.raises(WrongShape):
        check("T6", weyl2)


def test_budget_exceeded_surfaces_as_inconclusive(euler3):
    report = check("T1", euler3, SearchBudget(2, 3, 8, pair_budget=10**4))
    assert report.verdict == INCONCLUSIVE
    assert any("budget" in note for note in report.notes)


def test_full_sweep_never_violates(corpus_entries):
    for entry in corpus_entries:
        for report in run_all(entry):
            assert report.verdict != VIOLATED, (entry.name, report.id, report.to_dict())
            if report.verdict == PRECONDITION_FAILED:
                failed = [p for p in report.preconditions if p["holds"] is False]
                assert failed and all(p["witness"] is not None for p in failed)


def test_budget_monotonicity_spot_checks(euler2, quasi_z3, weyl2):
    for entry in (euler2, quasi_z3, weyl2):
        base_budget = SearchBudget(**entry.budget)
        bigger = base_budget.doubled()
        for tid in THEOREM_IDS:
            if not shape_compatible(tid, entry):
                continue
            before = check(tid, entry, base_budget).verdict
            after = check(tid, entry, bigger).verdict
            if before == CONSISTENT:
                assert after != VIOLATED, (entry.name, tid, before, after)


def test_violation_witnesses_replay(swap_entry, weyl2, matrix_poly2):
    for entry in (swap_entry, weyl2, matrix_poly2):
        budget = SearchBudget(**entry.budget)
        ni = bounded_NI_check(entry.presentation, *budget.caps())
        assert ni.status == NICheckResult.VIOLATION, entry.name
        assert replay_violation(ni.witness), entry.name


# ---------------------------------------------------------------------------
# counterexample search
# ---------------------------------------------------------------------------


def test_search_not_ni_over_swap_family():
    outcome = counterexample_search("not-NI", "swap")
    assert outcome.found
    assert outcome.instance == "swap_extension"
    assert outcome.witness


def test_search_not_ni_exhausted_on_delta_invariant_family():
    outcome = counterexample_search("not-NI", "delta-invariant-derivation")
    assert not outcome.found
    assert outcome.tried == 2


def test_search_not_weak_compatible_exhausted_on_identity_systems():
    outcome = counterexample_search("not-weak-compatible", "identity-systems")
    assert not outcome.found


def test_search_reduced_base_not_ni(swap_entry):
    outcome = counterexample_search("reduced-base-not-NI", [swap_entry])
    assert outcome.found


def test_search_not_delta_invariant(weyl2, euler2):
    assert counterexample_search("not-delta-invariant-nilradical", [weyl2]).found
    assert not counterexample_search("not-delta-invariant-nilradical", [euler2]).found


def test_report_schema_is_stable(euler2):
    report = check("T3", euler2).to_dict()
    assert set(report) == {
        "id",
        "instance",
        "verdict",
        "preconditions",
        "conclusions",
        "budget",
        "notes",
    }
    for cond in report["conclusions"]:
        assert set(cond) == {"name", "holds", "exact", "witness", "bounded_cap"}
    timed = check("T3", euler2).to_dict(include_timing=True)
    assert "wall_time_s" in timed


def test_search_unknown_property_and_family():
    with pytest.raises(WrongShape):
        counterexample_search("not-a-property", "swap")
    with pytest.raises(WrongShape):
        counterexample_search("not-NI", "not-a-family")


@pytest.mark.parametrize("build", ["euler_like_2", "clifford_trunc_2"])
def test_run_all_gathers_each_fact_once(build, monkeypatch):
    from skewpbw import corpus, harness, probes

    entry = corpus.BUILDERS[build]()
    calls = {}

    def spy(name, modules):
        original = getattr(modules[0], name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, wrapper)

    predicates = [
        "is_sigma_compatible",
        "is_delta_compatible",
        "is_weak_sigma_compatible",
        "is_weak_delta_compatible",
    ]
    for name in predicates:
        spy(name, [harness])
    # nilpotents are quasi-regular by the ring axioms: no check computes a
    # witness, wherever a module of the package has the function bound
    witness = probes.quasi_regularity_witness
    spy("quasi_regularity_witness", [
        module for key, module in sys.modules.items()
        if key.split(".")[0] == "skewpbw" and getattr(module, "quasi_regularity_witness", None) is witness
    ])
    budget = SearchBudget(**entry.budget)
    first = [r.to_dict() for r in run_all(entry, budget)]
    assert calls.get("quasi_regularity_witness", 0) == 0
    assert all(calls.get(name, 0) <= 1 for name in predicates), calls
    calls.clear()
    assert [r.to_dict() for r in run_all(entry, budget)] == first
    assert calls == {}


def test_statements_name_exactly_the_evidence_facts():
    # every fact a statement names is an Evidence attribute, and every fact
    # of Evidence but the shared scan, NI check and ring profile is named
    named = set()
    for st in STATEMENTS.values():
        exprs = [*st.pre, *(c[1] for c in st.conclusions), *st.sides]
        named.update(fact for expr in exprs for fact in expr.split(" & "))
    assert all(hasattr(Evidence, fact) for fact in named), sorted(f for f in named if not hasattr(Evidence, f))
    facts = {name for name, value in vars(Evidence).items() if isinstance(value, cached_property)}
    assert facts - {"scan", "ni", "profile"} <= named, sorted(facts - {"scan", "ni", "profile"} - named)
