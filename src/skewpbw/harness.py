"""Executable encodings of the NI/NJ theorems as consistency checks.

Each check evaluates its preconditions and conclusions and reports one of:

  Consistent          -- everything observed matches the theorem;
  Violated            -- exactly-computed results contradict the theorem
                         (a build-failing event: engine bug or a genuine
                         counterexample);
  PreconditionFailed  -- a hypothesis fails, with a concrete witness;
  Inconclusive        -- a bounded search ran out of budget, or an exact
                         failure met only bounded support on the other side.

Results carry an exactness tag.  A mismatch is only Violated when both sides
are exact: bounded evidence never convicts, so enlarging budgets can turn
Inconclusive into either verdict but never Consistent into Violated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Union

from .corpus import CorpusEntry, commutative_poly, euler_like, matrix_poly, quasi_comm, standard_corpus, swap_extension, weyl_like
from .errors import BudgetExceeded, NotProvedNilpotent, WrongShape
from .extension import SkewPolynomial
from .graded import Grading, is_graded_extension, polynomial_is_homogeneous
from .maps import (
    DELTA_INVARIANT,
    SIGMA_IDEAL,
    CompatResult,
    invariance,
    is_delta_compatible,
    is_sigma_compatible,
    is_sigma_rigid_subset,
    is_weak_delta_compatible,
    is_weak_sigma_compatible,
)
from .probes import (
    AgreementResult,
    BoundedScan,
    NICheckResult,
    bounded_NI_check,
    bounded_skew_armendariz,
    coefficient_agreement,
    quasi_regularity_witness,
)
from .rings import Ideal, classify_ring

THEOREM_IDS = tuple(f"T{i}" for i in range(1, 11))

CONSISTENT = "Consistent"
VIOLATED = "Violated"
PRECONDITION_FAILED = "PreconditionFailed"
INCONCLUSIVE = "Inconclusive"


@dataclass
class SearchBudget:
    degree_cap: int = 4
    support_cap: int = 3
    exponent_cap: int = 16
    pair_budget: int = 10**6

    def __post_init__(self):
        for f in ("degree_cap", "support_cap", "exponent_cap", "pair_budget"):
            if getattr(self, f) <= 0:
                raise ValueError(f"{f} must be positive")

    def caps(self) -> tuple:
        return (self.degree_cap, self.support_cap, self.exponent_cap, self.pair_budget)

    def doubled(self) -> "SearchBudget":
        return SearchBudget(
            self.degree_cap + 1,
            self.support_cap + 1,
            self.exponent_cap * 2,
            self.pair_budget * 4,
        )

    def to_dict(self) -> dict:
        return {
            "degree_cap": self.degree_cap,
            "support_cap": self.support_cap,
            "exponent_cap": self.exponent_cap,
            "pair_budget": self.pair_budget,
        }


@dataclass
class TheoremCheck:
    id: str
    entry: CorpusEntry
    budget: Optional[SearchBudget] = None
    force_conclusions: bool = False  # evaluate conclusions even when a hypothesis fails


@dataclass
class TV:
    """A truth value tagged exact or bounded, with an optional witness."""

    value: bool
    exact: bool
    witness: Optional[str] = None
    label: str = ""


def tv_and(parts: list, label: str = "") -> Optional[TV]:
    falses = [p for p in parts if p is not None and not p.value]
    if falses:
        pick = next((p for p in falses if p.exact), falses[0])
        return TV(False, pick.exact, pick.witness, label or pick.label)
    if any(p is None for p in parts):
        return None
    return TV(True, all(p.exact for p in parts), None, label)


def _compare(a: Optional[TV], b: Optional[TV]) -> str:
    if a is None or b is None:
        return INCONCLUSIVE
    if a.value == b.value:
        return CONSISTENT
    if a.exact and b.exact:
        return VIOLATED
    return INCONCLUSIVE


def _implication(q: Optional[TV], preconditions_exact: bool) -> str:
    if q is None:
        return INCONCLUSIVE
    if q.value:
        return CONSISTENT
    if q.exact and preconditions_exact:
        return VIOLATED
    return INCONCLUSIVE


def _worst(verdicts: Iterable[str]) -> str:
    order = {CONSISTENT: 0, INCONCLUSIVE: 1, VIOLATED: 2}
    worst = CONSISTENT
    for v in verdicts:
        if order[v] > order[worst]:
            worst = v
    return worst


@dataclass
class TheoremReport:
    id: str
    instance: str
    verdict: str
    preconditions: list = field(default_factory=list)
    conclusions: list = field(default_factory=list)
    budget: Optional[SearchBudget] = None
    notes: list = field(default_factory=list)
    wall_time_s: float = 0.0
    violation_witness: Optional[dict] = None

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "id": self.id,
            "instance": self.instance,
            "verdict": self.verdict,
            "preconditions": self.preconditions,
            "conclusions": self.conclusions,
            "budget": self.budget.to_dict() if self.budget else None,
            "notes": list(self.notes),
        }
        if include_timing:
            out["wall_time_s"] = self.wall_time_s
        return out


def _wstr(w) -> Optional[str]:
    if w is None:
        return None
    if isinstance(w, dict):
        return "; ".join(f"{k}={_wstr(v)}" for k, v in w.items())
    if isinstance(w, SkewPolynomial):
        return w.to_expr()
    if isinstance(w, tuple):
        return "(" + ", ".join(str(x) for x in w) + ")"
    return str(w)


def _cond(name: str, tv: Optional[TV], bounded_cap=None) -> dict:
    if tv is None:
        return {"name": name, "holds": None, "exact": False, "witness": None, "bounded_cap": bounded_cap}
    return {
        "name": name,
        "holds": tv.value,
        "exact": tv.exact,
        "witness": tv.witness,
        "bounded_cap": bounded_cap,
    }


# ---------------------------------------------------------------------------
# statement evaluators
# ---------------------------------------------------------------------------


def _tv_compat(res: CompatResult) -> TV:
    exact = (not res.holds) or res.bounded is None  # found witnesses are exact
    return TV(res.holds, exact, _wstr(res.witness))


def _tv_ring_flag(entry: CorpusEntry, flag: str) -> TV:
    profile = classify_ring(entry.ring)
    value = getattr(profile, flag)
    witness = None
    if not value:
        # for the radical-equality predicates, exhibit a separating element
        radical = {
            "NI": profile.upper_nilradical.carrier,
            "NJ": profile.jacobson_radical.carrier,
            "two_primal": profile.prime_radical.carrier,
            "weakly_two_primal": profile.levitzki_radical.carrier,
            "reduced": frozenset([entry.ring.zero]),
        }.get(flag)
        if radical is not None:
            apart = (profile.nilpotents - radical) | (radical - profile.nilpotents)
            if apart:
                sep = sorted(apart, key=lambda e: e.index)[0]
                side = "N(R)" if sep in profile.nilpotents else "radical"
                witness = f"{sep!r} separates N(R) from the comparison set (in {side})"
    return TV(value, True, witness, label=f"R.{flag}")


def _tv_N_is_ideal(entry: CorpusEntry) -> TV:
    return _tv_ring_flag(entry, "NI")  # N(R) is an ideal iff R is NI


def _tv_sigma_ideal_N(entry: CorpusEntry) -> TV:
    profile = classify_ring(entry.ring)
    if not profile.NI:
        return TV(False, True, "N(R) is not an ideal", "N(R) Sigma-ideal")
    ideal = Ideal(entry.ring, profile.nilpotents)
    res = invariance(ideal, entry.system, SIGMA_IDEAL)
    return TV(res.holds, True, _wstr(res.witness), "N(R) Sigma-ideal")


def _tv_sigma_rigid_N(entry: CorpusEntry) -> TV:
    profile = classify_ring(entry.ring)
    res = is_sigma_rigid_subset(entry.ring, entry.system, profile.nilpotents)
    return TV(res.holds, True, _wstr(res.witness), "N(R) Sigma-rigid")


def _tv_delta_invariant_ideal_N(entry: CorpusEntry) -> TV:
    profile = classify_ring(entry.ring)
    if not profile.NI:
        return TV(False, True, "N(R) is not an ideal", "N(R) Delta-invariant ideal")
    ideal = Ideal(entry.ring, profile.nilpotents)
    res = invariance(ideal, entry.system, DELTA_INVARIANT)
    return TV(res.holds, True, _wstr(res.witness), "N(R) Delta-invariant ideal")


def _tv_nstar_eq_N(entry: CorpusEntry) -> TV:
    profile = classify_ring(entry.ring)
    eq = profile.upper_nilradical.carrier == profile.nilpotents
    return TV(eq, True, label="N*(R) = N(R)")


def _tv_A_NI(ni: NICheckResult) -> Optional[TV]:
    if ni.status == NICheckResult.VIOLATION:
        return TV(False, True, _wstr(ni.witness), "A NI (bounded)")
    if ni.status == NICheckResult.CONSISTENT:
        return TV(True, False, label="A NI (bounded)")
    return None


def _tv_agreement(agr: AgreementResult) -> Optional[TV]:
    if not agr.holds:
        return TV(False, True, _wstr(agr.witness), "N(A) = N(R)<x> (bounded)")
    if agr.unknown:
        return None
    return TV(True, False, label="N(A) = N(R)<x> (bounded)")


def _tv_qr_face(scan: BoundedScan, grading: Optional[Grading] = None) -> TV:
    """Every proved-nilpotent (optionally homogeneous) element is quasi-regular."""
    checked = 0
    for f in scan.proved_nilpotent:
        if grading is not None and not polynomial_is_homogeneous(f, grading):
            continue
        try:
            quasi_regularity_witness(f, scan.exponent_cap)
        except NotProvedNilpotent as exc:  # a failed witness would contradict ring axioms
            return TV(False, True, f"{f.to_expr()}: {exc}", "quasi-regularity of bounded nilpotents")
        checked += 1
    return TV(True, False, label=f"quasi-regularity of {checked} bounded nilpotents")


def _get_scan(entry: CorpusEntry, budget: SearchBudget) -> BoundedScan:
    key = budget.caps()
    if key not in entry.scans:
        entry.scans[key] = BoundedScan(
            entry.presentation, budget.degree_cap, budget.support_cap, budget.exponent_cap, budget.pair_budget
        )
    return entry.scans[key]


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


def shape_compatible(tid: str, entry: CorpusEntry) -> bool:
    A = entry.presentation
    if A is None or not A.verified:
        return False
    if tid in ("T3", "T8", "T10"):
        return A.derivation_type
    if tid == "T6":
        if entry.grading is None or not A.bijective:
            return False
        return bool(is_graded_extension(A, entry.grading))
    if tid == "T7":
        return A.quasi_commutative and A.bijective
    if tid == "T9":
        return A.quasi_commutative
    return tid in THEOREM_IDS


def run_check(check: TheoremCheck) -> TheoremReport:
    tid = check.id
    entry = check.entry
    if tid not in THEOREM_IDS:
        raise WrongShape(tid, "unknown theorem id")
    if not shape_compatible(tid, entry):
        raise WrongShape(tid, f"instance {entry.name} lacks the required structure")
    budget = check.budget
    if budget is None:
        budget = SearchBudget(**entry.budget) if entry.budget else SearchBudget()
    start = time.perf_counter()
    try:
        report = _RUNNERS[tid](entry, budget, check.force_conclusions)
    except BudgetExceeded as exc:
        report = TheoremReport(
            tid, entry.name, INCONCLUSIVE, budget=budget, notes=[f"budget exceeded: {exc}"]
        )
    report.id = tid
    report.instance = entry.name
    report.budget = budget
    report.wall_time_s = time.perf_counter() - start
    return report


def _check_T1(entry: CorpusEntry, budget: SearchBudget, force: bool = False) -> TheoremReport:
    """Weak-compatibility NI transfer: R NI iff A NI."""
    ws = _tv_compat(is_weak_sigma_compatible(entry.ring, entry.system))
    wd_res = is_weak_delta_compatible(entry.ring, entry.system)
    wd = _tv_compat(wd_res)
    pre = [_cond("weak Sigma-compatible", ws), _cond("weak Delta-compatible", wd, wd_res.bounded)]
    gated = not ws.value or not wd.value
    if gated and not force:
        return TheoremReport("T1", entry.name, PRECONDITION_FAILED, preconditions=pre)
    scan = _get_scan(entry, budget)
    ni = bounded_NI_check(entry.presentation, *budget.caps(), scan=scan)
    a_side = _tv_A_NI(ni)
    r_side = _tv_ring_flag(entry, "NI")
    verdict = PRECONDITION_FAILED if gated else _compare(r_side, a_side)
    report = TheoremReport(
        "T1", entry.name, verdict, preconditions=pre,
        conclusions=[_cond("R NI", r_side), _cond("A NI (bounded)", a_side)],
    )
    if gated:
        report.notes.append("conclusions evaluated despite failed hypotheses (forced)")
    if verdict == VIOLATED and ni.witness:
        report.violation_witness = ni.witness
    return report


def _check_T2(entry: CorpusEntry, budget: SearchBudget, force: bool = False) -> TheoremReport:
    """2-primal + compatible, or locally finite + compatible + skew Armendariz => A NI."""
    sc_res = is_sigma_compatible(entry.ring, entry.system)
    dc_res = is_delta_compatible(entry.ring, entry.system)
    sc, dc = _tv_compat(sc_res), _tv_compat(dc_res)
    two_primal = _tv_ring_flag(entry, "two_primal")
    locally_finite = _tv_ring_flag(entry, "locally_finite")
    branch1 = tv_and([two_primal, sc, dc], "2-primal and (Sigma,Delta)-compatible")
    pre = [
        _cond("2-primal", two_primal),
        _cond("Sigma-compatible", sc),
        _cond("Delta-compatible", dc, dc_res.bounded),
    ]
    arm = None
    if branch1 is None or not branch1.value:
        arm_res = bounded_skew_armendariz(
            entry.presentation, min(budget.degree_cap, 2), min(budget.support_cap, 2), budget.pair_budget
        )
        arm = TV(arm_res.holds, not arm_res.holds, _wstr(arm_res.witness), "Sigma-skew Armendariz (bounded)")
        pre.append(_cond("locally finite", locally_finite))
        pre.append(_cond("Sigma-skew Armendariz (bounded)", arm, arm_res.degree_cap))
    branch2 = tv_and([locally_finite, sc, dc, arm]) if arm is not None else None
    chosen = None
    for b in (branch1, branch2):
        if b is not None and b.value:
            chosen = b
            break
    if chosen is None and not force:
        return TheoremReport("T2", entry.name, PRECONDITION_FAILED, preconditions=pre)
    scan = _get_scan(entry, budget)
    ni = bounded_NI_check(entry.presentation, *budget.caps(), scan=scan)
    a_side = _tv_A_NI(ni)
    if chosen is None:
        verdict = PRECONDITION_FAILED
    else:
        verdict = _implication(a_side, chosen.exact)
    report = TheoremReport(
        "T2", entry.name, verdict, preconditions=pre,
        conclusions=[_cond("A NI (bounded)", a_side)],
    )
    if verdict == VIOLATED and ni.witness:
        report.violation_witness = ni.witness
    return report


def _check_T3(entry: CorpusEntry, budget: SearchBudget, force: bool = False) -> TheoremReport:
    """Derivation type: A NI iff N(R) Delta-invariant ideal and N(A) = N(R)<x>."""
    scan = _get_scan(entry, budget)
    ni = bounded_NI_check(entry.presentation, *budget.caps(), scan=scan)
    lhs = _tv_A_NI(ni)
    dinv = _tv_delta_invariant_ideal_N(entry)
    agr = _tv_agreement(coefficient_agreement(scan))
    rhs = tv_and([dinv, agr], "N(R) Delta-invariant ideal and N(A) = N(R)<x>")
    verdict = _compare(lhs, rhs)
    report = TheoremReport(
        "T3", entry.name, verdict,
        conclusions=[
            _cond("A NI (bounded)", lhs),
            _cond("N(R) Delta-invariant ideal", dinv),
            _cond("N(A) = N(R)<x> (bounded)", agr),
        ],
    )
    if ni.witness:
        report.violation_witness = ni.witness
        report.notes.append("bounded NI violation witness recorded")
    return report


def _check_T4(entry: CorpusEntry, budget: SearchBudget, force: bool = False) -> TheoremReport:
    """Three-way equivalence for general A, with bounded A-side equalities."""
    scan = _get_scan(entry, budget)
    ni = bounded_NI_check(entry.presentation, *budget.caps(), scan=scan)
    a_ni = _tv_A_NI(ni)
    rigid = _tv_sigma_rigid_N(entry)
    sigma_ideal = _tv_sigma_ideal_N(entry)
    n_ideal = _tv_N_is_ideal(entry)
    agr = _tv_agreement(coefficient_agreement(scan))
    s1 = tv_and([a_ni, rigid], "(i) A NI and N(R) Sigma-rigid")
    s2 = tv_and([sigma_ideal, agr], "(ii) N(R) Sigma-ideal and N(A) = N(R)<x>")
    s3 = tv_and([rigid, n_ideal, agr], "(iii) N(R) Sigma-rigid ideal and N*(A) = N*(R)<x>")
    verdict = _worst([_compare(s1, s2), _compare(s1, s3), _compare(s2, s3)])
    return TheoremReport(
        "T4", entry.name, verdict,
        conclusions=[
            _cond("(i) A NI and N(R) Sigma-rigid", s1),
            _cond("(ii) N(R) Sigma-ideal and N(A)=N(R)<x>", s2),
            _cond("(iii) N(R) Sigma-rigid ideal and N*(A)=N*(R)<x>", s3),
        ],
        notes=["(iii) A-side uses the bounded N-agreement; the radicals collapse under the equivalence"],
    )


def _check_T5(entry: CorpusEntry, budget: SearchBudget, force: bool = False) -> TheoremReport:
    """If A is NI, the d_ij are units (and A is Dedekind-finite in the large)."""
    scan = _get_scan(entry, budget)
    ni = bounded_NI_check(entry.presentation, *budget.caps(), scan=scan)
    a_ni = _tv_A_NI(ni)
    pre = [_cond("A NI (bounded)", a_ni)]
    units = entry.ring.units_mask
    bad = [(pair, dv) for pair, dv in entry.presentation.d.items() if not units[dv.index]]
    concl = TV(not bad, True, _wstr(bad[0]) if bad else None, "every d_ij is a unit")
    conclusions = [_cond("every d_ij has a two-sided inverse", concl)]
    if a_ni is not None and not a_ni.value:
        return TheoremReport(
            "T5", entry.name, PRECONDITION_FAILED, preconditions=pre,
            conclusions=conclusions if force else [],
        )
    if a_ni is None:
        return TheoremReport("T5", entry.name, INCONCLUSIVE, preconditions=pre)
    verdict = _implication(concl, a_ni.exact)
    return TheoremReport(
        "T5", entry.name, verdict, preconditions=pre, conclusions=conclusions,
    )


def _check_T6(entry: CorpusEntry, budget: SearchBudget, force: bool = False) -> TheoremReport:
    """Graded A: NJ iff NI and J(A) cap R_0 nil; computable faces only."""
    profile = is_graded_extension(entry.presentation, entry.grading)
    scan = _get_scan(entry, budget)
    qr = _tv_qr_face(scan, grading=entry.grading)
    conclusions = [_cond("homogeneous bounded nilpotents are quasi-regular", qr)]
    notes = []
    if profile.connected:
        clause = TV(True, True, label="connected: R_0 is a field, so J(A) n R_0 = 0 is nil")
        conclusions.append(_cond("J(A) n R_0 nil (via connectedness)", clause))
    else:
        notes.append("J(A) n R_0 is not computable for a non-connected base; clause reported unchecked")
    verdict = _implication(qr, True)
    return TheoremReport("T6", entry.name, verdict, conclusions=conclusions, notes=notes)


def _check_T7(entry: CorpusEntry, budget: SearchBudget, force: bool = False) -> TheoremReport:
    """Quasi-commutative bijective over weakly 2-primal weak Sigma-compatible R: A NJ."""
    w2p = _tv_ring_flag(entry, "weakly_two_primal")
    ws = _tv_compat(is_weak_sigma_compatible(entry.ring, entry.system))
    pre = [_cond("weakly 2-primal", w2p), _cond("weak Sigma-compatible", ws)]
    gated = not w2p.value or not ws.value
    if gated and not force:
        return TheoremReport("T7", entry.name, PRECONDITION_FAILED, preconditions=pre)
    scan = _get_scan(entry, budget)
    ni = bounded_NI_check(entry.presentation, *budget.caps(), scan=scan)
    a_ni = _tv_A_NI(ni)
    qr = _tv_qr_face(scan)
    nj_face = tv_and([a_ni, qr], "A NJ (bounded face)")
    verdict = PRECONDITION_FAILED if gated else _implication(nj_face, w2p.exact and ws.exact)
    report = TheoremReport(
        "T7", entry.name, verdict, preconditions=pre,
        conclusions=[_cond("A NI (bounded)", a_ni), _cond("bounded nilpotents quasi-regular", qr)],
    )
    if ni.witness:
        report.violation_witness = ni.witness
    return report


def _check_T8(entry: CorpusEntry, budget: SearchBudget, force: bool = False) -> TheoremReport:
    """Derivation type: A NI iff A NJ, with the radical chain faces."""
    scan = _get_scan(entry, budget)
    ni = bounded_NI_check(entry.presentation, *budget.caps(), scan=scan)
    a_ni = _tv_A_NI(ni)
    qr = _tv_qr_face(scan)
    agr = _tv_agreement(coefficient_agreement(scan))
    r_ni = _tv_ring_flag(entry, "NI")
    s_nj = tv_and([a_ni, qr], "A NJ (bounded face)")
    s_chain = tv_and([r_ni, agr], "R NI and N(A) = N(R)<x>")
    verdict = _worst([_compare(a_ni, s_nj), _compare(a_ni, s_chain), _compare(s_nj, s_chain)])
    report = TheoremReport(
        "T8", entry.name, verdict,
        conclusions=[
            _cond("A NI (bounded)", a_ni),
            _cond("A NJ (bounded face)", s_nj),
            _cond("R NI and N(A)=N(R)<x> (bounded)", s_chain),
        ],
    )
    if ni.witness:
        report.violation_witness = ni.witness
        report.notes.append("bounded NI violation witness recorded")
    return report


def _check_T9(entry: CorpusEntry, budget: SearchBudget, force: bool = False) -> TheoremReport:
    """Quasi-commutative four-way equivalence."""
    scan = _get_scan(entry, budget)
    ni = bounded_NI_check(entry.presentation, *budget.caps(), scan=scan)
    a_ni = _tv_A_NI(ni)
    qr = _tv_qr_face(scan)
    agr = _tv_agreement(coefficient_agreement(scan))
    rigid = _tv_sigma_rigid_N(entry)
    sigma_ideal = _tv_sigma_ideal_N(entry)
    n_ideal = _tv_N_is_ideal(entry)
    s1 = tv_and([a_ni, qr, agr], "(i) A NJ and N(A) = N(R)<x>")
    s2 = tv_and([sigma_ideal, agr], "(ii) N(R) Sigma-ideal and N(A) = N(R)<x>")
    s3 = tv_and([a_ni, rigid], "(iii) A NI and N(R) Sigma-rigid")
    s4 = tv_and([rigid, n_ideal, agr], "(iv) N(R) Sigma-rigid ideal and N*(A) = N*(R)<x>")
    pairs = [(s1, s2), (s1, s3), (s1, s4), (s2, s3), (s2, s4), (s3, s4)]
    verdict = _worst([_compare(a, b) for a, b in pairs])
    return TheoremReport(
        "T9", entry.name, verdict,
        conclusions=[
            _cond("(i) A NJ and N(A)=N(R)<x>", s1),
            _cond("(ii) N(R) Sigma-ideal and N(A)=N(R)<x>", s2),
            _cond("(iii) A NI and N(R) Sigma-rigid", s3),
            _cond("(iv) N(R) Sigma-rigid ideal and N*(A)=N*(R)<x>", s4),
        ],
    )


def _check_T10(entry: CorpusEntry, budget: SearchBudget, force: bool = False) -> TheoremReport:
    """Derivation-type four-way equivalence (NJ, NI, coefficient faces)."""
    scan = _get_scan(entry, budget)
    ni = bounded_NI_check(entry.presentation, *budget.caps(), scan=scan)
    a_ni = _tv_A_NI(ni)
    qr = _tv_qr_face(scan)
    agr = _tv_agreement(coefficient_agreement(scan))
    r_ni = _tv_ring_flag(entry, "NI")
    nstar = _tv_nstar_eq_N(entry)
    s1 = tv_and([a_ni, qr], "(i) A NJ (bounded face)")
    s2 = a_ni
    s3 = tv_and([r_ni, agr], "(iii) R NI and N(A) = N(R)<x>")
    s4 = tv_and([r_ni, nstar, agr], "(iv) R NI and N*(A) = N*(R)<x>")
    pairs = [(s1, s2), (s1, s3), (s1, s4), (s2, s3), (s2, s4), (s3, s4)]
    verdict = _worst([_compare(a, b) for a, b in pairs])
    return TheoremReport(
        "T10", entry.name, verdict,
        conclusions=[
            _cond("(i) A NJ (bounded face)", s1),
            _cond("(ii) A NI (bounded)", s2),
            _cond("(iii) R NI and N(A)=N(R)<x>", s3),
            _cond("(iv) R NI and N*(A)=N*(R)<x>", s4),
        ],
    )


_RUNNERS: dict[str, Callable[[CorpusEntry, SearchBudget], TheoremReport]] = {
    "T1": _check_T1,
    "T2": _check_T2,
    "T3": _check_T3,
    "T4": _check_T4,
    "T5": _check_T5,
    "T6": _check_T6,
    "T7": _check_T7,
    "T8": _check_T8,
    "T9": _check_T9,
    "T10": _check_T10,
}


def run_all(entry: CorpusEntry, budget: Optional[SearchBudget] = None) -> list[TheoremReport]:
    return [
        run_check(TheoremCheck(tid, entry, budget))
        for tid in THEOREM_IDS
        if shape_compatible(tid, entry)
    ]


# ---------------------------------------------------------------------------
# counterexample search
# ---------------------------------------------------------------------------


@dataclass
class SearchOutcome:
    found: bool
    instance: Optional[str] = None
    witness: Optional[str] = None
    tried: int = 0

    @property
    def exhausted(self) -> bool:
        return not self.found


def _prop_not_NI(entry: CorpusEntry, budget: SearchBudget):
    ni = bounded_NI_check(entry.presentation, *budget.caps(), scan=_get_scan(entry, budget))
    return _wstr(ni.witness) if ni.status == NICheckResult.VIOLATION else None


def _prop_not_weak_compatible(entry: CorpusEntry, budget: SearchBudget):
    ws = is_weak_sigma_compatible(entry.ring, entry.system)
    if not ws.holds:
        return _wstr(ws.witness)
    wd = is_weak_delta_compatible(entry.ring, entry.system)
    return _wstr(wd.witness) if not wd.holds else None


def _prop_not_sigma_compatible(entry: CorpusEntry, budget: SearchBudget):
    res = is_sigma_compatible(entry.ring, entry.system)
    return _wstr(res.witness) if not res.holds else None


def _prop_not_sigma_rigid(entry: CorpusEntry, budget: SearchBudget):
    from .maps import is_sigma_rigid

    res = is_sigma_rigid(entry.ring, entry.system)
    return _wstr(res.witness) if not res.holds else None


def _prop_reduced_base_not_NI(entry: CorpusEntry, budget: SearchBudget):
    if not classify_ring(entry.ring).reduced:
        return None
    return _prop_not_NI(entry, budget)


def _prop_not_delta_invariant(entry: CorpusEntry, budget: SearchBudget):
    tv = _tv_delta_invariant_ideal_N(entry)
    if tv.value:
        return None
    return tv.witness or "nilpotent set not Delta-invariant"


PROPERTIES: dict[str, Callable] = {
    "not-NI": _prop_not_NI,
    "not-weak-compatible": _prop_not_weak_compatible,
    "not-sigma-compatible": _prop_not_sigma_compatible,
    "not-sigma-rigid": _prop_not_sigma_rigid,
    "reduced-base-not-NI": _prop_reduced_base_not_NI,
    "not-delta-invariant-nilradical": _prop_not_delta_invariant,
}


def families() -> dict[str, Callable[[], list[CorpusEntry]]]:
    return {
        "swap": lambda: [swap_extension()],
        "delta-invariant-derivation": lambda: [euler_like(2), euler_like(3)],
        "identity-systems": lambda: [commutative_poly(4, 2), commutative_poly(4, 1), matrix_poly(2)],
        "quasi-commutative": lambda: [swap_extension(), quasi_comm(3, 2, 2), commutative_poly(4, 2)],
        "weyl": lambda: [weyl_like(2), weyl_like(3)],
        "standard": standard_corpus,
    }


def counterexample_search(
    property_name: str,
    family: Union[str, Iterable[CorpusEntry]],
    budget: Optional[SearchBudget] = None,
) -> SearchOutcome:
    if property_name not in PROPERTIES:
        raise WrongShape(property_name, f"unknown property; known: {sorted(PROPERTIES)}")
    if isinstance(family, str):
        try:
            entries = families()[family]()
        except KeyError:
            raise WrongShape(family, f"unknown family; known: {sorted(families())}")
    else:
        entries = list(family)
    prop = PROPERTIES[property_name]
    tried = 0
    for entry in entries:
        tried += 1
        b = budget or (SearchBudget(**entry.budget) if entry.budget else SearchBudget())
        witness = prop(entry, b)
        if witness is not None:
            return SearchOutcome(True, entry.name, witness, tried)
    return SearchOutcome(False, tried=tried)
