"""Executable encodings of the NI/NJ theorems as consistency checks.

The theorems rest on a few facts about one instance: whether R is NI or
2-primal, the (weak) Sigma/Delta-compatibility of R, whether A is NI at the
bounds, and whether N(A) = N(R)<x>.  `Evidence` computes each fact once per
(entry, budget) and is kept on the entry, so the checks share one scan and one
NI closure check.  Each theorem is a row of `STATEMENTS`: its hypotheses, its
named conclusions and its verdict rule, an implication or an equivalence.
`run_check` evaluates a row and reports one of:

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
from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Callable, Iterable, Optional, Union

from .corpus import CorpusEntry, commutative_poly, euler_like, matrix_poly, quasi_comm, standard_corpus, swap_extension, weyl_like
from .errors import BudgetExceeded, WrongShape
from .extension import SkewPolynomial
from .graded import is_graded_extension
from .maps import (
    DELTA_INVARIANT,
    SIGMA_IDEAL,
    CompatResult,
    invariance,
    is_delta_compatible,
    is_sigma_compatible,
    is_sigma_rigid,
    is_sigma_rigid_subset,
    is_weak_delta_compatible,
    is_weak_sigma_compatible,
)
from .probes import (
    BoundedScan,
    NICheckResult,
    bounded_NI_check,
    bounded_skew_armendariz,
    coefficient_agreement,
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
        return asdict(self)


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
    bounded_cap: Optional[int] = None  # the search cap behind a semi-decided value


def tv_and(parts: list) -> Optional[TV]:
    falses = [p for p in parts if p is not None and not p.value]
    if falses:
        pick = next((p for p in falses if p.exact), falses[0])
        return TV(False, pick.exact, pick.witness)
    if any(p is None for p in parts):
        return None
    return TV(True, all(p.exact for p in parts))


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
    return max(verdicts, key=[CONSISTENT, INCONCLUSIVE, VIOLATED].index, default=CONSISTENT)


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


def _cond(name: str, tv: Optional[TV]) -> dict:
    tv = tv or TV(None, False)  # undecided
    return {"name": name, "holds": tv.value, "exact": tv.exact, "witness": tv.witness, "bounded_cap": tv.bounded_cap}


# ---------------------------------------------------------------------------
# the evidence
# ---------------------------------------------------------------------------


def _tv_compat(res: CompatResult) -> TV:
    exact = (not res.holds) or res.bounded is None  # found witnesses are exact
    return TV(res.holds, exact, _wstr(res.witness), res.bounded)


class Evidence:
    """The facts the theorems rest on, for one entry at one budget.

    Each fact is a TV, or None when the bounded search left it undecided,
    computed on first use and kept: first the bounded facts about A, then the
    exact facts about R and its maps.  A fact whose computation raises, such as
    BudgetExceeded, is not kept, so each theorem that needs it meets the same
    exception.  The object holds the entry's ring, system, presentation and
    grading, but not the entry, which holds it.

    No fact tests quasi-regularity: a nilpotent f is quasi-regular by the
    ring axioms, (1 + f)(1 - f + ... + (-f)^(k-1)) = 1 - (-f)^k = 1.
    """

    def __init__(self, entry: CorpusEntry, budget: SearchBudget):
        self.ring, self.system = entry.ring, entry.system
        self.A, self.grading = entry.presentation, entry.grading
        self.budget = budget

    @staticmethod
    def of(entry: CorpusEntry, budget: Optional[SearchBudget] = None) -> "Evidence":
        """The entry's evidence at this budget, by default its recorded one, made on first use."""
        if budget is None:
            budget = SearchBudget(**entry.budget) if entry.budget else SearchBudget()
        return entry.evidence.setdefault(budget.caps(), Evidence(entry, budget))

    scan = cached_property(lambda self: BoundedScan(self.A, *self.budget.caps()))
    ni = cached_property(lambda self: bounded_NI_check(self.A, *self.budget.caps(), scan=self.scan))

    @cached_property
    def A_NI(self) -> Optional[TV]:
        if self.ni.status == NICheckResult.VIOLATION:
            return TV(False, True, _wstr(self.ni.witness))
        return TV(True, False) if self.ni.status == NICheckResult.CONSISTENT else None

    @cached_property
    def agreement(self) -> Optional[TV]:
        """N(A) = N(R)<x> over the scan, by the coefficient criterion."""
        agr = coefficient_agreement(self.scan)
        if not agr.holds:
            return TV(False, True, _wstr(agr.witness))
        return None if agr.unknown else TV(True, False)

    @cached_property
    def armendariz(self) -> TV:
        b = self.budget
        # the scan only when one has been made: Armendariz meets its own
        # budgets before anything is built
        scan = self.__dict__.get("scan")
        res = bounded_skew_armendariz(
            self.A, min(b.degree_cap, 2), min(b.support_cap, 2), b.pair_budget, scan=scan
        )
        return TV(res.holds, not res.holds, _wstr(res.witness), res.degree_cap)

    @cached_property
    def d_units(self) -> TV:
        bad = [(pair, dv) for pair, dv in self.A.d.items() if not self.ring.units_mask[dv.index]]
        return TV(not bad, True, _wstr(bad[0]) if bad else None)

    # J(A) n R_0 is nil when R_0 is a field; undecided for a non-connected base
    R0_nil = cached_property(lambda self: TV(True, True) if is_graded_extension(self.A, self.grading).connected else None)

    profile = cached_property(lambda self: classify_ring(self.ring))

    def _flag(self, flag: str) -> TV:
        """A ring flag; a failed one names an element of N(R) xor J(R), every nilradical of a finite ring."""
        value, nil = getattr(self.profile, flag), self.ring.nilpotent_mask
        apart = nil ^ self.profile.jacobson_radical.mask
        if value or not apart.any():
            return TV(value, True)
        sep = self.ring.element_from_index(int(apart.argmax()))  # the first element of N(R) xor J(R)
        side = "N(R)" if nil[sep.index] else "radical"
        return TV(value, True, f"{sep!r} separates N(R) from the comparison set (in {side})")

    def _N_invariance(self, mode: str) -> TV:
        if not self.profile.NI:
            return TV(False, True, "N(R) is not an ideal")
        return _tv_compat(invariance(Ideal.from_mask(self.ring, self.ring.nilpotent_mask), self.system, mode))

    R_NI = cached_property(lambda self: self._flag("NI"))  # N(R) is an ideal
    two_primal = cached_property(lambda self: self._flag("two_primal"))
    weakly_two_primal = cached_property(lambda self: self._flag("weakly_two_primal"))
    locally_finite = cached_property(lambda self: self._flag("locally_finite"))
    sigma_compatible = cached_property(lambda self: _tv_compat(is_sigma_compatible(self.ring, self.system)))
    delta_compatible = cached_property(lambda self: _tv_compat(is_delta_compatible(self.ring, self.system)))
    weak_sigma_compatible = cached_property(lambda self: _tv_compat(is_weak_sigma_compatible(self.ring, self.system)))
    weak_delta_compatible = cached_property(lambda self: _tv_compat(is_weak_delta_compatible(self.ring, self.system)))
    N_sigma_ideal = cached_property(lambda self: self._N_invariance(SIGMA_IDEAL))
    N_delta_invariant = cached_property(lambda self: self._N_invariance(DELTA_INVARIANT))
    N_sigma_rigid = cached_property(
        lambda self: _tv_compat(is_sigma_rigid_subset(self.ring, self.system, self.ring.nilpotent_mask))
    )
    Nstar_eq_N = cached_property(lambda self: TV(self.profile.NJ, True))


# ---------------------------------------------------------------------------
# the theorems as statements
# ---------------------------------------------------------------------------

# report names of the facts used as hypotheses
_PRE_NAMES = {
    "weak_sigma_compatible": "weak Sigma-compatible",
    "weak_delta_compatible": "weak Delta-compatible",
    "sigma_compatible": "Sigma-compatible",
    "delta_compatible": "Delta-compatible",
    "two_primal": "2-primal",
    "weakly_two_primal": "weakly 2-primal",
    "locally_finite": "locally finite",
    "armendariz": "Sigma-skew Armendariz (bounded)",
    "A_NI": "A NI (bounded)",
}


@dataclass(frozen=True)
class Statement:
    """One theorem as data.  An expression names `Evidence` facts joined by " & " (`tv_and`)."""

    # _implication: the hypothesis used => every conclusion; _compare: the
    # sides hold together, the worst verdict over every pair of them
    verdict: Callable
    # (name, expression) in report order; a third item is the note reported
    # in place of a conclusion whose fact is None
    conclusions: tuple
    # alternative hypotheses: the first that holds is used, and a later one is
    # evaluated only when the earlier ones fail
    pre: tuple = ()
    sides: tuple = ()  # what an equivalence compares, when not the conclusions
    notes: tuple = ()
    witness_note: bool = False  # say so when the NI check found a violation witness


STATEMENTS = {
    # weak-compatibility NI transfer: R NI iff A NI.  The A side is evaluated
    # first, so that a budget it exceeds is met before R is classified.
    "T1": Statement(_compare, (("R NI", "R_NI"), ("A NI (bounded)", "A_NI")), sides=("A_NI", "R_NI"),
                    pre=("weak_sigma_compatible & weak_delta_compatible",)),
    # 2-primal + compatible, or locally finite + compatible + skew Armendariz => A NI
    "T2": Statement(_implication, (("A NI (bounded)", "A_NI"),), pre=(
        "two_primal & sigma_compatible & delta_compatible",
        "locally_finite & sigma_compatible & delta_compatible & armendariz",
    )),
    # derivation type: A NI iff N(R) Delta-invariant ideal and N(A) = N(R)<x>
    "T3": Statement(_compare, (
        ("A NI (bounded)", "A_NI"), ("N(R) Delta-invariant ideal", "N_delta_invariant"),
        ("N(A) = N(R)<x> (bounded)", "agreement"),
    ), sides=("A_NI", "N_delta_invariant & agreement"), witness_note=True),
    # three-way equivalence for general A, with bounded A-side equalities
    "T4": Statement(_compare, (
        ("(i) A NI and N(R) Sigma-rigid", "A_NI & N_sigma_rigid"),
        ("(ii) N(R) Sigma-ideal and N(A)=N(R)<x>", "N_sigma_ideal & agreement"),
        ("(iii) N(R) Sigma-rigid ideal and N*(A)=N*(R)<x>", "N_sigma_rigid & R_NI & agreement"),
    ), notes=("(iii) A-side uses the bounded N-agreement; the radicals collapse under the equivalence",)),
    # if A is NI, the d_ij are units (and A is Dedekind-finite in the large)
    "T5": Statement(_implication, (("every d_ij has a two-sided inverse", "d_units"),), pre=("A_NI",)),
    # graded A: NJ iff NI and J(A) n R_0 nil; computable faces only
    "T6": Statement(_implication, (
        ("J(A) n R_0 nil (via connectedness)", "R0_nil",
         "J(A) n R_0 is not computable for a non-connected base; clause reported unchecked"),
    )),
    # quasi-commutative bijective over weakly 2-primal weak Sigma-compatible R: A NJ
    "T7": Statement(_implication, (("A NI (bounded)", "A_NI"),),
                    pre=("weakly_two_primal & weak_sigma_compatible",)),
    # The bounded face of A NJ is N(A) <= J(A), which A NI already gives: a
    # nil ideal lies in J(A).  The other half, J(A) <= N(A), is untested
    # until a finite-module face for it is added (ROADMAP.md).
    # derivation type: A NI iff A NJ, with the radical chain faces
    "T8": Statement(_compare, (
        ("A NI (bounded)", "A_NI"), ("A NJ (bounded face)", "A_NI"),
        ("R NI and N(A)=N(R)<x> (bounded)", "R_NI & agreement"),
    ), witness_note=True),
    # quasi-commutative four-way equivalence
    "T9": Statement(_compare, (
        ("(i) A NJ and N(A)=N(R)<x>", "A_NI & agreement"),
        ("(ii) N(R) Sigma-ideal and N(A)=N(R)<x>", "N_sigma_ideal & agreement"),
        ("(iii) A NI and N(R) Sigma-rigid", "A_NI & N_sigma_rigid"),
        ("(iv) N(R) Sigma-rigid ideal and N*(A)=N*(R)<x>", "N_sigma_rigid & R_NI & agreement"),
    )),
    # derivation-type four-way equivalence (NJ, NI, coefficient faces)
    "T10": Statement(_compare, (
        ("(i) A NJ (bounded face)", "A_NI"), ("(ii) A NI (bounded)", "A_NI"),
        ("(iii) R NI and N(A)=N(R)<x>", "R_NI & agreement"),
        ("(iv) R NI and N*(A)=N*(R)<x>", "R_NI & Nstar_eq_N & agreement"),
    )),
}


def _tv(ev: Evidence, expr: str) -> Optional[TV]:
    facts = expr.split(" & ")
    return getattr(ev, expr) if len(facts) == 1 else tv_and([getattr(ev, f) for f in facts])


def _evaluate(st: Statement, ev: Evidence, force: bool, report: TheoremReport) -> None:
    """Fill the report's verdict, conditions and notes from the statement."""
    exact, gated = True, bool(st.pre)
    for alternative in st.pre:
        listed = [p["name"] for p in report.preconditions]  # shared ones once
        for fact in alternative.split(" & "):
            if _PRE_NAMES[fact] not in listed:
                report.preconditions.append(_cond(_PRE_NAMES[fact], getattr(ev, fact)))
        holds = _tv(ev, alternative)
        if holds is None:  # an undecided hypothesis leaves nothing to conclude
            report.verdict = INCONCLUSIVE
            return
        if holds.value:
            exact, gated = holds.exact, False
            break
    if gated and not force:
        report.verdict = PRECONDITION_FAILED
        return
    report.notes.extend(st.notes)
    if st.verdict is _compare:
        sides = [_tv(ev, expr) for expr in st.sides or [c[1] for c in st.conclusions]]
        report.verdict = _worst(_compare(a, b) for a, b in combinations(sides, 2))
    parts = []
    for name, expr, *unchecked in st.conclusions:
        tv = _tv(ev, expr)
        if tv is None and unchecked:
            report.notes.extend(unchecked)
            continue
        report.conclusions.append(_cond(name, tv))
        parts.append(tv)
    if st.verdict is _implication:
        report.verdict = _implication(tv_and(parts), exact)
        if not parts:  # tv_and([]) holds, with nothing behind it
            report.notes.append("no conclusion checked at this budget: the verdict is vacuous")
    if gated:
        report.verdict = PRECONDITION_FAILED
        report.notes.append("conclusions evaluated despite failed hypotheses (forced)")
    if st.witness_note and ev.ni.witness:
        report.notes.append("bounded NI violation witness recorded")


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
    ev = Evidence.of(entry, check.budget)
    budget = ev.budget
    start = time.perf_counter()
    report = TheoremReport(tid, entry.name, INCONCLUSIVE, budget=budget)
    try:
        _evaluate(STATEMENTS[tid], ev, check.force_conclusions, report)
    except BudgetExceeded as exc:  # a fresh report: no conditions, the note alone
        report = TheoremReport(
            tid, entry.name, INCONCLUSIVE, budget=budget, notes=[f"budget exceeded: {exc}"]
        )
    report.wall_time_s = time.perf_counter() - start
    return report


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


def _failure(tv: Optional[TV]) -> Optional[str]:
    return tv.witness if tv is not None and not tv.value else None


# property name -> the witness of an instance that has it, or None
PROPERTIES: dict[str, Callable[[Evidence], Optional[str]]] = {
    "not-NI": lambda ev: _failure(ev.A_NI),
    "not-weak-compatible": lambda ev: _failure(ev.weak_sigma_compatible) or _failure(ev.weak_delta_compatible),
    "not-sigma-compatible": lambda ev: _failure(ev.sigma_compatible),
    "not-sigma-rigid": lambda ev: _failure(_tv_compat(is_sigma_rigid(ev.ring, ev.system))),
    "reduced-base-not-NI": lambda ev: _failure(ev.A_NI) if ev.profile.reduced else None,
    "not-delta-invariant-nilradical": lambda ev: None if ev.N_delta_invariant.value
    else ev.N_delta_invariant.witness or "nilpotent set not Delta-invariant",
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
    for tried, entry in enumerate(entries, 1):
        witness = prop(Evidence.of(entry, budget))
        if witness is not None:
            return SearchOutcome(True, entry.name, witness, tried)
    return SearchOutcome(False, tried=len(entries))
