"""Batch command-line interface.

Exit codes: 0 = every requested check succeeded or was Consistent /
PreconditionFailed; 1 = a mathematical violation or verification failure,
with the witness in the report; 2 = input error; 3 = no violation but at
least one Inconclusive outcome (budget ran out).

Reports are deterministic for fixed inputs and budgets: stable key order, no
timestamps in the comparable portion (`--timings` adds wall times).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Optional

from .corpus import BUILDERS
from .defio import DefinitionError, definition_to_text, entry_to_definition, load_definition, parse_poly
from .errors import OverlapFails, SkewPBWError
from .extension import verify_presentation
from .graded import is_graded_extension
from .harness import (
    INCONCLUSIVE,
    THEOREM_IDS,
    VIOLATED,
    SearchBudget,
    TheoremCheck,
    counterexample_search,
    families,
    run_check,
    shape_compatible,
)
from .maps import (
    is_delta_compatible,
    is_sigma_compatible,
    is_sigma_rigid,
    is_weak_delta_compatible,
    is_weak_sigma_compatible,
)
from .probes import nilpotency_probe
from .rings import (
    classify_ring,
    jacobson_radical,
    levitzki_radical,
    nilpotent_set,
    prime_radical,
    upper_nilradical,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
    else:
        _render_human(report)


def _render_human(node, indent: int = 0) -> None:
    pad = "  " * indent
    if isinstance(node, dict):
        for k in sorted(node):
            v = node[k]
            if isinstance(v, (dict, list)) and v:
                print(f"{pad}{k}:")
                _render_human(v, indent + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(node, list):
        for item in node:
            if isinstance(item, (dict, list)):
                _render_human(item, indent)
                print()
            else:
                print(f"{pad}- {item}")
    else:
        print(f"{pad}{node}")


def _load_presentation(path: str):
    """A definition with a verified extension block."""
    entry = load_definition(path)
    if entry.presentation is None:
        raise DefinitionError("file has no extension block")
    verify_presentation(entry.presentation)
    return entry


def _budget_from_args(args) -> SearchBudget:
    return SearchBudget(
        degree_cap=args.degree,
        support_cap=args.support,
        exponent_cap=args.exponent,
        pair_budget=args.pairs,
    )


def _positive_int(text: str) -> int:
    """argparse type of the caps and budgets: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {text!r}")
    return value


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--degree", type=_positive_int, default=2, help="degree cap for bounded searches")
    p.add_argument("--support", type=_positive_int, default=2, help="support (term count) cap")
    p.add_argument("--exponent", type=_positive_int, default=8, help="nilpotency exponent cap")
    p.add_argument("--pairs", type=_positive_int, default=10**6, help="pair/operation budget")


def _sorted_coords(elements) -> list:
    return sorted([list(e.coords) for e in elements])


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    entry = load_definition(args.file)
    report = {
        "command": "verify",
        "file": args.file,
        "ring": {"name": entry.ring.name, "size": entry.ring.size, "verified": True},
        "maps": {name: "verified" for name in entry.maps},
    }
    status = EXIT_OK
    if entry.grading is not None:
        report["grading"] = {"labels": list(entry.grading.labels), "verified": True}
    if entry.presentation is not None:
        try:
            verify_presentation(entry.presentation)
            report["presentation"] = {
                "verified": True,
                "flags": _flags(entry.presentation),
            }
        except OverlapFails as exc:
            report["presentation"] = {
                "verified": False,
                "overlap": exc.kind,
                "indices": list(exc.indices),
                "lhs": str(exc.lhs),
                "rhs": str(exc.rhs),
            }
            status = EXIT_VIOLATION
    report["exit"] = status
    _emit(report, args.json)
    return status


def _flags(A) -> dict:
    return {
        "quasi_commutative": A.quasi_commutative,
        "derivation_type": A.derivation_type,
        "endomorphism_type": A.endomorphism_type,
        "bijective": A.bijective,
    }


def _cmd_radicals(args) -> int:
    entry = load_definition(args.file)
    ring = entry.ring
    report = {
        "command": "radicals",
        "ring": ring.name,
        "nilpotents": _sorted_coords(nilpotent_set(ring)),
        "jacobson": _sorted_coords(jacobson_radical(ring).carrier),
        "prime_radical": _sorted_coords(prime_radical(ring).carrier),
        "upper_nilradical": _sorted_coords(upper_nilradical(ring).carrier),
        "levitzki": _sorted_coords(levitzki_radical(ring).carrier),
        "exit": EXIT_OK,
    }
    _emit(report, args.json)
    return EXIT_OK


def _cmd_classify(args) -> int:
    entry = load_definition(args.file)
    profile = classify_ring(entry.ring)
    report = {
        "command": "classify",
        "ring": entry.ring.name,
        "profile": profile.flags(),
        "nilpotents": _sorted_coords(profile.nilpotents),
        "exit": EXIT_OK,
    }
    if entry.system is not None:
        sc = is_sigma_compatible(entry.ring, entry.system)
        dc = is_delta_compatible(entry.ring, entry.system)
        ws = is_weak_sigma_compatible(entry.ring, entry.system)
        wd = is_weak_delta_compatible(entry.ring, entry.system)
        rigid = is_sigma_rigid(entry.ring, entry.system)
        report["maps"] = {
            "sigma_compatible": sc.holds,
            "delta_compatible": dc.holds,
            "delta_compatible_bounded_cap": dc.bounded,
            "weak_sigma_compatible": ws.holds,
            "weak_delta_compatible": wd.holds,
            "sigma_rigid": rigid.holds,
        }
    if entry.presentation is not None:
        report["presentation"] = _flags(entry.presentation)
        if entry.grading is not None and entry.presentation.bijective:
            verify_presentation(entry.presentation)
            gp = is_graded_extension(entry.presentation, entry.grading)
            report["graded"] = {
                "is_graded_extension": gp.is_graded_extension,
                "connected": gp.connected,
                "diagnostics": [list(d) for d in gp.diagnostics],
            }
    _emit(report, args.json)
    return EXIT_OK


def _cmd_mul(args) -> int:
    A = _load_presentation(args.file).presentation
    f = parse_poly(A, args.lhs)
    g = parse_poly(A, args.rhs)
    product = f * g
    report = {
        "command": "mul",
        "lhs": f.to_expr(),
        "rhs": g.to_expr(),
        "product": product.to_expr(),
        "degree": None if product.is_zero else int(product.degree),
        "exit": EXIT_OK,
    }
    _emit(report, args.json)
    return EXIT_OK


def _cmd_nilpotent(args) -> int:
    A = _load_presentation(args.file).presentation
    f = parse_poly(A, args.poly)
    probe = nilpotency_probe(f, args.cap)
    report = {
        "command": "nilpotent",
        "poly": f.to_expr(),
        "status": probe.status,
        "index": probe.index,
        "reason": probe.reason,
        "cap": probe.cap,
        "exit": EXIT_OK,
    }
    _emit(report, args.json)
    return EXIT_OK


def _cmd_check(args) -> int:
    entry = _load_presentation(args.file)
    budget = _budget_from_args(args)
    ids = args.theorem or [tid for tid in THEOREM_IDS if shape_compatible(tid, entry)]
    results = []
    exit_code = EXIT_OK
    for tid in ids:
        if not shape_compatible(tid, entry):
            raise DefinitionError(f"{tid} does not apply to this instance")
        rep = run_check(TheoremCheck(tid, entry, budget, force_conclusions=args.force_conclusions))
        results.append(rep.to_dict(include_timing=args.timings))
        if rep.verdict == VIOLATED:
            exit_code = EXIT_VIOLATION
        elif rep.verdict == INCONCLUSIVE and exit_code == EXIT_OK:
            exit_code = EXIT_INCONCLUSIVE
    report = {
        "command": "check",
        "file": args.file,
        "budget": budget.to_dict(),
        "results": results,
        "exit": exit_code,
    }
    _emit(report, args.json)
    return exit_code


def _cmd_search(args) -> int:
    budget = _budget_from_args(args)
    outcome = counterexample_search(args.property, args.family, budget)
    report = {
        "command": "search",
        "property": args.property,
        "family": args.family,
        "found": outcome.found,
        "instance": outcome.instance,
        "witness": outcome.witness,
        "tried": outcome.tried,
        "exit": EXIT_OK,
    }
    _emit(report, args.json)
    return EXIT_OK


def _cmd_corpus(args) -> int:
    if args.list:
        report = {
            "command": "corpus",
            "entries": sorted(BUILDERS),
            "families": sorted(families()),
            "exit": EXIT_OK,
        }
        _emit(report, args.json)
        return EXIT_OK
    if args.export:
        if args.export not in BUILDERS:
            raise DefinitionError(f"unknown corpus entry {args.export!r}; try --list")
        entry = BUILDERS[args.export]()
        text = definition_to_text(entry_to_definition(entry))
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
            print(f"wrote {args.out}")
        else:
            print(text, end="")
        return EXIT_OK
    if args.export_all:
        outdir = Path(args.export_all)
        outdir.mkdir(parents=True, exist_ok=True)
        for name, builder in sorted(BUILDERS.items()):
            path = outdir / f"{name}.json"
            path.write_text(definition_to_text(entry_to_definition(builder())), encoding="utf-8")
            print(f"wrote {path}")
        return EXIT_OK
    raise DefinitionError("corpus requires one of --list, --export NAME, --export-all DIR")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    top = argparse.ArgumentParser(
        prog="skewpbw",
        description="Exact skew PBW extension engine over finite rings",
    )
    sub = top.add_subparsers(dest="verb", required=True)

    def common(p, needs_file=True):
        if needs_file:
            p.add_argument("file", help="definition file (JSON)")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("verify", help="verify ring, maps, and presentation overlaps")
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("radicals", help="N, J, N_*, N^*, L element lists")
    common(p)
    p.set_defaults(func=_cmd_radicals)

    p = sub.add_parser("classify", help="ring profile, map predicates, presentation flags")
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("mul", help="normal-form product of two polynomial expressions")
    common(p)
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser("nilpotent", help="nilpotency probe with exponent cap")
    common(p)
    p.add_argument("--poly", required=True)
    p.add_argument("--cap", type=_positive_int, default=16)
    p.set_defaults(func=_cmd_nilpotent)

    p = sub.add_parser("check", help="run theorem checks T1..T10")
    common(p)
    p.add_argument("--theorem", action="append", choices=list(THEOREM_IDS))
    p.add_argument("--timings", action="store_true", help="include wall times in the report")
    p.add_argument(
        "--force-conclusions",
        action="store_true",
        help="evaluate conclusions even when a hypothesis fails (tightness experiments)",
    )
    _add_budget_flags(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("search", help="counterexample search over a corpus family")
    p.add_argument("--property", required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--json", action="store_true")
    _add_budget_flags(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("corpus", help="list or export built-in fixtures")
    p.add_argument("--list", action="store_true")
    p.add_argument("--export", metavar="NAME")
    p.add_argument("--export-all", metavar="DIR")
    p.add_argument("-o", "--out", metavar="FILE")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_corpus)

    return top


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DefinitionError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OverlapFails as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except SkewPBWError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
