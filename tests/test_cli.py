"""CLI verbs, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import skewpbw
from skewpbw import cli
from skewpbw.cli import main
from skewpbw.corpus import CorpusEntry, q8_twist
from skewpbw.defio import definition_to_text, entry_to_definition, parse_poly
from skewpbw.probes import BoundedScan, ProbeResult, bounded_NI_check, nilpotency_probe


@pytest.fixture(scope="module")
def files(tmp_path_factory, weyl_corrupted):
    """Exported definition files for the fixtures the CLI tests drive."""
    base = tmp_path_factory.mktemp("defs")
    out = {}
    from skewpbw.corpus import (
        clifford_trunc, commutative_poly, euler_like, heisenberg, swap_extension, trunc_poly, weyl_like, zn,
    )

    for name, entry in {
        "weyl": weyl_like(2),
        "heisenberg": heisenberg(2),
        "clifford": clifford_trunc(2),
        "euler": euler_like(2),
        "swap": swap_extension(),
        "poly": commutative_poly(4, 2),
    }.items():
        path = base / f"{name}.json"
        path.write_text(definition_to_text(entry_to_definition(entry)))
        out[name] = str(path)

    for name, entry in {  # ring-only definitions
        "z4": CorpusEntry(name="Z4", ring=zn(4)),
        "trunc5_4": CorpusEntry(name="Z5[y]/(y^4)", ring=trunc_poly(5, 4)),
    }.items():
        path = base / f"{name}.json"
        path.write_text(definition_to_text(entry_to_definition(entry)))
        out[name] = str(path)

    corrupted = CorpusEntry(name="corrupted", ring=weyl_corrupted.base)
    corrupted.presentation = weyl_corrupted
    path = base / "corrupted.json"
    path.write_text(definition_to_text(entry_to_definition(corrupted)))
    out["corrupted"] = str(path)
    return out


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    captured = capsys.readouterr()
    return code, json.loads(captured.out)


def test_verify_ok(files, capsys):
    code, report = run_json(capsys, ["verify", files["weyl"]])
    assert code == 0
    assert report["presentation"]["verified"] is True


def test_verify_corrupted_exit_1(files, capsys):
    code, report = run_json(capsys, ["verify", files["corrupted"]])
    assert code == 1
    assert report["presentation"]["verified"] is False
    assert report["presentation"]["lhs"] != report["presentation"]["rhs"]


def test_radicals_z4(files, capsys):
    code, report = run_json(capsys, ["radicals", files["z4"]])
    assert code == 0
    assert report["nilpotents"] == [[0], [2]]
    assert report["jacobson"] == [[0], [2]]
    assert report["prime_radical"] == [[0], [2]]
    assert report["levitzki"] == [[0], [2]]


def test_radicals_past_the_classification_cap(files, capsys):
    # 625 elements: the radicals are J(R), certified nilpotent, with no
    # ideal enumeration to cap; the classification quantifiers are capped
    code, report = run_json(capsys, ["radicals", files["trunc5_4"]])
    assert code == 0
    assert len(report["jacobson"]) == 125
    for key in ("nilpotents", "prime_radical", "upper_nilradical", "levitzki"):
        assert report[key] == report["jacobson"], key
    assert main(["classify", files["trunc5_4"], "--json"]) == 2
    assert "classification of size 625 exceeds the configured cap 256" in capsys.readouterr().err


def test_classify_z4(files, capsys):
    code, report = run_json(capsys, ["classify", files["z4"]])
    assert code == 0
    assert report["profile"]["NI"] and report["profile"]["NJ"]
    assert not report["profile"]["reduced"]


def test_mul_weyl_spec_example(files, capsys):
    code, report = run_json(capsys, ["mul", files["weyl"], "--lhs", "x", "--rhs", "[0,1]"])
    assert code == 0
    assert report["product"] == "[0,1]*x^1 + [1,0]"


def test_mul_parse_error_exit_2(files, capsys):
    code = main(["mul", files["weyl"], "--lhs", "x@", "--rhs", "[0,1]"])
    assert code == 2


def test_nilpotent_probe_verb(files, capsys):
    code, report = run_json(capsys, ["nilpotent", files["euler"], "--poly", "[0,1]*x", "--cap", "8"])
    assert code == 0
    assert report["status"] == "nilpotent" and report["index"] == 2


def test_nilpotent_verb_finite_module(files, capsys):
    # y x^3: the leading chain y, y^2 = 0 reaches 0, and no power vanishes
    # by cap 6; R = Z2[y]/(y^2) as a module of A/A(x^2 - 1) decides it
    code, report = run_json(capsys, ["nilpotent", files["weyl"], "--poly", "[0,1]*x^3", "--cap", "6", "--json"])
    assert code == 0
    assert (report["status"], report["index"], report["reason"], report["cap"]) == (
        "not_nilpotent", None, "finite_module", None
    )


def test_nilpotent_verb_agrees_with_the_scan(tmp_path, capsys):
    # 1 + i in F2[Q8] lies in J<x>: the verb and the NI check's scan both
    # prove it nilpotent by power iteration, with its index
    entry = q8_twist()
    path = tmp_path / "q8_twist.json"
    path.write_text(definition_to_text(entry_to_definition(entry)))
    code, report = run_json(capsys, ["nilpotent", str(path), "--poly", "[1,0,1,0,0,0,0,0]", "--cap", "8"])
    assert code == 0
    assert (report["status"], report["index"], report["reason"], report["cap"]) == ("nilpotent", 4, None, None)
    A = entry.presentation
    scan = BoundedScan(A, 1, 1, 8)
    bounded_NI_check(scan)
    f = parse_poly(A, "[1,0,1,0,0,0,0,0]")
    assert scan.probe(f) == nilpotency_probe(f, 8) == ProbeResult("nilpotent", index=4)


@pytest.mark.parametrize("argv", [
    ["mul", "--lhs", "1", "--rhs", "1"],
    ["nilpotent", "--poly", "1"],
    ["check"],
])
def test_ring_only_file_has_no_extension_block(files, capsys, argv):
    assert main(argv[:1] + [files["z4"]] + argv[1:]) == 2
    assert "file has no extension block" in capsys.readouterr().err


def test_check_t1_swap_exit_0(files, capsys):
    code, report = run_json(capsys, ["check", files["swap"], "--theorem", "T1"])
    assert code == 0
    assert report["results"][0]["verdict"] == "PreconditionFailed"


def test_check_all_euler(files, capsys):
    code, report = run_json(capsys, ["check", files["euler"], "--support", "3"])
    assert code == 0
    verdicts = {r["id"]: r["verdict"] for r in report["results"]}
    assert verdicts["T1"] == "Consistent"
    assert verdicts["T8"] == "Consistent"


def test_check_inconclusive_exit_3(files, capsys):
    code, report = run_json(
        capsys, ["check", files["euler"], "--theorem", "T1", "--pairs", "5"]
    )
    assert code == 3
    assert report["results"][0]["verdict"] == "Inconclusive"


def test_check_deterministic(files, capsys):
    _, first = run_json(capsys, ["check", files["euler"], "--theorem", "T3"])
    _, second = run_json(capsys, ["check", files["euler"], "--theorem", "T3"])
    assert first == second


def test_bad_json_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    code = main(["verify", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "line" in err


@pytest.mark.parametrize(
    "path, value",
    [
        ("extension.variables", "one"),
        ("ring.constants", [[[1, 0], [0, 1]], [[0, 1]]]),  # ragged
        ("ring", 5),
        ("extension", 5),
        ("extension.sigmas", 3),
        ("maps", {"sigma1": {"kind": "endomorphism"}}),
        ("maps[0]", "sigma1"),
        ("extension.deltas", 3),
        ("extension.d[0]", 5),  # d is empty: extension.d becomes [5]
        ("extension.tails", 5),
        ("ring.orders", 5),
        ("ring.one", 5),
        ("extension.sigmas[0]", ["x"]),
        ("ring.degrees", 5),
        ("ring.orders", ["2", "2"]),
        ("ring.orders", [2.5, 2]),
        ("extension.variables", 2.7),
        ("maps[0].name", ["x"]),
        ("maps[1].partner", ["x"]),
        ("ring.orders", [10**30, 2]),  # past 64 bits
        ("maps[0].matrix", [[1, 0], [0]]),  # ragged
        ("maps[0].matrix", [[1, 0, 0], [0, 1, 0]]),  # not 2 x 2
        ("maps[1].kind", "automorphism"),
        ("maps[1].name", "sigma1"),  # taken by maps[0]
        ("maps[1].partner", "delta1"),  # not an earlier map
        ("ring.one", [1, 0, 0]),
        ("ring.degrees", [0]),
        ("extension.variables", 0),
        ("extension.sigmas", ["sigma1", "sigma1"]),
        ("extension.sigmas[0]", "nope"),
        ("extension.deltas", ["delta1", None]),
        ("extension.d[0]", {"i": 1, "j": 2, "value": [1, 0]}),  # one variable: no pair i < j
        ("extension.tails[0]", {"i": 0, "j": 1}),
    ],
)
def test_malformed_field_exit_2_with_json_path(files, tmp_path, capsys, path, value):
    assert_malformed_exit_2(files["weyl"], tmp_path, capsys, path, value)


@pytest.mark.parametrize(
    "path, value",
    [
        # a file with one variable has no valid pair to reach these fields
        ("extension.tails[0].linear", [[0], [0]]),  # three variables
        ("extension.tails[0].constant", [0, 0]),
        ("extension.d[0].value", [1, 0]),
        ("extension.d[1]", {"i": 1, "j": 2, "value": [1]}),  # d[0] is the (1, 2) relation
        ("extension.tails[1]", {"i": 1, "j": 2}),  # so is tails[0]
    ],
)
def test_malformed_relation_exit_2_with_json_path(files, tmp_path, capsys, path, value):
    assert_malformed_exit_2(files["heisenberg"], tmp_path, capsys, path, value)


def assert_malformed_exit_2(source, tmp_path, capsys, path, value):
    """Set the node at path of the source file to value; verify must exit 2 naming path."""
    with open(source) as fh:
        doc = json.load(fh)
    *parents, last = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", path)]
    target = doc
    for key in parents:
        target = target[key]
    if isinstance(last, int):
        target[last : last + 1] = [value]  # replaces the entry, or appends one
    else:
        target[last] = value
    mutated = tmp_path / "mutated.json"
    mutated.write_text(json.dumps(doc))
    assert main(["verify", str(mutated)]) == 2
    err = capsys.readouterr().err
    assert f"{path} must be" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["check", "weyl", "--degree", "0"],
    ["check", "weyl", "--support", "0"],
    ["check", "weyl", "--exponent", "-1"],
    ["check", "weyl", "--pairs", "0"],
    ["check", "weyl", "--degree", "abc"],
    ["search", "--property", "not-NI", "--family", "swap", "--degree", "0"],
    ["search", "--property", "not-NI", "--family", "swap", "--pairs", "-5"],
    ["nilpotent", "weyl", "--poly", "x", "--cap", "0"],
])
def test_budget_flags_must_be_positive(files, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([files.get(a, a) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}: must be a positive integer" in err and "Traceback" not in err


def test_missing_file_exit_2(capsys):
    assert main(["verify", "/nonexistent/def.json"]) == 2
    assert "cannot read /nonexistent/def.json: " in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, b"\xff\xfe{\x00}\x00"], ids=["directory", "utf-16"])
def test_unreadable_file_exit_2(tmp_path, capsys, content):
    path = tmp_path / "def.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"input error: cannot read {path}: " in err and "Traceback" not in err


@pytest.mark.parametrize("argv, expected", [
    (["mul", "--lhs", "x^3000*[0,1]", "--rhs", "[1,0]"], {"product": "[0,1]*x^3000"}),
    (["mul", "--lhs", "x^3000", "--rhs", "[0,1]"], {"product": "[0,1]*x^3000"}),
    (["mul", "--lhs", "x^3001", "--rhs", "[0,1]"], {"product": "[0,1]*x^3001 + [1,0]*x^3000"}),
    (["nilpotent", "--poly", "[0,1]*x^3000", "--cap", "2"], {"status": "nilpotent", "index": 2}),
])
def test_one_variable_products_of_any_degree(files, capsys, argv, expected):
    # x^i q = q x^i + i q' x^(i-1) over Z_2[y]/(y^2) with delta = d/dy: the
    # push is a loop, so no degree overruns the recursion limit
    code, report = run_json(capsys, argv[:1] + [files["weyl"]] + argv[1:])
    assert code == 0
    assert {key: report[key] for key in expected} == expected


@pytest.mark.parametrize("argv, expected", [
    (["mul", "heisenberg", "--lhs", "x2^2000", "--rhs", "x1"], {"product": "[1]*x1^1*x2^2000", "degree": 2001}),
    (
        ["mul", "heisenberg", "--lhs", "x2^1001", "--rhs", "x1"],
        {"product": "[1]*x1^1*x2^1001 + [1]*x2^1000*x3^1", "degree": 1002},
    ),
    (["mul", "clifford", "--lhs", "x2^1500", "--rhs", "x1"], {"product": "[1,0,0]*x1^1*x2^1500", "degree": 1501}),
])
def test_reordering_products_of_any_degree(files, capsys, argv, expected):
    # x2^k x1 = x1 x2^k + k x3 x2^(k-1) in the Heisenberg algebra over Z_2,
    # and x1 x2^k over the Clifford base: `_mono` reorders on an explicit
    # stack, so no degree overruns the recursion limit
    code, report = run_json(capsys, argv[:1] + [files[argv[1]]] + argv[2:])
    assert code == 0
    assert {key: report[key] for key in expected} == expected


def test_search_verb(capsys):
    code, report = run_json(capsys, ["search", "--property", "not-NI", "--family", "swap"])
    assert code == 0
    assert report["found"] is True


def test_corpus_list_and_export(tmp_path, capsys):
    code, report = run_json(capsys, ["corpus", "--list"])
    assert code == 0
    assert "weyl_like_2" in report["entries"]
    out = tmp_path / "exported.json"
    assert main(["corpus", "--export", "weyl_like_2", "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out)]) == 0


def test_corpus_unknown_export_exit_2(capsys):
    assert main(["corpus", "--export", "nope"]) == 2


def test_one_parser_serves_every_verb(files, capsys):
    # the parser is built once per process; verbs run back to back through
    # one main print what each prints in a fresh process
    assert cli.build_parser() is cli.build_parser()
    runs = [
        ["check", files["swap"], "--json", "--theorem", "T1"],
        ["mul", files["weyl"], "--lhs", "x^3", "--rhs", "[0,1]"],
        ["check", files["euler"], "--json", "--degree", "1"],
    ]
    src = Path(skewpbw.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    for argv in runs:
        code = main(argv)
        out = capsys.readouterr().out
        fresh = subprocess.run(
            [sys.executable, "-m", "skewpbw.cli", *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert (code, out) == (fresh.returncode, fresh.stdout), argv
