"""CLI verbs, exit codes, determinism."""

import json
import re

import pytest

from skewpbw.cli import main
from skewpbw.corpus import CorpusEntry, q8_twist, weyl_like_corrupted
from skewpbw.defio import definition_to_text, entry_to_definition, parse_poly
from skewpbw.probes import BoundedScan, ProbeResult, bounded_NI_check, nilpotency_probe


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Exported definition files for the fixtures the CLI tests drive."""
    base = tmp_path_factory.mktemp("defs")
    out = {}
    from skewpbw.corpus import commutative_poly, euler_like, swap_extension, weyl_like, zn

    for name, entry in {
        "weyl": weyl_like(2),
        "euler": euler_like(2),
        "swap": swap_extension(),
        "poly": commutative_poly(4, 2),
    }.items():
        path = base / f"{name}.json"
        path.write_text(definition_to_text(entry_to_definition(entry)))
        out[name] = str(path)

    z4 = CorpusEntry(name="Z4", ring=zn(4))
    path = base / "z4.json"
    path.write_text(definition_to_text(entry_to_definition(z4)))
    out["z4"] = str(path)

    corrupted = CorpusEntry(name="corrupted", ring=weyl_like_corrupted().base)
    corrupted.system = weyl_like_corrupted().system
    corrupted.presentation = weyl_like_corrupted()
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
    bounded_NI_check(A, 1, 1, 8, scan=scan)
    f = parse_poly(A, "[1,0,1,0,0,0,0,0]")
    assert scan.status[f] == nilpotency_probe(f, 8) == ProbeResult("nilpotent", index=4)


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
    ],
)
def test_malformed_field_exit_2_with_json_path(files, tmp_path, capsys, path, value):
    with open(files["weyl"]) as fh:
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
