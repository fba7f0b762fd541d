"""Definition files at the input boundary.

Mutated files: each example exports a corpus entry, then replaces, deletes or
duplicates one or two JSON nodes, and runs the result in-process through
verify, classify, radicals and a check at the smallest budget.  Malformed
input must exit 2, a failed verification 1; an exception that escapes `main`
fails the test.  Well-typed fields that the engine rejects exit 2 naming
their block.

Valid files: random small extensions outside the corpus export, parse and
export back to the same text, and the parsed presentation verifies.
"""

import contextlib
import copy
import functools
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from skewpbw import corpus
from skewpbw.cli import main
from skewpbw.corpus import BUILDERS
from skewpbw.defio import definition_to_text, entry_to_definition, parse_definition
from skewpbw.extension import verify_presentation
from skewpbw.maps import identity_map, make_sigma_derivation

VERBS = (["verify"], ["classify"], ["radicals"], ["check", "--degree", "1", "--support", "1", "--exponent", "2"])

VALUES = st.one_of(
    st.integers(-3, 9),
    st.just(2**70),
    st.floats(),
    st.text(max_size=4),
    st.booleans(),
    st.none(),
    st.lists(st.integers(-3, 9), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 9), max_size=2),
)


@functools.cache
def exported(name: str) -> str:
    return definition_to_text(entry_to_definition(BUILDERS[name]()))


def nodes(node, path=()):
    """(path, child) for every node below node, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,), child
        yield from nodes(child, path + (key,))


def mutate(draw, doc) -> None:
    """Replace, delete or duplicate one node of doc in place."""
    found = list(nodes(doc))
    (*parents, key), node = draw(st.sampled_from(found))
    parent = functools.reduce(lambda n, k: n[k], parents, doc)
    op = draw(st.sampled_from(["replace", "delete", "duplicate"]))
    if op == "replace":
        parent[key] = draw(VALUES)
    elif op == "delete":
        del parent[key]
    elif isinstance(parent, list):  # a second copy of the entry beside it
        parent.insert(key, copy.deepcopy(node))
    else:  # a copy of another node in its place
        parent[key] = copy.deepcopy(draw(st.sampled_from(found))[1])


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_mutated_definitions_exit_with_a_documented_code(data):
    doc = json.loads(exported(data.draw(st.sampled_from(sorted(BUILDERS)))))
    for _ in range(data.draw(st.integers(1, 2))):
        mutate(data.draw, doc)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "def.json"
        path.write_text(json.dumps(doc))
        for verb, *flags in VERBS:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([verb, str(path), *flags])
            assert code in (0, 1, 2, 3), (verb, err.getvalue())


@pytest.mark.parametrize(
    "block, edit, message",
    [
        pytest.param(
            "extension", lambda doc: doc["extension"]["d"][0].update(value=[0]), "d_{1,2} must be nonzero", id="zero-d"
        ),
        pytest.param(
            "maps[0]",
            lambda doc: doc["maps"][0].update(matrix=[[2]]),
            "map is not multiplicative on generator pair (e1, e1)",
            id="not-multiplicative",
        ),
        pytest.param(
            "ring.degrees",
            lambda doc: doc["ring"].update(degrees=[1]),
            "identity has a component of positive degree",
            id="graded-one",
        ),
        pytest.param(
            "extension",
            lambda doc: doc["extension"].update(deltas=["sigma1", None]),
            "every delta must be a verified sigma-derivation",
            id="endomorphism-as-delta",
        ),
    ],
)
def test_engine_errors_name_their_block(tmp_path, capsys, block, edit, message):
    # well-typed fields that define no valid ring, map or extension
    doc = json.loads(exported("poly_z4_2v"))
    edit(doc)
    path = tmp_path / "def.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == f"input error: {block}: {message}\n"


# commutative bases as (size, builder), and the products of two of them with
# at most 64 elements
BASES = (
    [(n, functools.partial(corpus.zn, n)) for n in range(2, 9)]
    + [(p**m, functools.partial(corpus.trunc_poly, p, m)) for p, m in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)]]
    + [(4, corpus.field4)]
)
SHAPES = [[b] for b in BASES] + [[a, b] for a in BASES for b in BASES if a[0] * b[0] <= 64]


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_valid_definitions_round_trip(data):
    n = data.draw(st.integers(1, 2))
    d = deltas = None
    if n == 1 and data.draw(st.booleans()):  # d/dy or y*d/dy on Z_p[y]/(y^p)
        ring = corpus.trunc_poly(*[data.draw(st.sampled_from([2, 3]))] * 2)
        matrix = data.draw(st.sampled_from([corpus._ddy_matrix, corpus._yddy_matrix]))(ring)
        deltas = [make_sigma_derivation(ring, identity_map(ring), matrix, name="delta")]
    else:
        ring = functools.reduce(corpus.product_ring, [build() for _, build in data.draw(st.sampled_from(SHAPES))])
        if n == 2:
            units = [r for r in ring.elements() if ring.units_mask[r.index]]
            d = {(1, 2): data.draw(st.sampled_from(units))}
    entry = corpus._extension("random", [identity_map(ring)] * n, deltas, d=d)
    text = definition_to_text(entry_to_definition(entry))
    parsed = parse_definition(text)
    verify_presentation(parsed.presentation)
    assert definition_to_text(entry_to_definition(parsed)) == text
