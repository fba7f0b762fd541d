"""Mutated definition files: every verb exits with a documented code.

Each example exports a corpus entry, then replaces, deletes or duplicates one
or two JSON nodes, and runs the result in-process through verify, classify,
radicals and a check at the smallest budget.  Malformed input must exit 2, a
failed verification 1; an exception that escapes `main` fails the test.
"""

import contextlib
import copy
import functools
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from skewpbw.cli import main
from skewpbw.corpus import BUILDERS
from skewpbw.defio import definition_to_text, entry_to_definition

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
