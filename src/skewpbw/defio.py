"""Definition files: a JSON document describing a ring, maps and an extension.

Layout (all integers, see README for the full grammar):

    {
      "name": "...",
      "ring": {"orders": [...], "constants": [[[...]]], "one": [...],
               "degrees": [...]},                  # degrees optional
      "maps": [{"name": "...", "kind": "endomorphism", "matrix": [[...]]},
               {"name": "...", "kind": "sigma_derivation",
                "partner": "...", "matrix": [[...]]}],
      "extension": {"variables": n, "sigmas": ["..."], "deltas": ["..."|null],
                    "d": [{"i": 1, "j": 2, "value": [...]}],
                    "tails": [{"i": 1, "j": 2, "constant": [...],
                               "linear": [[...], ...]}]}
    }

Polynomial expressions (CLI arguments and report witnesses):

    poly  := term ("+" term)*
    term  := coeff | [coeff "*"] mono ["*" coeff]
    coeff := "[" int ("," int)* "]"
    mono  := var ("*" var)*
    var   := ("x" | "x" INDEX) ("^" EXPONENT)?

Left coefficients are the canonical form; a trailing coefficient is legal
input and gets normalized through the commutation rules on parse, so
"x*[0,1]" over the Weyl-like fixture parses to "[0,1]*x^1 + [1,0]".
"""

from __future__ import annotations

import contextlib
import json
import re

from .corpus import CorpusEntry
from .errors import DefinitionError, SkewPBWError
from .extension import ExtensionPresentation, SkewPolynomial, make_extension
from .graded import attach_grading
from .maps import RingMap, SigmaSystem, make_endomorphism, make_sigma_derivation
from .rings import make_ring


def parse_definition(text: str) -> CorpusEntry:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DefinitionError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno)
    return _build(doc)


def load_definition(path: str) -> CorpusEntry:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8, ...
        raise DefinitionError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}")
    return parse_definition(text)


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise DefinitionError(f"missing key {key!r} in {where}")
    return doc[key]


def _expect(value, kind: type, path: str):
    """value, if it is a JSON object (kind dict), array (list) or string (str)."""
    if not isinstance(value, kind):
        article = {dict: "an object", list: "a list", str: "a string"}[kind]
        raise DefinitionError(f"{path} must be {article}")
    return value


_INTEGER_SHAPES = ("an integer", "a list of integers", "a matrix of integers", "an array of integers")


def _integers(value, path: str, shape: tuple = (None,)):
    """value, if it is a 64-bit integer (shape ()) or arrays of them nested len(shape) deep; no coercion.

    The arrays at depth k must have length shape[k], where that is not None.
    """
    def ok(v, s: tuple) -> bool:
        if s:
            return isinstance(v, list) and s[0] in (None, len(v)) and all(ok(x, s[1:]) for x in v)
        return type(v) is int and abs(v) < 2**63  # bool is not int; int64 holds it

    if not ok(value, shape):
        size = "" if None in shape else " x ".join(map(str, shape))
        raise DefinitionError(f"{path} must be {_INTEGER_SHAPES[len(shape)]}" + (size and f" of shape {size}"))
    return value


def _objects(value, path: str) -> list:
    """(path[i], entry) for each entry of a JSON array of objects."""
    return [(f"{path}[{i}]", _expect(v, dict, f"{path}[{i}]")) for i, v in enumerate(_expect(value, list, path))]


@contextlib.contextmanager
def _block(path: str):
    """Re-raise an engine error from building the block at path as a DefinitionError that names it."""
    try:
        yield
    except DefinitionError:
        raise
    except SkewPBWError as exc:
        raise DefinitionError(f"{path}: {exc}") from exc


def _build(doc: dict) -> CorpusEntry:
    if not isinstance(doc, dict):
        raise DefinitionError("top level must be an object")
    rblock = _expect(_require(doc, "ring", "the document"), dict, "ring")
    name = _expect(doc.get("name", "unnamed"), str, "name")
    orders = _integers(_require(rblock, "orders", "ring"), "ring.orders")
    m = len(orders)
    with _block("ring"):
        ring = make_ring(
            orders,
            _integers(_require(rblock, "constants", "ring"), "ring.constants", (m, m, m)),
            _integers(_require(rblock, "one", "ring"), "ring.one", (m,)),
            name=name,
        )
    grading = None
    if rblock.get("degrees") is not None:
        with _block("ring.degrees"):
            grading = attach_grading(ring, _integers(rblock["degrees"], "ring.degrees", (m,)))

    maps: dict[str, RingMap] = {}
    for at, mb in _objects(doc.get("maps", []), "maps"):
        mname = _expect(_require(mb, "name", at), str, f"{at}.name")
        if mname in maps:
            raise DefinitionError(f"{at}.name must be unique, and {mname!r} is taken")
        kind = _require(mb, "kind", at)
        matrix = _integers(_require(mb, "matrix", at), f"{at}.matrix", (m, m))
        with _block(at):
            if kind == "endomorphism":
                maps[mname] = make_endomorphism(ring, matrix, name=mname)
            elif kind == "sigma_derivation":
                partner = _expect(_require(mb, "partner", at), str, f"{at}.partner")
                if partner not in maps:
                    raise DefinitionError(f"{at}.partner must be the name of an earlier map, not {partner!r}")
                maps[mname] = make_sigma_derivation(ring, maps[partner], matrix, name=mname)
            else:
                raise DefinitionError(f"{at}.kind must be 'endomorphism' or 'sigma_derivation'")

    presentation = None
    eblock = doc.get("extension")
    if eblock is not None:
        _expect(eblock, dict, "extension")
        nvars = _integers(_require(eblock, "variables", "extension"), "extension.variables", ())
        if nvars < 1:
            raise DefinitionError("extension.variables must be a positive integer")
        signames = _expect(_require(eblock, "sigmas", "extension"), list, "extension.sigmas")
        if len(signames) != nvars:
            raise DefinitionError(f"extension.sigmas must be a list of {nvars} map names, one per variable")
        deltanames = _expect(eblock.get("deltas", [None] * nvars), list, "extension.deltas")
        if len(deltanames) != nvars:
            raise DefinitionError(f"extension.deltas must be a list of {nvars} map names or nulls")

        def lookup(mname, path: str) -> RingMap:
            if _expect(mname, str, path) not in maps:
                raise DefinitionError(f"{path} must be the name of a map, not {mname!r}")
            return maps[mname]

        def pair(block: dict, at: str, seen: dict) -> tuple:
            i, j = (_integers(_require(block, k, at), f"{at}.{k}", ()) for k in "ij")
            if not 1 <= i < j <= nvars:
                raise DefinitionError(f"{at} must be a relation with 1 <= i < j <= {nvars}")
            if (i, j) in seen:
                raise DefinitionError(f"{at} must be the only relation with i = {i}, j = {j}")
            return i, j

        sigmas = [lookup(sn, f"extension.sigmas[{i}]") for i, sn in enumerate(signames)]
        deltas = [None if dn is None else lookup(dn, f"extension.deltas[{i}]") for i, dn in enumerate(deltanames)]
        with _block("extension"):
            system = SigmaSystem(sigmas, deltas)
            d = {}
            for at, db in _objects(eblock.get("d", []), "extension.d"):
                d[pair(db, at, d)] = ring.el(_integers(_require(db, "value", at), f"{at}.value", (m,)))
            tails = {}
            for at, tb in _objects(eblock.get("tails", []), "extension.tails"):
                key = pair(tb, at, tails)
                constant = _integers(tb.get("constant", [0] * m), f"{at}.constant", (m,))
                linear = _integers(tb.get("linear", [[0] * m] * nvars), f"{at}.linear", (nvars, m))
                tails[key] = (ring.el(constant), tuple(ring.el(v) for v in linear))
            presentation = make_extension(ring, system, d=d, tails=tails, name=name)
    return CorpusEntry(name, ring, presentation, grading, maps=maps)


# ---------------------------------------------------------------------------
# serialization (corpus export, round-trip tested)
# ---------------------------------------------------------------------------


def entry_to_definition(entry: CorpusEntry) -> dict:
    ring = entry.ring
    doc: dict = {
        "name": entry.name,
        "ring": {
            "orders": list(ring.orders),
            "constants": ring.constants.tolist(),
            "one": list(ring.one.coords),
        },
    }
    if entry.grading is not None:
        doc["ring"]["degrees"] = list(entry.grading.labels)
    if entry.system is None:
        return doc
    maps = []
    signames = []
    deltanames = []
    seen: dict[bytes, str] = {}
    for i, s in enumerate(entry.system.sigmas):
        key = s.matrix.tobytes() + b"|endo"
        if key not in seen:
            mname = f"sigma{i + 1}"
            seen[key] = mname
            maps.append({"name": mname, "kind": "endomorphism", "matrix": s.matrix.tolist()})
        signames.append(seen[key])
    for i, d in enumerate(entry.system.deltas):
        if d.is_zero:
            deltanames.append(None)
            continue
        key = d.matrix.tobytes() + b"|der|" + d.partner.matrix.tobytes()
        if key not in seen:
            mname = f"delta{i + 1}"
            seen[key] = mname
            maps.append(
                {
                    "name": mname,
                    "kind": "sigma_derivation",
                    "partner": signames[i],
                    "matrix": d.matrix.tolist(),
                }
            )
        deltanames.append(seen[key])
    doc["maps"] = maps
    if entry.presentation is not None:
        A = entry.presentation
        doc["extension"] = {
            "variables": A.n,
            "sigmas": signames,
            "deltas": deltanames,
            "d": [
                {"i": i, "j": j, "value": list(v.coords)} for (i, j), v in sorted(A.d.items())
            ],
            "tails": [
                {
                    "i": i,
                    "j": j,
                    "constant": list(t0.coords),
                    "linear": [list(t.coords) for t in lin],
                }
                for (i, j), (t0, lin) in sorted(A.tails.items())
                if not t0.is_zero or any(not t.is_zero for t in lin)
            ],
        }
    return doc


def definition_to_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# polynomial expressions
# ---------------------------------------------------------------------------

_VAR_RE = re.compile(r"^x(\d*)(?:\^(\d+))?$")


def parse_poly(A: ExtensionPresentation, text: str) -> SkewPolynomial:
    text = text.strip()
    if text in ("", "0"):
        return A.zero_poly()
    out = {}

    def take_coeff(chunk: str, term: str):
        close = chunk.find("]")
        if close < 0:
            raise DefinitionError(f"unclosed coefficient bracket in {term!r}")
        inside = chunk[1:close].strip()
        try:
            coords = [int(x) for x in inside.split(",")] if inside else []
        except ValueError:
            raise DefinitionError(f"bad coefficient {chunk[: close + 1]!r}")
        if len(coords) != A.base.m:
            raise DefinitionError(
                f"coefficient has {len(coords)} coordinates, ring needs {A.base.m}"
            )
        return A.base.el(coords), chunk[close + 1 :].strip()

    for raw in text.split("+"):
        term = raw.strip()
        if not term:
            raise DefinitionError("empty term in polynomial expression")
        left = None
        right = None
        mono = [0] * A.n
        rest = term
        if rest.startswith("["):
            left, rest = take_coeff(rest, term)
            if rest.startswith("*"):
                rest = rest[1:].strip()
            elif rest:
                raise DefinitionError(f"expected '*' after coefficient in {term!r}")
        if rest:
            factors = [f.strip() for f in rest.split("*")]
            if factors[-1].startswith("["):
                right, leftover = take_coeff(factors[-1], term)
                if leftover:
                    raise DefinitionError(f"trailing text after coefficient in {term!r}")
                factors = factors[:-1]
                if not factors:
                    raise DefinitionError(f"misplaced coefficient in {term!r}")
            for factor in factors:
                m = _VAR_RE.match(factor)
                if not m:
                    raise DefinitionError(f"bad monomial factor {factor!r}")
                idx = int(m.group(1)) if m.group(1) else 1
                if m.group(1) == "" and A.n != 1:
                    raise DefinitionError("bare 'x' is only allowed with one variable")
                if not (1 <= idx <= A.n):
                    raise DefinitionError(f"variable index {idx} out of range 1..{A.n}")
                exp = int(m.group(2)) if m.group(2) else 1
                mono[idx - 1] += exp
        coeff = A.base.one if left is None else left
        key = tuple(mono)
        if right is None:
            prev = out.get(key, A.base.zero)
            out[key] = prev + coeff
            continue
        # trailing coefficient: normalize x^alpha * r into left-coefficient form
        for gamma, pushed in A._push(key, right.index).items():
            value = coeff * A.base.element_from_index(pushed)
            prev = out.get(gamma, A.base.zero)
            out[gamma] = prev + value
    return A.poly(out)
