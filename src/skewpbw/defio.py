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

import json
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .corpus import CorpusEntry
from .errors import DefinitionError
from .extension import ExtensionPresentation, SkewPolynomial, make_extension
from .graded import Grading, attach_grading
from .maps import RingMap, SigmaSystem, make_endomorphism, make_sigma_derivation
from .rings import FiniteRing, make_ring


@dataclass
class ParsedDefinition:
    name: str
    ring: FiniteRing
    maps: dict[str, RingMap]
    system: Optional[SigmaSystem]
    presentation: Optional[ExtensionPresentation]
    grading: Optional[Grading]

    def as_entry(self) -> CorpusEntry:
        return CorpusEntry(
            name=self.name,
            ring=self.ring,
            system=self.system,
            presentation=self.presentation,
            grading=self.grading,
        )


def parse_definition(text: str) -> ParsedDefinition:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DefinitionError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno)
    return _build(doc)


def load_definition(path: str) -> ParsedDefinition:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_definition(fh.read())


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise DefinitionError(f"missing key {key!r} in {where}")
    return doc[key]


def _expect(value, kind: type, path: str):
    """value, if it is a JSON object (kind dict) or array (kind list)."""
    if not isinstance(value, kind):
        raise DefinitionError(f"{path} must be {'an object' if kind is dict else 'a list'}")
    return value


def _build(doc: dict) -> ParsedDefinition:
    if not isinstance(doc, dict):
        raise DefinitionError("top level must be an object")
    rblock = _expect(_require(doc, "ring", "document"), dict, "ring")
    name = doc.get("name", "unnamed")
    constants = _require(rblock, "constants", "ring block")
    try:
        constants = np.array(constants, dtype=np.int64)
    except (TypeError, ValueError):
        raise DefinitionError("ring.constants must be an m x m x m array of integers")
    ring = make_ring(
        _require(rblock, "orders", "ring block"),
        constants,
        _require(rblock, "one", "ring block"),
        name=name,
    )
    grading = None
    if rblock.get("degrees") is not None:
        grading = attach_grading(ring, rblock["degrees"])

    maps: dict[str, RingMap] = {}
    for i, mb in enumerate(_expect(doc.get("maps", []), list, "maps")):
        mb = _expect(mb, dict, f"maps[{i}]")
        mname = _require(mb, "name", "map block")
        kind = _require(mb, "kind", "map block")
        matrix = _require(mb, "matrix", "map block")
        if kind == "endomorphism":
            maps[mname] = make_endomorphism(ring, matrix, name=mname)
        elif kind == "sigma_derivation":
            partner = _require(mb, "partner", "map block")
            if partner not in maps:
                raise DefinitionError(f"derivation {mname!r} references unknown partner {partner!r}")
            maps[mname] = make_sigma_derivation(ring, maps[partner], matrix, name=mname)
        else:
            raise DefinitionError(f"unknown map kind {kind!r}")

    system = None
    presentation = None
    eblock = doc.get("extension")
    if eblock is not None:
        _expect(eblock, dict, "extension")
        nvars = _require(eblock, "variables", "extension block")
        try:
            nvars = int(nvars)
        except (TypeError, ValueError):
            raise DefinitionError("extension.variables must be an integer")
        signames = _expect(_require(eblock, "sigmas", "extension block"), list, "extension.sigmas")
        if len(signames) != nvars:
            raise DefinitionError("need one sigma name per variable")
        sigmas = []
        for sn in signames:
            if sn not in maps:
                raise DefinitionError(f"extension references unknown map {sn!r}")
            sigmas.append(maps[sn])
        deltas = []
        for dn in eblock.get("deltas", [None] * nvars):
            if dn is None:
                deltas.append(None)
            elif dn not in maps:
                raise DefinitionError(f"extension references unknown map {dn!r}")
            else:
                deltas.append(maps[dn])
        system = SigmaSystem(sigmas, deltas)
        d = {}
        for db in eblock.get("d", []):
            d[(int(db["i"]), int(db["j"]))] = ring.el(db["value"])
        tails = {}
        for tb in eblock.get("tails", []):
            linear = tuple(ring.el(v) for v in tb.get("linear", [[0] * ring.m] * nvars))
            tails[(int(tb["i"]), int(tb["j"]))] = (ring.el(tb.get("constant", [0] * ring.m)), linear)
        presentation = make_extension(ring, system, d=d, tails=tails, name=name)
    return ParsedDefinition(name, ring, maps, system, presentation, grading)


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
