"""JSON forms for every value type, and validating loaders for all but the
(t, q)-polynomial, which is only ever written.

Loaders check only the JSON shape (keys, arrays, fixed starts) and leave
every other rule to the value type they build, so malformed files fail
loudly, with that type's ValueError naming what was violated.
"""
from __future__ import annotations

from typing import Any

from .laguerre import LaguerreHistory
from .paths import BOTTOM_START, MIDDLE_START, TOP_START, PathTriple, tlp_parameters
from .perm import Perm, _is_int, as_permutation
from .qseries import TQPoly


def perm_to_obj(p: Perm) -> list[int]:
    return list(p)


def perm_from_obj(obj: Any) -> Perm:
    """Accept a list of integers, or a string of the ASCII digits 1-9 for n <= 9."""
    if isinstance(obj, str):
        if not (obj.isascii() and obj.isdigit()):
            raise ValueError(f"compact permutation form must be digits 1-9: {obj!r}")
        if "0" in obj:
            raise ValueError("compact permutation form cannot contain 0")
        return as_permutation([int(ch) for ch in obj])
    if isinstance(obj, list):
        return as_permutation(obj)
    raise ValueError(f"expected a JSON array or digit string, got {type(obj).__name__}")


_STARTS = {"bottom": BOTTOM_START, "middle": MIDDLE_START, "top": TOP_START}


def triple_to_obj(words: tuple[str, str, str]) -> dict:
    """A triple's (bottom, middle, top) words, a PathTriple or a plain tuple."""
    paths = zip(_STARTS.items(), words, strict=True)
    return {name: {"start": list(start), "steps": steps} for (name, start), steps in paths}


def triple_from_obj(obj: Any, strict: bool = False) -> PathTriple:
    """Load a triple, each path from its fixed start; with ``strict`` also
    require vertex-disjointness and equal horizontal-step counts."""
    if not isinstance(obj, dict) or set(obj) != set(_STARTS):
        raise ValueError('a triple object needs exactly the keys "bottom", "middle", "top"')
    paths = [obj[name] for name in _STARTS]
    for path in paths:
        if not isinstance(path, dict) or set(path) != {"start", "steps"}:
            raise ValueError('a path object needs exactly the keys "start" and "steps"')
        start = path["start"]
        if not isinstance(start, list) or len(start) != 2 or not all(map(_is_int, start)):
            raise ValueError('"start" must be a [x, y] pair of integers')
    t = PathTriple(*(path["steps"] for path in paths))
    for path, (name, want) in zip(paths, _STARTS.items()):
        if tuple(path["start"]) != want:
            raise ValueError(f"{name} path must start at {want}, got {tuple(path['start'])}")
    if strict:
        tlp_parameters(t)
    return t


def history_to_obj(h: LaguerreHistory) -> dict:
    return {"word": h.word, "weights": list(h.weights)}


def history_from_obj(obj: Any) -> LaguerreHistory:
    """Load a history; :class:`LaguerreHistory` judges its word and weights."""
    if not isinstance(obj, dict) or set(obj) != {"word", "weights"}:
        raise ValueError('a history object needs exactly the keys "word" and "weights"')
    if not isinstance(obj["weights"], list):  # a string or an object would iterate
        raise ValueError('"weights" must be an array of integers')
    return LaguerreHistory(obj["word"], obj["weights"])


def tqpoly_to_obj(poly: TQPoly) -> list[dict]:
    """Term list sorted by (t-degree, q-degree); coefficients as decimal strings."""
    return [{"t": a, "q": b, "c": str(c)} for a, b, c in poly.terms()]
