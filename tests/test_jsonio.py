import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from baxlab.jsonio import (
    history_from_obj,
    history_to_obj,
    perm_from_obj,
    perm_to_obj,
    triple_from_obj,
    triple_to_obj,
    tqpoly_to_obj,
)
from baxlab.laguerre import LaguerreHistory, MalformedHistoryError
from baxlab.paths import PathTriple
from baxlab.perm import InvalidPermutationError
from baxlab.qseries import baxter_polynomial_rhs

perms = st.integers(1, 9).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)


def test_perm_forms():
    assert perm_to_obj((2, 1)) == [2, 1]
    assert perm_from_obj([2, 1]) == (2, 1)
    assert perm_from_obj("21") == (2, 1)
    assert perm_from_obj("235419786") == (2, 3, 5, 4, 1, 9, 7, 8, 6)


@pytest.mark.parametrize(
    "bad",
    ["", "0", "120", "2x1", [1, True], [1.5], [2, 2], [0, 1], {"a": 1}, 7],
)
def test_perm_from_obj_rejects(bad):
    with pytest.raises(ValueError):
        perm_from_obj(bad)


class _Int(int):
    pass


@pytest.mark.parametrize(
    "obj, error, message",
    [
        ([2, True], InvalidPermutationError, "permutation entries must be integers: (2, True)"),
        ([True], InvalidPermutationError, "permutation entries must be integers: (True,)"),
        ([1.0], InvalidPermutationError, "permutation entries must be integers: (1.0,)"),
        ([2, 1.0], InvalidPermutationError, "permutation entries must be integers: (2, 1.0)"),
        # check_permutation alone judges the entries, and it wants ints proper
        ([_Int(2), _Int(1)], InvalidPermutationError, "permutation entries must be integers: (2, 1)"),
        # str.isdigit accepts other scripts' digits; int() reads some of them
        ("\u0662\u0661", ValueError, "compact permutation form must be digits 1-9: '\u0662\u0661'"),
        ("\u00b2\u00b9", ValueError, "compact permutation form must be digits 1-9: '\u00b2\u00b9'"),
        ("102", ValueError, "compact permutation form cannot contain 0"),
    ],
)
def test_perm_from_obj_names_the_bad_entries(obj, error, message):
    with pytest.raises(ValueError) as info:
        perm_from_obj(obj)
    assert type(info.value) is error and str(info.value) == message


@given(perms)
def test_perm_round_trip(p):
    assert perm_from_obj(perm_to_obj(p)) == p


def with_path(name, path):
    """The ex9 triple's JSON form with one path object replaced."""
    return {**triple_to_obj(ex9_triple()), name: path}


def test_path_forms():
    # each path of a triple keeps its JSON form, its fixed start included
    obj = triple_to_obj(PathTriple("HVVH", "VHVH", "VVHH"))
    assert obj == {
        "bottom": {"start": [2, 0], "steps": "HVVH"},
        "middle": {"start": [1, 1], "steps": "VHVH"},
        "top": {"start": [0, 2], "steps": "VVHH"},
    }
    for path, message in [
        ({"start": [1, 1]}, 'exactly the keys "start" and "steps"'),
        ({"start": [1, 1], "steps": "HVVH", "x": 0}, 'exactly the keys "start" and "steps"'),
        (["start", "steps"], 'exactly the keys "start" and "steps"'),
        ({"start": [1], "steps": "HVVH"}, r'"start" must be a \[x, y\] pair of integers'),
        ({"start": [1, 1], "steps": ["H"]}, r"steps must be a word over 'HV': \['H'\]"),
        ({"start": [1, 1], "steps": "HXVH"}, "steps must be a word over 'HV': 'HXVH'"),
        ({"start": [1, 1], "steps": "HVV"}, "paths must have equal lengths, got 8/3/8"),
        ({"start": [-1, 0], "steps": "VVHHVHVH"}, r"middle path must start at \(1, 1\), got \(-1, 0\)"),
    ]:
        with pytest.raises(ValueError, match=message):
            triple_from_obj(with_path("middle", path))


@pytest.mark.parametrize(
    "name, start, want",
    [("bottom", [0, 2], (2, 0)), ("middle", [2, 0], (1, 1)), ("top", [1, 1], (0, 2))],
)
def test_triple_from_obj_rejects_a_wrong_start(name, start, want):
    path = {"start": start, "steps": triple_to_obj(ex9_triple())[name]["steps"]}
    message = f"{name} path must start at {want}, got {tuple(start)}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        triple_from_obj(with_path(name, path))


@pytest.mark.parametrize("start", [[1.5, 0], ["a", 0], [True, 0], [0, False]])
def test_triple_from_obj_rejects_non_integer_starts(start):
    with pytest.raises(ValueError, match="integers"):
        triple_from_obj(with_path("bottom", {"start": start, "steps": "HVHVVHHV"}))


def ex9_triple():
    return PathTriple("HVHVVHHV", "VVHHVHVH", "VVHHVVHH")


def test_triple_round_trip():
    t = ex9_triple()
    assert triple_from_obj(triple_to_obj(t)) == t
    assert triple_from_obj(triple_to_obj(t), strict=True) == t
    assert triple_to_obj(tuple(t)) == triple_to_obj(t)
    for words in (t[:2], (*t, "VV")):  # exactly three words, none cut or dropped
        with pytest.raises(ValueError, match="zip"):
            triple_to_obj(words)


def test_triple_strict_mode_names_disjointness():
    crossing = PathTriple("HV", "VH", "HV")
    obj = triple_to_obj(crossing)
    assert triple_from_obj(obj) == crossing  # lenient load is fine
    with pytest.raises(ValueError, match="vertex-disjoint"):
        triple_from_obj(obj, strict=True)
    with pytest.raises(ValueError, match="keys"):
        triple_from_obj({"bottom": obj["bottom"]})


def test_history_forms():
    h = LaguerreHistory("URUDDBUD", (1, 2, 2, 2, 1, 1, 1, 2))
    obj = history_to_obj(h)
    assert obj == {"word": "URUDDBUD", "weights": [1, 2, 2, 2, 1, 1, 1, 2]}
    assert history_from_obj(obj) == h
    with pytest.raises(ValueError):
        history_from_obj({"word": "UX", "weights": [1, 1]})
    with pytest.raises(ValueError):
        history_from_obj({"word": "UD", "weights": [1]})
    with pytest.raises(ValueError):
        history_from_obj({"word": "UD", "weights": [1, "x"]})


@pytest.mark.parametrize(
    "obj", [{"word": "UD"}, {"word": "UD", "weights": [1, 1], "extra": 0}, ["UD", [1, 1]], None]
)
def test_history_from_obj_wants_exactly_the_two_keys(obj):
    with pytest.raises(ValueError) as info:
        history_from_obj(obj)
    assert type(info.value) is ValueError
    assert str(info.value) == 'a history object needs exactly the keys "word" and "weights"'


@pytest.mark.parametrize("weights", ["", {}, "12", 5, None])
def test_history_from_obj_wants_a_weight_array(weights):
    # LaguerreHistory takes any iterable, and "" or {} would iterate as no weights
    with pytest.raises(ValueError) as info:
        history_from_obj({"word": "", "weights": weights})
    assert type(info.value) is ValueError
    assert str(info.value) == '"weights" must be an array of integers'


@pytest.mark.parametrize("weights", [[True, 1], [1, True], [1.0, 1], [1, 1.0]])
def test_history_from_obj_rejects_bool_and_float_weights(weights):
    # LaguerreHistory judges the weights, so the loader raises its error
    with pytest.raises(MalformedHistoryError) as info:
        history_from_obj({"word": "UD", "weights": weights})
    assert str(info.value) == f"weights must be integers: {weights!r}"


def test_history_from_obj_accepts_int_subclass_weights():
    # the name is older than the one integer rule (perm._is_int): the loader
    # once passed an int subclass through, and LaguerreHistory now refuses it
    with pytest.raises(MalformedHistoryError) as info:
        history_from_obj({"word": "UD", "weights": [_Int(1), _Int(2)]})
    assert str(info.value) == "weights must be integers: [1, 2]"
    assert history_from_obj({"word": "UD", "weights": [1, 2]}) == LaguerreHistory("UD", (1, 2))


@pytest.mark.parametrize(
    "load, obj, message",
    [
        (
            triple_from_obj,
            with_path("middle", {"start": [1, 1], "steps": "V" * 99999 + "X"}),
            "steps must be a word over 'HV': 'VVVVVVVVVVVV...VVVVVVVVVVVVX', entry 100000 is 'X'",
        ),
        (
            triple_from_obj,
            with_path("middle", {"start": [1, 1], "steps": ["V"] * 100000}),
            "steps must be a word over 'HV': ['V', 'V', 'V', 'V', 'V', 'V', ...]",
        ),
        (
            history_from_obj,
            {"word": "R" * 100000, "weights": [1] * 99999 + [True]},
            "weights must be integers: [1, 1, 1, 1, 1, 1, ...], entry 100000 is True",
        ),
        (
            history_from_obj,
            {"word": "R" * 99999 + "X", "weights": [1] * 100000},
            "word must be over 'UDBR': 'RRRRRRRRRRRR...RRRRRRRRRRRRX', entry 100000 is 'X'",
        ),
    ],
    ids=["string-steps", "array-steps", "weights", "word"],
)
def test_loader_messages_are_bounded(load, obj, message):
    # the value types name a bad word or weight list as reprlib.repr does,
    # so a long malformed file still gives a one-line error; a cut word or
    # weight list then names its first bad entry, as check_permutation does
    with pytest.raises(ValueError) as info:
        load(obj)
    assert str(info.value) == message


def test_tqpoly_forms():
    poly = baxter_polynomial_rhs(2)
    obj = tqpoly_to_obj(poly)
    assert obj == [{"t": 0, "q": 0, "c": "1"}, {"t": 1, "q": 3, "c": "1"}]
