from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baxlab.laguerre import (
    LETTERS,
    LaguerreHistory,
    MalformedHistoryError,
    enumerate_histories,
    height_profile,
    is_motzkin_word,
    psi_fv,
    psi_fv_inverse,
    validate,
)
from baxlab.perm import all_permutations, iter_baxter
from baxlab.qseries import baxter_number
from fv_oracles import is_baxter_bruteforce, psi_fv_by_scan, psi_fv_inverse_by_rescan
from strategies import large_permutations

EX9_HISTORY = LaguerreHistory("URUDDBUD", (1, 2, 2, 2, 1, 1, 1, 2))
EX9_PERM = (5, 1, 2, 4, 3, 9, 7, 8, 6)

perms = st.integers(1, 9).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)


def test_history_construction_errors():
    with pytest.raises(MalformedHistoryError):
        LaguerreHistory("UD", (1,))
    with pytest.raises(ValueError):
        LaguerreHistory("UX", (1, 1))


@pytest.mark.parametrize("weights", [(1.7, 1), (True, 1), ("1", 1)])
def test_history_rejects_non_integer_weights(weights):
    with pytest.raises(ValueError, match="integers"):
        LaguerreHistory("UD", weights)


@pytest.mark.parametrize("word", [["U", "D"], ("U", "D"), None, 12, b"UD"])
def test_history_rejects_a_word_that_is_not_a_string(word):
    with pytest.raises(ValueError, match="word must be over") as info:
        LaguerreHistory(word, (1, 1))
    assert type(info.value) is ValueError


@pytest.mark.parametrize("weights", [None, 1, 1.5])
def test_history_rejects_weights_that_are_not_a_sequence(weights):
    with pytest.raises(MalformedHistoryError, match="sequence of integers"):
        LaguerreHistory("", weights)


def test_history_reads_weights_from_an_iterator_once():
    assert LaguerreHistory("UD", iter([1, 2])).weights == (1, 2)


def test_height_profile_golden():
    assert height_profile("URUDDBUD") == (1, 2, 2, 3, 2, 1, 1, 2)
    assert height_profile("") == ()
    assert height_profile("UD") == (1, 2)
    # letters other than U, D, B and R, ASCII or not, are refused; they used
    # to leave the height alone
    with pytest.raises(ValueError) as info:
        height_profile("XUé D")
    assert str(info.value) == "word must be over 'UDBR': 'XUé D'"


@pytest.mark.parametrize("reader", [height_profile, is_motzkin_word])
def test_word_readers_reject_foreign_letters(reader):
    # every message is one short line that names the bad letter
    for word, message in [
        ("UXD", "word must be over 'UDBR': 'UXD'"),
        ("ud", "word must be over 'UDBR': 'ud'"),
        (123, "word must be over 'UDBR': 123"),
        (
            "U" * 99_999 + "x",
            "word must be over 'UDBR': 'UUUUUUUUUUUU...UUUUUUUUUUUUx', entry 100000 is 'x'",
        ),
    ]:
        with pytest.raises(ValueError) as info:
            reader(word)
        assert str(info.value) == message


def test_is_motzkin_word():
    assert is_motzkin_word("")
    assert is_motzkin_word("UBRD")
    assert not is_motzkin_word("U")
    assert not is_motzkin_word("DU")


def test_validate_goldens():
    assert validate(EX9_HISTORY) == (True, True)
    assert validate(LaguerreHistory("UUDD", (1, 1, 1, 2))) == (True, False)
    assert validate(LaguerreHistory("", ())) == (True, True)
    # weight above its bound
    assert validate(LaguerreHistory("UD", (2, 1))) == (False, False)
    # word that does not close
    assert validate(LaguerreHistory("UU", (1, 1))) == (False, False)


def test_psi_fv_goldens():
    assert psi_fv(EX9_PERM) == EX9_HISTORY
    assert psi_fv((1,)) == LaguerreHistory("", ())
    assert psi_fv((2, 1)) == LaguerreHistory("B", (1,))
    assert psi_fv((1, 2)) == LaguerreHistory("R", (1,))


def test_psi_fv_inverse_goldens():
    assert psi_fv_inverse(EX9_HISTORY) == EX9_PERM
    assert psi_fv_inverse(LaguerreHistory("", ())) == (1,)
    assert psi_fv_inverse(LaguerreHistory("B", (1,))) == (2, 1)


def test_psi_fv_inverse_rejects_malformed():
    with pytest.raises(MalformedHistoryError):
        psi_fv_inverse(LaguerreHistory("UD", (2, 1)))  # weight exceeds placeholders
    with pytest.raises(MalformedHistoryError):
        psi_fv_inverse(LaguerreHistory("U", (1,)))  # two placeholders remain


# EX9_HISTORY has heights (1, 2, 2, 3, 2, 1, 1, 2); each case changes one
# weight, and the message is the one the step-by-step check gave
@pytest.mark.parametrize(
    "step, weight, message",
    [
        (1, 0, "step 1: weight 0 but only 1 placeholders"),
        (4, 0, "step 4: weight 0 but only 3 placeholders"),
        (8, 0, "step 8: weight 0 but only 2 placeholders"),
        (1, -1, "step 1: weight -1 but only 1 placeholders"),
        (4, -2, "step 4: weight -2 but only 3 placeholders"),
        (8, -7, "step 8: weight -7 but only 2 placeholders"),
        (1, 2, "step 1: weight 2 but only 1 placeholders"),
        (4, 4, "step 4: weight 4 but only 3 placeholders"),
        (8, 3, "step 8: weight 3 but only 2 placeholders"),
    ],
)
def test_psi_fv_inverse_names_the_first_step_out_of_bounds(step, weight, message):
    weights = list(EX9_HISTORY.weights)
    weights[step - 1] = weight
    with pytest.raises(MalformedHistoryError) as info:
        psi_fv_inverse(LaguerreHistory(EX9_HISTORY.word, tuple(weights)))
    assert str(info.value) == message


def test_psi_fv_inverse_names_the_earliest_of_several_bad_steps():
    with pytest.raises(MalformedHistoryError) as info:
        psi_fv_inverse(LaguerreHistory("URUDDBUD", (1, 2, 3, 0, 1, 1, 1, 9)))
    assert str(info.value) == "step 3: weight 3 but only 2 placeholders"


@pytest.mark.parametrize(
    "word, weights, message",
    [
        ("UR", (1, 2), "2 placeholders remain at the end"),
        ("URU", (1, 2, 2), "3 placeholders remain at the end"),
        ("UD" * 3 + "U", (1, 2) * 3 + (1,), "2 placeholders remain at the end"),
    ],
)
def test_psi_fv_inverse_names_the_placeholders_left(word, weights, message):
    with pytest.raises(MalformedHistoryError) as info:
        psi_fv_inverse(LaguerreHistory(word, weights))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "weights, message",
    [
        ((True, 1), "weights must be integers: (True, 1)"),
        ((1, True), "weights must be integers: (1, True)"),
        ((1.0, 1), "weights must be integers: (1.0, 1)"),
        ((1, 1.0), "weights must be integers: (1, 1.0)"),
    ],
)
def test_history_rejects_bool_and_float_weights_by_name(weights, message):
    with pytest.raises(MalformedHistoryError) as info:
        LaguerreHistory("UD", weights)
    assert str(info.value) == message


def test_history_is_the_pair_of_its_word_and_weights():
    h = LaguerreHistory("UD", [1, 2])
    assert h == ("UD", (1, 2)) and len(h) == 2 and hash(h) == hash(("UD", (1, 2)))
    word, weights = h
    assert (word, weights) == (h.word, h.weights) == (h[0], h[1])
    assert repr(h) == "LaguerreHistory(word='UD', weights=(1, 2))"
    assert not hasattr(h, "__dict__")
    with pytest.raises(AttributeError):
        h.word = "BR"


def test_make_and_replace_check_the_word_and_weights():
    # a NamedTuple's own _make, which _replace calls, builds the tuple without __new__
    h = LaguerreHistory("UD", [1, 2])
    with pytest.raises(ValueError) as info:
        h._replace(word="UX")
    assert type(info.value) is ValueError and str(info.value) == "word must be over 'UDBR': 'UX'"
    with pytest.raises(MalformedHistoryError) as info:
        LaguerreHistory._make(("UD", [1, True]))
    assert str(info.value) == "weights must be integers: [1, True]"
    with pytest.raises(MalformedHistoryError) as info:
        h._replace(weights=(1,))
    assert str(info.value) == "word has 2 steps but 1 weights"
    assert LaguerreHistory._make(("UD", [1, 1]))._replace(word="BR") == LaguerreHistory("BR", (1, 1))


class _Int(int):
    pass


def test_history_accepts_int_subclass_weights():
    # the name is older than the one integer rule (perm._is_int): an int
    # subclass was once accepted as a weight and is now refused by name
    with pytest.raises(MalformedHistoryError) as info:
        LaguerreHistory("UD", (_Int(1), _Int(2)))
    assert str(info.value) == "weights must be integers: (1, 2)"
    assert LaguerreHistory("UD", (1, 2)).weights == (1, 2)


def test_round_trip_exhaustive():
    for n in range(1, 7):
        for p in all_permutations(n):
            h = psi_fv(p)
            assert validate(h).laguerre_ok
            assert psi_fv_inverse(h) == p


@given(perms)
def test_round_trip_random(p):
    assert psi_fv_inverse(psi_fv(p)) == p


def test_history_round_trip_exhaustive():
    for length in range(0, 6):
        for h in enumerate_histories(length):
            assert validate(h).laguerre_ok
            assert psi_fv(psi_fv_inverse(h)) == h


def test_history_counts():
    for length in range(0, 7):
        count = sum(validate(h).baxter_ok for h in enumerate_histories(length))
        assert count == baxter_number(length + 1)


def test_history_order_is_pinned():
    # the first-failure witness of history-roundtrip-len* follows this order
    def key(h):
        return ["UDBR".index(c) for c in h.word], h.weights

    for length in range(0, 7):
        hs = list(enumerate_histories(length))
        assert len(hs) == factorial(length + 1)
        assert all(validate(h).laguerre_ok for h in hs)
        assert all(key(a) < key(b) for a, b in zip(hs, hs[1:]))


def test_baxter_histories_match_pattern_avoidance():
    for n in range(1, 7):
        for p in all_permutations(n):
            assert validate(psi_fv(p)).baxter_ok == is_baxter_bruteforce(p)


def _same_as_the_oracles(p):
    h = psi_fv(p)
    assert h == psi_fv_by_scan(p), p
    assert psi_fv_inverse(h) == psi_fv_inverse_by_rescan(h) == p


def test_psi_fv_and_inverse_match_the_quadratic_oracles_exhaustively():
    for n in range(1, 9):
        for p in all_permutations(n):
            _same_as_the_oracles(p)
    for p in iter_baxter(9):
        _same_as_the_oracles(p)


@settings(max_examples=60, deadline=None)
@given(large_permutations())
def test_cores_match_the_quadratic_oracles_up_to_n300(p):
    # at these sizes psi_fv meets its one oracle, the sorted-list sweep, in
    # test_core_oracles.py, and is_baxter the bisecting sweep there
    h = psi_fv(p)
    assert psi_fv_inverse(h) == psi_fv_inverse_by_rescan(h) == p


def _outcome(f, h):
    try:
        return f(h)
    except MalformedHistoryError as exc:
        return type(exc), str(exc)


def test_psi_fv_inverse_fails_like_the_oracle_on_malformed_histories():
    # every word of length <= 4 with every weight in 0..3: mostly malformed
    for length in range(0, 5):
        for word in product(LETTERS, repeat=length):
            for weights in product(range(4), repeat=length):
                h = LaguerreHistory("".join(word), weights)
                assert _outcome(psi_fv_inverse, h) == _outcome(psi_fv_inverse_by_rescan, h), h


@given(st.text(LETTERS, max_size=12).flatmap(
    lambda w: st.tuples(st.just(w), st.tuples(*[st.integers(-1, 8)] * len(w)))
))
def test_psi_fv_inverse_fails_like_the_oracle_on_longer_histories(wh):
    h = LaguerreHistory(*wh)
    assert _outcome(psi_fv_inverse, h) == _outcome(psi_fv_inverse_by_rescan, h)
