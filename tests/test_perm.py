import importlib
import inspect
import pkgutil

import pytest
from hypothesis import given
from hypothesis import strategies as st

import baxlab
from baxlab.bijections import gamma, gamma_prime, psi
from baxlab.harness import run_suite
from baxlab.jsonio import history_from_obj, triple_from_obj, triple_to_obj
from baxlab.laguerre import (
    LaguerreHistory,
    LetterClass,
    classify_letters,
    enumerate_histories,
    height_profile,
    is_motzkin_word,
    psi_fv,
)
from baxlab.paths import (
    PathTriple,
    decode_path,
    encode_set,
    enumerate_tlp,
    expected_endpoints,
    h_prefix,
)
from baxlab.perm import (
    InvalidPermutationError,
    all_permutations,
    as_permutation,
    check_permutation,
    generate_baxter,
    insertion_slots,
    inverse,
    is_baxter,
    iter_baxter,
    shape_flags,
    stat_profile,
)
from baxlab.qseries import (
    QPoly,
    TQPoly,
    baxter_number,
    baxter_polynomial_lhs,
    baxter_polynomial_rhs,
    catalan,
    q_binomial,
    tlp_count_formula,
)
from bfs_oracle import generate_baxter_bfs
from core_oracles import check_permutation_by_sorting, descent_bottoms, descent_positions, descent_tops
from fv_oracles import classify_letters_by_position, is_baxter_bruteforce

EX9 = (2, 3, 5, 4, 1, 9, 7, 8, 6)

perms = st.integers(1, 9).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)


def test_as_permutation_accepts_valid_words():
    assert as_permutation([2, 1, 3]) == (2, 1, 3)
    assert as_permutation((1,)) == (1,)


@pytest.mark.parametrize(
    "bad",
    [[], [0, 1], [1, 1], [2, 3], [1, 2, 4], [1.9, 2.2], [1.0, 2.0], ["2", "1"], [True, 2], [2, None]],
)
def test_as_permutation_rejects_invalid_words(bad):
    with pytest.raises(InvalidPermutationError):
        as_permutation(bad)


@st.composite
def _near_permutations(draw):
    """A permutation of 1..n with up to three entries set to 0, a negative,
    n + 1 or another entry's value, or any short list of small ints."""
    if draw(st.booleans()):
        return draw(st.lists(st.integers(-3, 12), max_size=12))
    n = draw(st.integers(0, 10))
    p = draw(st.permutations(range(1, n + 1)))
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        p[draw(st.integers(0, n - 1))] = draw(st.sampled_from([0, -1, -n, n + 1, n + 2, *p]))
    return p


def _raised(check, p):
    try:
        check(p)
    except InvalidPermutationError as exc:
        return exc
    return None


@given(_near_permutations())
def test_check_permutation_accepts_what_the_sorted_rule_accepts(p):
    # max, min and a set of distinct entries in place of the sort: the same
    # verdict, and a refusal with the same type and message
    for word in (p, tuple(p)):
        want = check_permutation_by_sorting(word)
        got = _raised(check_permutation, word)
        assert (type(got), str(got)) == (type(want), str(want)), word


class _Int(int):
    pass


def _with_middle_start(start):
    """The JSON form of the one-vertex triple, its middle start replaced."""
    obj = triple_to_obj(PathTriple("", "", ""))
    return {**obj, "middle": {"start": start, "steps": ""}}


# every place an integer enters the package, each fed the value v
_INTEGER_ENTRY_POINTS = {
    "as_permutation": lambda v: as_permutation([v]),
    "LaguerreHistory weights": lambda v: LaguerreHistory("R", (v,)),
    "history_from_obj": lambda v: history_from_obj({"word": "R", "weights": [v]}),
    "triple_from_obj start": lambda v: triple_from_obj(_with_middle_start([v, v])),
    "QPoly degree": lambda v: QPoly({v: 1}),
    "QPoly coefficient": lambda v: QPoly({0: v}),
    "TQPoly t-degree": lambda v: TQPoly({(v, 0): 1}),
    "TQPoly q-degree": lambda v: TQPoly({(0, v): 1}),
    "TQPoly coefficient": lambda v: TQPoly({(0, 0): v}),
    # every size parameter, named "<function> <parameter>", at a value where
    # 1 is valid; list() runs the generators far enough to reach the rule
    "all_permutations n": lambda v: list(all_permutations(v)),
    "iter_baxter n": lambda v: list(iter_baxter(v)),
    "generate_baxter n": lambda v: generate_baxter(v),
    "expected_endpoints n": lambda v: expected_endpoints(v, 0),
    "expected_endpoints k": lambda v: expected_endpoints(2, v),
    "enumerate_tlp n": lambda v: list(enumerate_tlp(v, 0)),
    "enumerate_tlp k": lambda v: list(enumerate_tlp(2, v)),
    "encode_set length": lambda v: encode_set([1], v),
    "encode_set elements": lambda v: encode_set([v], 1),
    "enumerate_histories length": lambda v: list(enumerate_histories(v)),
    "q_binomial n": lambda v: q_binomial(v, 0),
    "q_binomial k": lambda v: q_binomial(2, v),
    "catalan n": lambda v: catalan(v),
    "baxter_number n": lambda v: baxter_number(v),
    "tlp_count_formula n": lambda v: tlp_count_formula(v, 0),
    "tlp_count_formula k": lambda v: tlp_count_formula(2, v),
    "baxter_polynomial_rhs n": lambda v: baxter_polynomial_rhs(v),
    "baxter_polynomial_lhs n": lambda v: baxter_polynomial_lhs(v),
    "run_suite n": lambda v: run_suite("counts", v),
    "run_suite jobs": lambda v: run_suite("counts", 1, jobs=v),
}

# the size parameters of the public API, which the table must cover
_SIZE_PARAMETERS = ("n", "k", "length", "jobs")
# Report is the record run_suite returns, its n checked there
_RECORD_FIELDS = {"Report n"}


def _public_signatures():
    """(name, parameters) of every public module-level callable that a
    baxlab module defines, whether or not ``baxlab.__all__`` exports it."""
    for info in pkgutil.iter_modules(baxlab.__path__):
        module = importlib.import_module(f"baxlab.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue  # private, imported, or a constant
            try:
                yield name, inspect.signature(obj).parameters
            except (TypeError, ValueError):  # not callable, or a type without one
                continue


def _accepts(entry_point, v):
    try:
        entry_point(v)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize(
    "value, accepted",
    [(1, True), (True, False), (1.0, False), (_Int(1), False)],
    ids=["int", "bool", "float", "int-subclass"],
)
def test_one_integer_rule_at_every_entry_point(value, accepted):
    # perm._is_int is the one rule: an int proper, so True, 1.0 and an int
    # subclass are refused wherever the package takes an integer
    verdicts = {name: _accepts(f, value) for name, f in _INTEGER_ENTRY_POINTS.items()}
    assert verdicts == dict.fromkeys(_INTEGER_ENTRY_POINTS, accepted)


def test_every_size_parameter_takes_the_integer_rule():
    # a public callable with a parameter named n, k, length or jobs needs a
    # row in _INTEGER_ENTRY_POINTS, so a new entry point cannot skip the rule
    missing = [
        f"{name} {p}"
        for name, parameters in _public_signatures()
        for p in parameters
        if p in _SIZE_PARAMETERS and f"{name} {p}" not in {*_INTEGER_ENTRY_POINTS, *_RECORD_FIELDS}
    ]
    assert missing == []


# every public reader of a permutation, each fed the value of its parameter p
_PERMUTATION_READERS = {
    "check_permutation": check_permutation,
    "inverse": inverse,
    "insertion_slots": insertion_slots,
    "shape_flags": shape_flags,
    "stat_profile": stat_profile,
    "is_baxter": is_baxter,
    "psi_fv": psi_fv,
    "classify_letters": classify_letters,
    "gamma": gamma,
    "gamma_prime": gamma_prime,
    "psi": psi,
}

# every public reader of a word, each fed the value of its parameter word or steps
_WORD_READERS = {
    "as_permutation": as_permutation,
    "LaguerreHistory": lambda word: LaguerreHistory(word, ()),
    "height_profile": height_profile,
    "is_motzkin_word": is_motzkin_word,
    "decode_path": decode_path,
    "h_prefix": h_prefix,
}

# public callables with a parameter p that only write what the library built,
# each with the reason it takes no rule
_PERMUTATION_WRITERS = {
    "perm_to_obj": "lists a permutation for JSON; perm_from_obj reads it back through as_permutation",
}


def _refuses(reader, value, error):
    """Whether reader(value) raises error; a TypeError or AttributeError is
    not a refusal, nor is an answer."""
    try:
        reader(value)
    except Exception as exc:
        return isinstance(exc, error)
    return False


def test_every_reader_takes_the_permutation_and_word_rules():
    # a repeated entry, a non-sequence and a set (which has no order) are not
    # permutations; a non-str and a foreign letter are not words
    accepted = [
        f"{name} {p!r}"
        for name, reader in _PERMUTATION_READERS.items()
        for p in [(2, 2), 5, {1, 2}]
        if not _refuses(reader, p, InvalidPermutationError)
    ]
    accepted += [
        f"{name} {word!r}"
        for name, reader in _WORD_READERS.items()
        for word in [123, "X"]
        if not _refuses(reader, word, ValueError)
    ]
    assert accepted == []
    # a public callable with a parameter named p, word or steps needs a row
    # in the table of its rule, so a new reader cannot skip the rule
    missing = []
    for name, parameters in _public_signatures():
        if "p" in parameters and name not in {*_PERMUTATION_READERS, *_PERMUTATION_WRITERS}:
            missing.append(f"{name} p")
        missing += [
            f"{name} {w}" for w in ("word", "steps") if w in parameters and name not in _WORD_READERS
        ]
    assert missing == []


def test_inverse_against_position_of_value():
    # independent oracle: the position of each value, assembled by search
    oracle = tuple(EX9.index(v) + 1 for v in range(1, 10))
    assert inverse(EX9) == oracle == (5, 1, 2, 4, 3, 9, 7, 8, 6)
    assert inverse(tuple(range(1, 6))) == tuple(range(1, 6))
    assert inverse((2, 1)) == (2, 1)


@given(perms)
def test_inverse_is_an_involution(p):
    assert inverse(inverse(p)) == p
    assert tuple(p[i - 1] for i in inverse(p)) == tuple(range(1, len(p) + 1))


def test_is_baxter_known_cases():
    assert is_baxter(EX9)
    assert is_baxter(tuple(range(1, 7)))
    assert not is_baxter((2, 4, 1, 3))
    assert not is_baxter((3, 1, 4, 2))
    assert not is_baxter_bruteforce((2, 4, 1, 3))
    assert not is_baxter_bruteforce((3, 1, 4, 2))


def test_is_baxter_matches_bruteforce_exhaustively():
    for n in range(1, 9):
        for p in all_permutations(n):
            assert is_baxter(p) == is_baxter_bruteforce(p), p
    assert all(is_baxter(p) for p in iter_baxter(9))


@given(perms)
def test_is_baxter_matches_bruteforce_random(p):
    assert is_baxter(p) == is_baxter_bruteforce(p)


def test_stat_profile_nine_letter_example():
    prof = stat_profile(EX9)
    assert prof.idb_set == frozenset({1, 3, 6, 7})
    assert prof.des_set == frozenset({3, 4, 6, 8})
    assert prof.idt_mod_set == frozenset({3, 4, 7, 8})
    assert prof.maj == 21
    assert prof.imaj_b == 17
    assert prof.imaj_t == 22
    assert prof.dt_hat_set == frozenset({4, 5, 6, 8})
    assert prof.db_set == frozenset({1, 4, 6, 7})
    assert prof.ides_set == frozenset({1, 4, 6, 8})
    assert prof.dt_mod_set == frozenset({3, 4, 7, 8})
    assert prof.des == 4


def test_stat_profile_identity():
    prof = stat_profile(tuple(range(1, 6)))
    assert prof.des_set == prof.dt_set == prof.db_set == frozenset()
    assert prof.des == prof.maj == prof.imaj_b == prof.imaj_t == 0
    assert prof.dt_hat_set == frozenset()


@given(perms)
def test_stat_profile_internal_consistency(p):
    prof = stat_profile(p)
    q = inverse(p)
    assert prof.des_set == descent_positions(p)
    assert prof.ides_set == descent_positions(q)
    assert prof.idt_set == descent_tops(q)
    assert prof.idb_set == descent_bottoms(q)
    assert prof.dt_mod_set == frozenset(v - 1 for v in prof.dt_set)
    assert len(prof.dt_hat_set) == len(prof.dt_set)
    if p[-1] == len(p):
        assert prof.dt_hat_set == prof.dt_set
    else:
        assert prof.dt_hat_set == (prof.dt_set | {p[-1]}) - {len(p)}
    assert prof.maj == sum(prof.des_set)
    assert prof.imaj_b == sum(prof.idb_set)
    assert prof.imaj_t == sum(prof.idt_mod_set)


def test_statistic_duality_exhaustive():
    for n in range(1, 7):
        for p in all_permutations(n):
            direct = stat_profile(inverse(p))
            dual = stat_profile(p)
            assert dual.ides_set == direct.des_set
            assert dual.idt_set == direct.dt_set
            assert dual.idb_set == direct.db_set
            assert dual.idt_mod_set == direct.dt_mod_set


def test_baxter_descent_counts_match_inverse(bax):
    for n in range(1, 8):
        for p in bax.get(n):
            prof = stat_profile(p)
            assert len(prof.des_set) == len(prof.ides_set)


def test_baxter_closed_under_inversion():
    for n in range(1, 8):
        for p in all_permutations(n):
            assert is_baxter(p) == is_baxter(inverse(p))
    # the verify checks feed inverse(p) of each p in B_8 to gamma_prime's cores
    for p in iter_baxter(8):
        assert is_baxter(inverse(p)), p


def test_classify_letters_worked_example():
    C = LetterClass
    assert classify_letters((5, 1, 2, 4, 3, 9, 7, 8, 6)) == (
        C.VALLEY,
        C.DOUBLE_ASCENT,
        C.VALLEY,
        C.PEAK,
        C.PEAK,
        C.DOUBLE_DESCENT,
        C.VALLEY,
        C.PEAK,
    )
    assert classify_letters((2, 1)) == (C.DOUBLE_DESCENT,)
    assert classify_letters((1, 2)) == (C.DOUBLE_ASCENT,)
    assert classify_letters((1,)) == ()


def test_classify_letters_matches_the_position_table():
    with pytest.raises(InvalidPermutationError):
        classify_letters(())  # S_0 holds only the empty word, which no map accepts
    for n in range(1, 9):
        for p in all_permutations(n):
            assert classify_letters(p) == classify_letters_by_position(p), p


@pytest.mark.parametrize(
    "fn", [stat_profile, classify_letters, inverse, shape_flags, insertion_slots]
)
@pytest.mark.parametrize(
    "word, message",
    [
        ((), "length >= 1"),
        ((2, 2), "not a permutation of 1..2"),
        ((5,), "not a permutation of 1..1"),
        ((1, 1), "not a permutation of 1..2"),
    ],
    ids=["empty", "twice-2", "too-large", "twice-1"],
)
def test_statistics_reject_words_that_are_not_permutations(fn, word, message):
    with pytest.raises(InvalidPermutationError, match=message):
        fn(word)


@pytest.mark.parametrize(
    "word, message",
    [
        (
            (1.5, *range(2, 100_001)),
            "permutation entries must be integers: (1.5, 2, 3, 4, 5, 6, ...), entry 1 is 1.5",
        ),
        (
            (*range(1, 100_000), 99_999),
            "not a permutation of 1..100000: (1, 2, 3, 4, 5, 6, ...), entry 100000 is 99999",
        ),
        ((2, 1, 0, 3), "not a permutation of 1..4: (2, 1, 0, 3)"),
        (5, "a permutation must be a sequence: 5"),
        ({1, 2}, "a permutation must be a sequence: {1, 2}"),
    ],
    ids=["float-first", "repeat-last", "uncut", "int", "set"],
)
def test_large_words_get_short_messages_naming_the_first_bad_entry(word, message):
    with pytest.raises(InvalidPermutationError) as exc:
        as_permutation(word)
    assert str(exc.value) == message and len(message) < 200


def test_letters_passed_downward_are_the_descent_bottoms():
    # the valley/double-descent letters are exactly those whose predecessor
    # in the word is larger, i.e. the descent bottoms
    for n in range(1, 7):
        for p in all_permutations(n):
            classes = classify_letters(p)
            downward = {
                i
                for i in range(1, n)
                if classes[i - 1] in (LetterClass.VALLEY, LetterClass.DOUBLE_DESCENT)
            }
            pos = {v: i for i, v in enumerate(p)}
            direct = {
                i
                for i in range(1, n)
                if (p[pos[i] - 1] if pos[i] >= 1 else 0) > i
            }
            assert downward == direct == descent_bottoms(p)


def test_generate_baxter_small_golden_order():
    assert generate_baxter(1) == [(1,)]
    assert generate_baxter(2) == [(2, 1), (1, 2)]
    assert generate_baxter(3) == [
        (3, 2, 1),
        (2, 3, 1),
        (2, 1, 3),
        (3, 1, 2),
        (1, 3, 2),
        (1, 2, 3),
    ]


def test_generate_baxter_matches_filter():
    for n in range(1, 7):
        generated = generate_baxter(n)
        assert len(set(generated)) == len(generated)
        filtered = {p for p in all_permutations(n) if is_baxter_bruteforce(p)}
        assert set(generated) == filtered
    assert len(generate_baxter(4)) == 22


def test_iter_baxter_streams_the_breadth_first_order():
    for n in range(1, 11):
        assert list(iter_baxter(n)) == generate_baxter_bfs(n)
    with pytest.raises(ValueError):
        generate_baxter(0)


def test_insertion_slots_disjoint_families():
    for n in range(1, 7):
        for p in all_permutations(n):
            slots = insertion_slots(p)
            assert len(set(slots)) == len(slots)
            assert slots == tuple(sorted(slots))


def test_insertion_slots_are_the_pattern_avoiding_insertions():
    # the generating tree's rule against the definition: slot j is allowed
    # iff inserting n + 1 before position j leaves a Baxter permutation
    for n in range(1, 8):
        for p in iter_baxter(n):
            want = tuple(
                j for j in range(1, n + 2) if is_baxter_bruteforce(p[: j - 1] + (n + 1,) + p[j - 1 :])
            )
            assert insertion_slots(p) == want, p


def test_shape_flags_known_cases():
    flags = shape_flags((2, 1, 5, 4, 6, 3))
    assert flags.reverse_alternating and not flags.alternating
    assert shape_flags(inverse((2, 1, 5, 4, 6, 3))).genocchi
    assert inverse((2, 1, 5, 4, 6, 3)) == (2, 1, 6, 4, 3, 5)

    flags = shape_flags(tuple(range(1, 5)))
    assert flags == type(flags)(False, False, False)

    flags = shape_flags((2, 1))
    assert not flags.alternating and flags.reverse_alternating and flags.genocchi

    flags = shape_flags((1, 2))
    assert flags.alternating and not flags.reverse_alternating and flags.genocchi

    flags = shape_flags((1,))
    assert flags.alternating and flags.reverse_alternating and flags.genocchi


def test_shape_flags_against_descent_sets():
    for n in range(1, 7):
        for p in all_permutations(n):
            des = descent_positions(p)
            flags = shape_flags(p)
            assert flags.alternating == (des == {i for i in range(2, n, 2)})
            assert flags.reverse_alternating == (des == {i for i in range(1, n, 2)})
            want = all((p[i] > p[i + 1]) == (p[i] % 2 == 0) for i in range(n - 1))
            assert flags.genocchi == want
