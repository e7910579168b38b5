"""The one-pass cores against the bodies they replaced (``core_oracles``),
and the public enumerators and maps against the private cores they wrap."""
import random
from itertools import product

import pytest
from hypothesis import given, settings

from baxlab.bijections import (
    _gamma_prime_inverse,
    _phi,
    _phi_inverse,
    gamma,
    gamma_prime,
    gamma_prime_inverse,
    phi,
    phi_inverse,
    psi,
)
from baxlab import laguerre
from baxlab.laguerre import (
    _TREE_FROM,
    LETTERS,
    LaguerreHistory,
    _closed_words,
    _histories,
    _psi_fv,
    _psi_fv_by_bits,
    _psi_fv_by_tree,
    _psi_fv_inverse,
    _validity,
    enumerate_histories,
    height_profile,
    is_motzkin_word,
    psi_fv,
)
from baxlab.paths import (
    PathTriple,
    _step_words,
    _tlp_words,
    enumerate_tlp,
    h_prefix,
    is_nonintersecting,
)
from baxlab.perm import _is_baxter, all_permutations, inverse, iter_baxter, stat_profile
from core_oracles import (
    check_words_one_by_one,
    is_baxter_by_insort,
    phi_by_prefix_counts,
    phi_inverse_by_prefix_counts,
    psi_fv_by_sorted_lists,
    psi_fv_inverse_by_left_holes,
    stat_profile_by_sets,
    step_words_by_recursion,
    validity_by_profile,
)
from strategies import large_permutations
from vertex_oracles import is_nonintersecting_by_vertices
from workloads import random_baxter


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _same_as_the_replaced_bodies(p):
    # _is_baxter and _psi_fv meet their oracles for S_<=8 and B_9 in
    # test_perm.py (the pattern definition) and test_laguerre.py (the scan)
    assert stat_profile(p) == stat_profile_by_sets(p), p
    word, weights = _psi_fv(p)
    # _psi_fv runs the bitset sweep at these lengths; this is the only
    # small-n check of the Fenwick sweep
    assert _psi_fv_by_tree(p) == (word, weights), p
    assert _validity(word, weights) == validity_by_profile(word, weights), p
    words = _outcome(_phi, word, weights)
    assert words == _outcome(lambda *h: tuple(phi_by_prefix_counts(*h)), word, weights), p
    if len(words) == 3:  # the three words, not an (error type, message) pair
        assert _phi_inverse(*words) == phi_inverse_by_prefix_counts(*words), p


def test_cores_match_the_replaced_bodies_on_all_of_s8():
    for n in range(1, 9):
        for p in all_permutations(n):
            _same_as_the_replaced_bodies(p)


def test_cores_match_the_replaced_bodies_on_b9(bax):
    for p in bax.get(9):
        _same_as_the_replaced_bodies(p)


@settings(max_examples=60, deadline=None)
@given(large_permutations())
def test_cores_match_the_replaced_bodies_up_to_n300(p):
    _same_as_the_replaced_bodies(p)
    assert _is_baxter(p) == is_baxter_by_insort(p), p
    assert _psi_fv(p) == psi_fv_by_sorted_lists(p), p


@pytest.mark.parametrize("n, swaps", [(2000, 40), (20000, 6)])
def test_bit_and_byte_kernels_match_the_oracles_at_scale(n, swaps):
    # seeded Baxter inputs, and the same with one adjacent transposition at
    # seeded places, which gives non-Baxter inputs with wide windows and,
    # through the unchecked gamma, crossing triples
    for seed in (1, 2):
        p = random_baxter(n, random.Random(seed))
        assert _is_baxter(p) and is_baxter_by_insort(p)
        for t in (gamma(p), psi(p)):
            words = (t.bottom, t.middle, t.top)
            assert is_nonintersecting(t) and is_nonintersecting_by_vertices(t)
            assert _phi_inverse(*words) == phi_inverse_by_prefix_counts(*words)
        assert psi(p) == PathTriple(*_phi(*_psi_fv(p)))
        assert _psi_fv(p) == psi_fv_by_sorted_lists(p)
        assert gamma_prime_inverse(gamma_prime(p)) == p
        # the history behind the gamma triple, whose placeholders pile up high
        history = _psi_fv(inverse(p))
        assert _psi_fv_inverse(*history) == psi_fv_inverse_by_left_holes(*history) == inverse(p)
        for i in random.Random(seed).sample(range(n - 1), swaps):
            q = p[:i] + (p[i + 1], p[i]) + p[i + 2 :]
            assert _is_baxter(q) == is_baxter_by_insort(q), i
            assert _psi_fv(q) == psi_fv_by_sorted_lists(q), i
            t = gamma(q, checked=False)
            assert is_nonintersecting(t) == is_nonintersecting_by_vertices(t), i


@pytest.mark.parametrize("n", [_TREE_FROM - 1, _TREE_FROM, 20000])
def test_both_psi_fv_sweeps_match_the_sorted_lists_around_the_switch(n):
    # a seeded Baxter input, and the same with one adjacent transposition at
    # a seeded place, since psi_fv takes any permutation
    rng = random.Random(n)
    p = random_baxter(n, rng)
    i = rng.randrange(n - 1)
    for q in (p, p[:i] + (p[i + 1], p[i]) + p[i + 2 :]):
        want = psi_fv_by_sorted_lists(q)
        assert _psi_fv_by_bits(q) == want, i
        assert _psi_fv_by_tree(q) == want, i


def test_psi_fv_runs_one_sweep_chosen_by_length(monkeypatch):
    ran = []
    monkeypatch.setattr(laguerre, "_psi_fv_by_bits", lambda p: ran.append(("bits", len(p))))
    monkeypatch.setattr(laguerre, "_psi_fv_by_tree", lambda p: ran.append(("tree", len(p))))
    for n in (1, _TREE_FROM - 1, _TREE_FROM, _TREE_FROM + 1):
        laguerre._psi_fv(tuple(range(1, n + 1)))
    assert ran == [
        ("bits", 1),
        ("bits", _TREE_FROM - 1),
        ("tree", _TREE_FROM),
        ("tree", _TREE_FROM + 1),
    ]


def _weight_ranges(word):
    return [range(h + 2) for h in height_profile(word)]


def _same_history_outcomes(word, weights):
    assert _validity(word, weights) == validity_by_profile(word, weights), (word, weights)
    got = _outcome(phi, LaguerreHistory(word, weights))
    assert got == _outcome(phi_by_prefix_counts, word, weights), (word, weights)


def test_validity_and_phi_match_the_replaced_bodies_on_short_histories():
    # every word of length <= 5 with every weight in 0..h_i + 1, where the
    # bounds 1..h_i hold and where they fail by one on either side
    for length in range(6):
        for word in map("".join, product(LETTERS, repeat=length)):
            for weights in product(*_weight_ranges(word)):
                _same_history_outcomes(word, weights)


def test_validity_and_phi_match_the_replaced_bodies_on_closed_words_of_length_6():
    # the weights of every closed word of length 6 in 0..h_i + 1; phi gets
    # past the bounds check only on closed words
    for word in filter(is_motzkin_word, map("".join, product(LETTERS, repeat=6))):
        for weights in product(*_weight_ranges(word)):
            _same_history_outcomes(word, weights)


_WORDS = ["", *("".join(w) for m in range(1, 4) for w in product("HV", repeat=m))]


def test_path_triple_names_the_first_bad_word_like_the_word_by_word_check():
    bad = ["X", "HX", "h", " H", "HVV ", None, 3, b"HV", ["H"]]
    for words in product(_WORDS[:7] + bad, repeat=3):
        want = check_words_one_by_one(*words)
        try:
            PathTriple(*words)
        except ValueError as exc:
            got = exc
        else:
            got = None
        if want is None:  # the words pass; only their lengths may be rejected
            assert got is None or str(got).startswith("paths must have equal lengths"), words
        else:
            assert type(got) is ValueError and str(got) == str(want), words


def test_path_triple_accepts_every_triple_of_equal_short_words():
    for m in range(4):
        same_length = [w for w in _WORDS if len(w) == m]
        for words in product(same_length, repeat=3):
            t = PathTriple(*words)
            assert (t.bottom, t.middle, t.top) == words


def test_step_words_match_the_recursive_walk():
    # every ceiling a lower path can set: the H-prefix counts of its step word
    for length in range(9):
        for below in map("".join, product("HV", repeat=length)):
            ceiling = h_prefix(below)
            for h_count in range(length + 1):
                got = list(_step_words(h_count, ceiling))
                assert got == list(step_words_by_recursion(h_count, ceiling)), (below, h_count)
    for h_count in range(4):  # the free bottom path, whose ceiling is h(i) <= i
        assert list(_step_words(h_count, range(9))) == list(step_words_by_recursion(h_count, range(9)))


@pytest.mark.parametrize("n", range(1, 9))
def test_enumerate_tlp_wraps_the_step_words(n):
    for k in range(n):
        assert [(t.bottom, t.middle, t.top) for t in enumerate_tlp(n, k)] == list(_tlp_words(n, k))


@pytest.mark.parametrize("n", range(1, 9))
def test_gamma_prime_inverse_wraps_its_core(n):
    for k in range(n):
        for words in _tlp_words(n, k):
            assert _gamma_prime_inverse(*words) == gamma_prime_inverse(PathTriple(*words)), words


def test_psi_wraps_its_cores():
    # the lemma: the triple read off the descent sets is phi of psi_fv
    for n in range(1, 10):
        for p in iter_baxter(n):
            assert PathTriple(*_phi(*_psi_fv(p))) == psi(p), p


def _as_if_checked(r):
    # a map wraps its core's output without checking it; the validating
    # constructor must build the same value from it, so no malformed word
    # or weight tuple can get past the trusted wrapping
    assert type(r) in (PathTriple, LaguerreHistory), r
    assert r == type(r)(*r), r


def _maps_wrap_well_formed_output(p, baxter):
    _as_if_checked(psi_fv(p))
    _as_if_checked(gamma(p, checked=False))
    if baxter:
        triples = (gamma(p), gamma_prime(p), psi(p))
        for r in (*triples, phi(psi_fv(p)), *map(phi_inverse, triples)):
            _as_if_checked(r)


def test_maps_wrap_well_formed_output_exhaustively():
    # every map on all of B_1..B_7, and the maps that take any permutation
    # on all of S_1..S_7
    for n in range(1, 8):
        for p in all_permutations(n):
            _maps_wrap_well_formed_output(p, _is_baxter(p))


@settings(max_examples=60, deadline=None)
@given(large_permutations())
def test_maps_wrap_well_formed_output_up_to_n300(p):
    _maps_wrap_well_formed_output(p, _is_baxter(p))


def test_enumerate_histories_wraps_the_pairs():
    for length in range(7):
        assert [(h.word, h.weights) for h in enumerate_histories(length)] == list(
            _histories(length)
        )


def test_closed_words_match_the_filtered_product():
    # the depth-first walk against its definition: every word over the
    # letters, in order, kept when it closes, with its height profile
    for length in range(9):
        words = filter(is_motzkin_word, map("".join, product(LETTERS, repeat=length)))
        assert list(_closed_words(length)) == [(w, height_profile(w)) for w in words], length
