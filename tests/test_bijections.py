from functools import partial

import pytest

from baxlab import bijections, laguerre, perm
from baxlab.bijections import (
    MalformedMiddleError,
    NotBaxterError,
    gamma,
    gamma_inverse,
    gamma_prime,
    gamma_prime_inverse,
    phi,
    phi_inverse,
    psi,
    psi_inverse,
)
from baxlab.harness import _check_insertion_cases
from baxlab.laguerre import LaguerreHistory, Validity, enumerate_histories, psi_fv, validate
from baxlab.paths import PathTriple, decode_path, encode_set, enumerate_tlp
from baxlab.perm import (
    InvalidPermutationError,
    all_permutations,
    inverse,
    is_baxter,
    iter_baxter,
    stat_profile,
)
from fv_oracles import psi_fv_inverse_by_rescan
from vertex_oracles import (
    all_triples,
    gamma_prime_inverse_by_search,
    is_nonintersecting_by_vertices,
)

EX9 = (2, 3, 5, 4, 1, 9, 7, 8, 6)
EX9_INV = (5, 1, 2, 4, 3, 9, 7, 8, 6)

GAMMA_TRIPLE = PathTriple(
    "HVHVVHHV",  # {1, 3, 6, 7}
    "VVHHVHVH",  # {3, 4, 6, 8}
    "VVHHVVHH",  # {3, 4, 7, 8}
)
PSI_TRIPLE = PathTriple(
    "HVHVVHHV",  # {1, 3, 6, 7}
    "VVHHVHVH",  # {3, 4, 6, 8}
    "VVVHHHVH",  # {4, 5, 6, 8}
)


def all_vertical(n):
    return PathTriple("V" * (n - 1), "V" * (n - 1), "V" * (n - 1))


def single_h():
    return PathTriple("H", "H", "H")


def test_gamma_golden():
    assert gamma(EX9) == GAMMA_TRIPLE
    assert gamma(tuple(range(1, 7))) == all_vertical(6)
    assert gamma((2, 1)) == single_h()


def test_gamma_rejects_non_baxter():
    with pytest.raises(NotBaxterError):
        gamma((2, 4, 1, 3))
    t = gamma((2, 4, 1, 3), checked=False)  # permissive variant still builds paths
    assert t.n == 4


@pytest.mark.parametrize("forward", [gamma, gamma_prime, psi])
def test_not_baxter_messages_name_the_input_whole_up_to_six_entries(forward):
    # gamma_prime names its input, not its inverse: (3, 1, 4, 2), not (2, 4, 1, 3)
    for n in range(4, 7):
        for p in all_permutations(n):
            if not is_baxter(p):
                with pytest.raises(NotBaxterError) as exc:
                    forward(p)
                assert str(exc.value) == f"{p!r} contains 2-41-3 or 3-14-2"


@pytest.mark.parametrize("forward", [gamma, gamma_prime, psi])
def test_not_baxter_messages_are_bounded(forward):
    with pytest.raises(NotBaxterError) as exc:
        forward((2, 4, 1, 3, *range(5, 100001)))
    assert len(str(exc.value)) < 200
    assert str(exc.value) == "(2, 4, 1, 3, 5, 6, ...) contains 2-41-3 or 3-14-2"


def gamma_by_statistics(p):
    """The former body of gamma: the IDB, DES and IDT - 1 sets of the
    statistic profile, each encoded as a step word."""
    prof = stat_profile(p)
    m = len(p) - 1
    return PathTriple(
        encode_set(prof.idb_set, m),
        encode_set(prof.des_set, m),
        encode_set(prof.idt_mod_set, m),
    )


def test_gamma_words_match_the_statistics():
    for n in range(1, 8):
        for p in all_permutations(n):
            assert gamma(p, checked=False) == gamma_by_statistics(p), p
            assert gamma_prime(p, checked=False) == gamma_by_statistics(inverse(p)), p
    for p in iter_baxter(9):
        assert gamma(p) == gamma_by_statistics(p), p
        assert gamma_prime(p) == gamma_by_statistics(inverse(p)), p


def test_gamma_prime_is_gamma_of_inverse():
    assert gamma_prime(EX9_INV) == gamma(EX9)
    assert gamma_prime(tuple(range(1, 6))) == all_vertical(5)
    assert gamma_prime((2, 1)) == single_h()
    for p in [(3, 1, 2), (2, 3, 1), EX9]:
        assert gamma_prime(p) == gamma(inverse(p))


def test_phi_golden():
    h = LaguerreHistory("URUDDBUD", (1, 2, 2, 2, 1, 1, 1, 2))
    assert phi(h) == PSI_TRIPLE
    assert phi(LaguerreHistory("", ())) == all_vertical(1)


def test_phi_rejects_non_baxter_history():
    with pytest.raises(MalformedMiddleError, match="step 3"):
        phi(LaguerreHistory("UUDD", (1, 1, 1, 2)))


def test_phi_inverse_goldens():
    assert phi_inverse(PSI_TRIPLE) == LaguerreHistory("URUDDBUD", (1, 2, 2, 2, 1, 1, 1, 2))
    for m in range(0, 5):
        t = all_vertical(m + 1)
        assert phi_inverse(t) == LaguerreHistory("R" * m, (1,) * m)


def test_phi_inverse_always_yields_a_baxter_history():
    # the argument in _phi_inverse's docstring, checked on every triple it covers
    for n in range(1, 10):
        for k in range(n):
            for t in enumerate_tlp(n, k):
                assert validate(phi_inverse(t)) == Validity(True, True), t


def test_phi_round_trip_over_histories():
    for length in range(0, 6):
        for h in enumerate_histories(length):
            if validate(h).baxter_ok:
                assert phi_inverse(phi(h)) == h


def test_phi_is_disjoint_or_malformed_on_every_history():
    for length in range(0, 8):
        for h in enumerate_histories(length):
            try:
                t = phi(h)
            except MalformedMiddleError:
                continue
            assert is_nonintersecting_by_vertices(t), h


def test_psi_golden():
    assert psi(EX9_INV) == PSI_TRIPLE
    assert psi(tuple(range(1, 5))) == all_vertical(4)
    assert psi((2, 1)) == single_h()
    prof = stat_profile((2, 1))
    assert (prof.db_set, prof.ides_set, prof.dt_hat_set) == (
        frozenset({1}),
        frozenset({1}),
        frozenset({1}),
    )


def test_psi_inverse_golden():
    assert psi_inverse(PSI_TRIPLE) == EX9_INV
    assert psi_inverse(all_vertical(5)) == tuple(range(1, 6))


def test_psi_round_trip(bax):
    for p in bax.get(6):
        assert psi_inverse(psi(p)) == p


def test_gamma_prime_inverse_case_two_golden():
    # last top step horizontal: the final letter must be rediscovered
    assert GAMMA_TRIPLE.top[-1] == "H"
    assert gamma_prime_inverse(GAMMA_TRIPLE) == EX9_INV


def test_gamma_prime_inverse_case_one():
    for n in (1, 2, 5):
        assert gamma_prime_inverse(all_vertical(n)) == tuple(range(1, n + 1))


def outcome(f, t):
    try:
        return f(t)
    except ValueError as exc:
        return type(exc)


def test_gamma_prime_inverse_matches_candidate_search():
    for n in range(1, 9):
        for k in range(n):
            for t in enumerate_tlp(n, k):
                assert gamma_prime_inverse(t) == gamma_prime_inverse_by_search(t), t
    for m in range(0, 4):
        for t in all_triples(m):
            assert outcome(gamma_prime_inverse, t) == outcome(gamma_prime_inverse_by_search, t), t


def _outcome_and_message(f, t):
    try:
        return f(t)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "inv, t",
    [(gamma_inverse, GAMMA_TRIPLE), (gamma_prime_inverse, GAMMA_TRIPLE), (psi_inverse, PSI_TRIPLE)],
)
def test_inverses_check_each_triple_once(monkeypatch, inv, t):
    checked = []
    real = bijections.tlp_parameters

    def counting(triple):
        checked.append(triple)
        return real(triple)

    monkeypatch.setattr(bijections, "tlp_parameters", counting)
    inv(t)
    assert checked == [t]


def test_single_check_inverses_match_the_double_check_route(monkeypatch):
    # before, phi_inverse checked the triple that gamma_prime_inverse rewrote
    core = bijections._phi_inverse

    def checked_core(bottom, middle, top):
        bijections.tlp_parameters(PathTriple(bottom, middle, top))
        return core(bottom, middle, top)

    def old_gamma_prime_inverse(t):
        with monkeypatch.context() as m:
            m.setattr(bijections, "_phi_inverse", checked_core)
            return gamma_prime_inverse(t)

    def old_psi_inverse(t):
        return psi_fv_inverse_by_rescan(phi_inverse(t))

    for m in range(0, 5):
        for t in all_triples(m):
            for new, old in ((gamma_prime_inverse, old_gamma_prime_inverse), (psi_inverse, old_psi_inverse)):
                assert _outcome_and_message(new, t) == _outcome_and_message(old, t), t


@pytest.mark.parametrize(
    "bad",
    [(10, 40, 20), (1, 1), (0, 1), (2, 3), (2.0, 1.0), (True, 2), ("1",), (1, None), (1, 1, 2), ()],
)
def test_maps_reject_non_permutations(bad):
    # checked=False skips the Baxter test, not the permutation check
    unchecked = [partial(f, checked=False) for f in (gamma, gamma_prime)]
    for f in (is_baxter, psi_fv, gamma, gamma_prime, psi, *unchecked):
        with pytest.raises(InvalidPermutationError):
            f(bad)


@pytest.mark.parametrize("f", [is_baxter, psi_fv, gamma, gamma_prime, psi])
def test_forward_maps_check_each_permutation_once(monkeypatch, f):
    checked = []
    real = perm.check_permutation

    def counting(p):
        checked.append(p)
        return real(p)

    for module in (perm, laguerre, bijections):  # bijections checks through inverse
        monkeypatch.setattr(module, "check_permutation", counting, raising=False)
    f(EX9)
    assert checked == [EX9]


def test_psi_does_not_validate_the_history_it_builds(monkeypatch):
    def refuse(*args):
        raise AssertionError("a history was validated")

    for module, name in (
        (laguerre, "validate"),
        (laguerre, "_validity"),
        (laguerre, "_check_bounds"),
        (bijections, "_check_bounds"),
    ):
        monkeypatch.setattr(module, name, refuse)
    assert psi(EX9_INV) == PSI_TRIPLE


def test_psi_runs_neither_the_fv_sweep_nor_the_path_builder(monkeypatch):
    def refuse(*args):
        raise AssertionError("psi went through psi_fv and phi")

    for module, name in ((laguerre, "_psi_fv"), (bijections, "_psi_fv"), (bijections, "_phi")):
        monkeypatch.setattr(module, name, refuse, raising=False)
    assert psi(EX9_INV) == PSI_TRIPLE


def test_gamma_inverse_golden():
    assert gamma_inverse(GAMMA_TRIPLE) == EX9
    assert gamma_inverse(all_vertical(7)) == tuple(range(1, 8))


def test_gamma_round_trips(bax):
    for n in range(1, 7):
        for p in bax.get(n):
            assert gamma_inverse(gamma(p)) == p
            assert gamma_prime_inverse(gamma_prime(p)) == p


def test_tlp_round_trips():
    for n in range(1, 7):
        for k in range(n):
            for t in enumerate_tlp(n, k):
                assert gamma_prime(gamma_prime_inverse(t)) == t
                assert gamma(gamma_inverse(t)) == t


def test_gamma_image_is_exactly_the_disjoint_triples(bax):
    for n in range(1, 7):
        by_k = {}
        for p in bax.get(n):
            t = gamma(p)
            k = t.bottom.count("H")
            assert t not in by_k.setdefault(k, set())
            by_k[k].add(t)
        for k in range(n):
            assert by_k.get(k, set()) == set(enumerate_tlp(n, k))


def test_psi_encodings(bax):
    for n in range(1, 7):
        for p in bax.get(n):
            prof = stat_profile(p)
            t = psi(p)
            assert decode_path(t.bottom) == prof.db_set
            assert decode_path(t.middle) == prof.ides_set
            assert decode_path(t.top) == prof.dt_hat_set
            g = gamma_prime(p)
            assert t.bottom == g.bottom and t.middle == g.middle


def test_statistic_triples_are_injective(bax):
    for n in range(1, 8):
        seen = {}
        for p in bax.get(n):
            prof = stat_profile(p)
            key = (prof.dt_mod_set, prof.ides_set, prof.db_set)
            assert key not in seen, (p, seen.get(key))
            seen[key] = p


def test_insertion_case_surgery():
    for n in range(2, 7):
        assert all(_check_insertion_cases(p) is None for p in iter_baxter(n - 1))
