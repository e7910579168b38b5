"""End-to-end acceptance checks at their full stated bounds.

Each test prints one line; run ``pytest tests/test_acceptance.py -v -s`` to
see them as they complete.  These scans are exhaustive and take a couple of
minutes altogether.
"""
from itertools import combinations
from math import comb

from baxlab.bijections import gamma, gamma_prime, gamma_prime_inverse, psi
from baxlab.laguerre import LaguerreHistory, psi_fv, psi_fv_inverse, validate
from baxlab.paths import decode_path, encode_set, enumerate_tlp
from baxlab.perm import all_permutations, inverse, is_baxter, shape_flags, stat_profile
from baxlab.qseries import (
    baxter_number,
    baxter_polynomial_lhs,
    baxter_polynomial_rhs,
    catalan,
    q_binomial,
    tlp_count_formula,
)


def _report(num: int, ok: bool, text: str) -> None:
    print(f"acceptance {num:>2}: {'PASS' if ok else 'FAIL'}  {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_baxter_counts(bax):
    ok = True
    for n in range(1, 9):
        generated = bax.get(n)
        formula = baxter_number(n)
        filtered = {p for p in all_permutations(n) if is_baxter(p)}
        ok = ok and len(generated) == formula == len(filtered)
        ok = ok and set(generated) == filtered
    for n in range(9, 11):
        ok = ok and len(bax.get(n)) == baxter_number(n)
    _report(1, ok, f"generator, formula and filter agree; B_10 = {baxter_number(10)}")


def test_criterion_02_bijectivity(bax):
    ok = True
    total = 0
    for n in range(1, 9):
        by_k: dict[int, set] = {}
        for p in bax.get(n):
            t = gamma(p)
            bucket = by_k.setdefault(t.bottom.count("H"), set())
            ok = ok and t not in bucket
            bucket.add(t)
        for k in range(n):
            enumerated = set(enumerate_tlp(n, k))
            ok = ok and by_k.get(k, set()) == enumerated
            total += len(enumerated)
    _report(2, ok, f"gamma images are duplicate-free and exhaust all {total} triples, n <= 8")


def test_criterion_03_inverse_algorithm(bax):
    ok = True
    for n in range(1, 9):
        for p in bax.get(n):
            ok = ok and gamma_prime_inverse(gamma_prime(p)) == p
        for k in range(n):
            for t in enumerate_tlp(n, k):
                ok = ok and gamma_prime(gamma_prime_inverse(t)) == t
    _report(3, ok, "two-sided round trips with a unique candidate everywhere, n <= 8")


def test_criterion_04_francon_viennot():
    golden_perm = (5, 1, 2, 4, 3, 9, 7, 8, 6)
    golden_history = LaguerreHistory("URUDDBUD", (1, 2, 2, 2, 1, 1, 1, 2))
    ok = psi_fv(golden_perm) == golden_history
    ok = ok and psi_fv_inverse(golden_history) == golden_perm
    for n in range(1, 9):
        for p in all_permutations(n):
            h = psi_fv(p)
            if psi_fv_inverse(h) != p or validate(h).baxter_ok != is_baxter(p):
                ok = False
                break
    _report(4, ok, "round trips on all of S_n and history/pattern agreement, n <= 8")


def test_criterion_05_encodings(bax):
    ok = True
    for n in range(1, 9):
        for p in bax.get(n):
            prof = stat_profile(p)
            t = psi(p)
            ok = ok and decode_path(t.bottom) == prof.db_set
            ok = ok and decode_path(t.middle) == prof.ides_set
            ok = ok and decode_path(t.top) == prof.dt_hat_set
            g = gamma_prime(p)
            ok = ok and t.bottom == g.bottom and t.middle == g.middle
    _report(5, ok, "paths decode to (DB, IDES, DT-hat) and agree below the top, n <= 8")


def test_criterion_06_tq_identity():
    ok = baxter_polynomial_rhs(2).terms() == [(0, 0, 1), (1, 3, 1)]
    for n in range(1, 9):
        ok = ok and baxter_polynomial_lhs(n) == baxter_polynomial_rhs(n)
    for n in range(9, 13):
        # construction raises if any division were inexact
        ok = ok and baxter_polynomial_rhs(n)(1, 1) == baxter_number(n)
    _report(6, ok, "statistic sum equals the closed form, n <= 8; division exact to n = 12")


def test_criterion_07_alternating_counts(bax):
    ok = True
    values = {}
    for n in range(1, 11):
        alt = ralt = 0
        for p in bax.get(n):
            flags = shape_flags(p)
            alt += flags.alternating
            ralt += flags.reverse_alternating
        want = catalan(n // 2) * catalan((n + 1) // 2)
        values[n] = alt
        ok = ok and alt == want and ralt == want
    ok = ok and values[6] == 25 and values[7] == 70
    _report(7, ok, f"both alternating counts match the Catalan products, n <= 10 ({values[10]} at n=10)")


def test_criterion_08_catalan_genocchi(bax):
    ok = True
    for n in range(1, 11):
        special = [
            p
            for p in bax.get(n)
            if shape_flags(p).reverse_alternating and shape_flags(inverse(p)).genocchi
        ]
        ok = ok and len(special) == catalan(n // 2)
        if n == 6:
            ok = ok and sorted(special) == [
                (2, 1, 4, 3, 6, 5),
                (2, 1, 5, 4, 6, 3),
                (3, 2, 4, 1, 6, 5),
                (3, 2, 5, 4, 6, 1),
                (4, 3, 5, 2, 6, 1),
            ]
    _report(8, ok, "reverse-alternating with Genocchi inverse hits the Catalan count, n <= 10")


def test_criterion_09_injectivity(bax):
    ok = True
    for n in range(1, 9):
        seen = set()
        for p in bax.get(n):
            prof = stat_profile(p)
            key = (prof.dt_mod_set, prof.ides_set, prof.db_set)
            ok = ok and key not in seen
            seen.add(key)
    _report(9, ok, "no two Baxter permutations share (DT-1, IDES, DB), n <= 8")


def test_criterion_10_property_suites():
    ok = True
    for m in range(0, 13):
        for r in range(m + 1):
            for s in combinations(range(1, m + 1), r):
                ok = ok and decode_path(encode_set(s, m)) == frozenset(s)
    for n in range(0, 21):
        for k in range(n + 1):
            poly = q_binomial(n, k)
            top = k * (n - k)
            ok = ok and poly(1) == comb(n, k)
            ok = ok and all(
                poly.coefficient(d) == poly.coefficient(top - d) for d in range(top + 1)
            )
    for n in range(1, 21):
        ok = ok and sum(tlp_count_formula(n, k) for k in range(n)) == baxter_number(n)
    _report(10, ok, "subset round trips (m <= 12), q-binomial laws and summand sums (n <= 20)")
