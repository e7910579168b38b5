from math import comb

import pytest

from baxlab import qseries
from baxlab.perm import all_permutations, stat_profile
from baxlab.qseries import (
    InexactDivisionError,
    QPoly,
    TQPoly,
    baxter_number,
    baxter_polynomial_lhs,
    baxter_polynomial_rhs,
    catalan,
    exact_div,
    q_binomial,
    tlp_count_formula,
)
from core_oracles import baxter_polynomial_rhs_by_products, poly_product, q_binomial_by_division
from fv_oracles import is_baxter_bruteforce

BAXTER_NUMBERS = [1, 2, 6, 22, 92, 422, 2074, 10754, 58202, 326240, 1882960, 11140560]
CATALAN_NUMBERS = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]
TLP_ROWS = {
    1: [1],
    2: [1, 1],
    3: [1, 4, 1],
    4: [1, 10, 10, 1],
    5: [1, 20, 50, 20, 1],
    6: [1, 35, 175, 175, 35, 1],
}


def test_qpoly_basics():
    zero = QPoly({0: 0, 3: 0})
    assert zero.terms() == [] and zero == QPoly()
    with pytest.raises(ValueError):
        QPoly({-1: 1})
    p = QPoly({0: 1, 1: 1})
    assert poly_product(p, p).terms() == [(0, 1), (1, 2), (2, 1)]
    assert p(3) == 4
    assert QPoly({2: 5}).coefficient(2) == 5


@pytest.mark.parametrize(
    "coeffs, what",
    [
        ({0: 1.5}, "coefficient"),
        ({1: True}, "coefficient"),
        ({2: "3"}, "coefficient"),
        ({0: None}, "coefficient"),
        ({1.5: 1}, "degrees"),
        ({True: 1}, "degrees"),
        ({"1": 1}, "degrees"),
    ],
)
def test_qpoly_rejects_non_integer_values(coeffs, what):
    with pytest.raises(ValueError, match=rf"^term .*: {what} must be"):
        QPoly(coeffs)


@pytest.mark.parametrize(
    "term, what",
    [
        ({"t": 0, "q": 0, "c": 1.9}, "coefficient"),
        ({"t": 0, "q": 0, "c": None}, "coefficient"),
        ({"t": 0, "q": 0, "c": True}, "coefficient"),
        ({"t": 0, "q": 0, "c": "1.9"}, "coefficient"),
        ({"t": 0, "q": 0, "c": " 2"}, "coefficient"),
        ({"t": True, "q": 0, "c": "1"}, "degrees"),
        ({"t": "a", "q": 0, "c": "1"}, "degrees"),
        ({"t": 0, "q": 1.0, "c": "1"}, "degrees"),
    ],
)
def test_tqpoly_rejects_non_integer_values(term, what):
    with pytest.raises(ValueError, match=rf"^term .*: {what} must be"):
        TQPoly({(term["t"], term["q"]): term["c"]})


def test_tqpoly_degrees_are_a_pair_of_non_negative_ints():
    for key in [0, (0,), (0, 0, 0), (0, 0.0)]:
        with pytest.raises(ValueError, match="degrees must be integers"):
            TQPoly({key: 1})
    with pytest.raises(ValueError, match="negative"):
        TQPoly({(0, -1): 1})
    assert TQPoly({(1, 2): -3, (0, 0): 0}).terms() == [(1, 2, -3)]


def test_q_binomial_goldens():
    assert q_binomial(3, 2).terms() == [(0, 1), (1, 1), (2, 1)]
    assert q_binomial(4, 2).terms() == [(0, 1), (1, 1), (2, 2), (3, 1), (4, 1)]
    for n in range(0, 6):
        assert q_binomial(n, 0) == QPoly({0: 1})
    assert q_binomial(2, 5).terms() == []
    assert q_binomial(3, -1).terms() == []


def test_q_binomial_matches_the_division_oracle():
    for n in range(0, 31):
        for k in range(-1, n + 2):
            assert q_binomial(n, k) == q_binomial_by_division(n, k), (n, k)
    for n, k in [(200, 2), (200, 198)]:
        assert q_binomial(n, k) == q_binomial_by_division(n, k), (n, k)


def test_q_binomial_symmetry_and_specialisation():
    for n in range(0, 13):
        for k in range(0, n + 1):
            poly = q_binomial(n, k)
            assert poly(1) == comb(n, k)
            top = k * (n - k)
            assert poly.terms()[-1][0] == top
            for d in range(top + 1):
                assert poly.coefficient(d) == poly.coefficient(top - d)


def test_exact_div_goldens():
    p = QPoly({0: 1, 1: 1, 2: 1})
    assert exact_div(poly_product(p, p), p) == p
    assert exact_div(q_binomial(4, 2), QPoly({0: 1, 2: 1})) == p
    with pytest.raises(InexactDivisionError):
        exact_div(QPoly({0: 1, 1: 1}), p)
    with pytest.raises(ZeroDivisionError):
        exact_div(p, QPoly())
    with pytest.raises(TypeError):
        exact_div(p, TQPoly({(0, 0): 1}))


def test_exact_div_names_a_leading_coefficient_that_does_not_divide():
    # 1 + 3q over 1 + 2q: the leading coefficient 2 does not divide 3
    with pytest.raises(InexactDivisionError) as info:
        exact_div(QPoly({0: 1, 1: 3}), QPoly({0: 1, 1: 2}))
    assert str(info.value) == "leading coefficient not divisible"


def test_polynomials_print_their_terms_and_hash_as_they_compare():
    assert repr(QPoly()) == "QPoly(0)"
    assert repr(QPoly({0: 1, 2: -3})) == "QPoly(1 + -3*q^2)"
    assert repr(TQPoly()) == "TQPoly(0)"
    assert repr(baxter_polynomial_rhs(2)) == "TQPoly(1*t^0*q^0 + 1*t^1*q^3)"
    # a zero coefficient is no term, so equal polynomials hash alike
    assert hash(QPoly({1: 2, 3: 0})) == hash(QPoly({1: 2}))
    assert len({QPoly({1: 2, 3: 0}), QPoly({1: 2}), QPoly({1: 3})}) == 2
    assert hash(TQPoly({(1, 3): 1, (2, 0): 0})) == hash(TQPoly({(1, 3): 1}))
    assert len({TQPoly({(1, 3): 1, (2, 0): 0}), TQPoly({(1, 3): 1}), TQPoly()}) == 2


def test_baxter_numbers():
    assert [baxter_number(n) for n in range(1, 13)] == BAXTER_NUMBERS
    for n in range(1, 6):
        filtered = sum(1 for p in all_permutations(n) if is_baxter_bruteforce(p))
        assert baxter_number(n) == filtered
    with pytest.raises(ValueError):
        baxter_number(0)


def test_catalan():
    assert [catalan(n) for n in range(0, 10)] == CATALAN_NUMBERS
    with pytest.raises(ValueError):
        catalan(-1)


def test_tlp_count_formula():
    assert tlp_count_formula(3, 1) == 4
    assert tlp_count_formula(2, 1) == 1
    for n, row in TLP_ROWS.items():
        assert [tlp_count_formula(n, k) for k in range(n)] == row
    for n in range(1, 21):
        assert sum(tlp_count_formula(n, k) for k in range(n)) == baxter_number(n)
    with pytest.raises(ValueError):
        tlp_count_formula(3, 3)


def test_counting_formulas_raise_on_a_remainder(monkeypatch):
    # with comb(a, b) = b + 2 the summand for k = 3 is 5 * 6 * 7 / (3 * 4)
    monkeypatch.setattr(qseries, "comb", lambda a, b: b + 2)
    with pytest.raises(InexactDivisionError, match="summand"):
        tlp_count_formula(5, 3)
    with pytest.raises(InexactDivisionError, match="triple-binomial"):
        baxter_number(4)


def test_baxter_polynomial_rhs_small():
    assert baxter_polynomial_rhs(1).terms() == [(0, 0, 1)]
    assert baxter_polynomial_rhs(2).terms() == [(0, 0, 1), (1, 3, 1)]
    for n in range(1, 11):
        assert baxter_polynomial_rhs(n)(1, 1) == baxter_number(n)


def test_baxter_polynomial_rhs_matches_the_product_oracle():
    for n in range(1, 19):
        assert baxter_polynomial_rhs(n) == baxter_polynomial_rhs_by_products(n), n


def test_baxter_polynomial_rhs_raises_on_a_remainder(monkeypatch):
    # one more in the constant term of [5, 3]_q = [5, 2]_q: the t^3 quotient is
    # q^18 ([5, 2]_q + 1) / [5, 2]_q, and [5, 2]_q, odd as an integer, leaves a remainder
    real_row = qseries._pascal_row
    monkeypatch.setattr(
        qseries, "_pascal_row", lambda *a: [r + (k == 3) for k, r in enumerate(real_row(*a))]
    )
    with pytest.raises(InexactDivisionError, match="t\\^3: nonzero remainder"):
        baxter_polynomial_rhs(4)


def test_baxter_polynomial_rhs_raises_on_a_carry_between_slots(monkeypatch):
    # den = 1 + q and t^1 quotient (B - 1) q^3 + q^4 with B = 2^bits: the integers
    # divide exactly, but (1 + q) times that quotient has the coefficient B at q^4
    bits = 3 * 3 + 8
    row = [1, 1 + (1 << bits), 1, (2 << bits) - 1]
    monkeypatch.setattr(qseries, "_pascal_row", lambda n, width, b: row)
    with pytest.raises(InexactDivisionError, match="t\\^1: the quotient carries"):
        baxter_polynomial_rhs(2)


def test_baxter_polynomial_lhs_small():
    assert baxter_polynomial_lhs(1).terms() == [(0, 0, 1)]
    assert baxter_polynomial_lhs(2).terms() == [(0, 0, 1), (1, 3, 1)]


def test_baxter_polynomial_lhs_sums_the_stat_profiles(bax):
    # the brute sum, term by term, as read off the public stat_profile
    for n in range(1, 9):
        acc = {}
        for p in bax.get(n):
            prof = stat_profile(p)
            key = (prof.des, prof.imaj_b + prof.maj + prof.imaj_t)
            acc[key] = acc.get(key, 0) + 1
        assert baxter_polynomial_lhs(n) == TQPoly(acc), n


def test_nine_letter_example_contributes_t4_q60():
    prof = stat_profile((2, 3, 5, 4, 1, 9, 7, 8, 6))
    assert (prof.des, prof.imaj_b + prof.maj + prof.imaj_t) == (4, 60)


def test_identity_lhs_equals_rhs():
    for n in range(1, 7):
        assert baxter_polynomial_lhs(n) == baxter_polynomial_rhs(n)


def test_t_slices_count_descent_classes(bax):
    for n in range(1, 8):
        rhs = baxter_polynomial_rhs(n)
        by_descents = [0] * n
        for p in bax.get(n):
            by_descents[stat_profile(p).des] += 1
        for k in range(n):
            t_slice_at_1 = sum(c for a, _, c in rhs.terms() if a == k)
            assert t_slice_at_1 == by_descents[k] == tlp_count_formula(n, k)
