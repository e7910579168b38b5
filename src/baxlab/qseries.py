"""Exact integer polynomials in q and (t, q), q-binomials, and counting formulas.

Coefficients are plain Python integers, so nothing here rounds or overflows.
Division is always exact division with a hard failure on any remainder.
"""
from __future__ import annotations

from math import comb
from typing import Mapping

from .perm import _stat_profile, iter_baxter


class InexactDivisionError(ArithmeticError):
    """A division that must be exact left a remainder."""


def _clean(coeffs: Mapping) -> dict:
    return {k: int(v) for k, v in coeffs.items() if int(v) != 0}


class QPoly:
    """Sparse polynomial in q with integer coefficients."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        c = _clean(coeffs or {})
        if any(d < 0 for d in c):
            raise ValueError("negative q-degrees are not allowed")
        self._c = c

    @classmethod
    def zero(cls) -> "QPoly":
        return cls()

    @classmethod
    def one(cls) -> "QPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> "QPoly":
        return cls({degree: coeff})

    def is_zero(self) -> bool:
        return not self._c

    def degree(self) -> int:
        if not self._c:
            raise ValueError("the zero polynomial has no degree")
        return max(self._c)

    def coefficient(self, degree: int) -> int:
        return self._c.get(degree, 0)

    def terms(self) -> list[tuple[int, int]]:
        """(degree, coefficient) pairs, ascending by degree."""
        return sorted(self._c.items())

    def __call__(self, q: int) -> int:
        return sum(c * q**d for d, c in self._c.items())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QPoly) and self._c == other._c

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    def __add__(self, other: "QPoly") -> "QPoly":
        c = dict(self._c)
        for d, v in other._c.items():
            c[d] = c.get(d, 0) + v
        return QPoly(c)

    def __sub__(self, other: "QPoly") -> "QPoly":
        c = dict(self._c)
        for d, v in other._c.items():
            c[d] = c.get(d, 0) - v
        return QPoly(c)

    def __mul__(self, other: "QPoly") -> "QPoly":
        c: dict[int, int] = {}
        for d1, v1 in self._c.items():
            for d2, v2 in other._c.items():
                c[d1 + d2] = c.get(d1 + d2, 0) + v1 * v2
        return QPoly(c)

    def __repr__(self) -> str:
        if not self._c:
            return "QPoly(0)"
        parts = [f"{c}*q^{d}" if d else str(c) for d, c in self.terms()]
        return "QPoly(" + " + ".join(parts) + ")"


class TQPoly:
    """Sparse polynomial in t and q with integer coefficients."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[tuple[int, int], int] | None = None):
        c = _clean(coeffs or {})
        if any(a < 0 or b < 0 for a, b in c):
            raise ValueError("negative degrees are not allowed")
        self._c = c

    @classmethod
    def zero(cls) -> "TQPoly":
        return cls()

    def is_zero(self) -> bool:
        return not self._c

    def coefficient(self, t_deg: int, q_deg: int) -> int:
        return self._c.get((t_deg, q_deg), 0)

    def terms(self) -> list[tuple[int, int, int]]:
        """(t-degree, q-degree, coefficient) triples sorted by degrees."""
        return [(a, b, c) for (a, b), c in sorted(self._c.items())]

    def t_slice(self, t_deg: int) -> QPoly:
        """The q-polynomial multiplying t^t_deg."""
        return QPoly({b: c for (a, b), c in self._c.items() if a == t_deg})

    def t_degrees(self) -> list[int]:
        return sorted({a for a, _ in self._c})

    def __call__(self, t: int, q: int) -> int:
        return sum(c * t**a * q**b for (a, b), c in self._c.items())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TQPoly) and self._c == other._c

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    def __add__(self, other: "TQPoly") -> "TQPoly":
        c = dict(self._c)
        for k, v in other._c.items():
            c[k] = c.get(k, 0) + v
        return TQPoly(c)

    def __mul__(self, other: "TQPoly") -> "TQPoly":
        c: dict[tuple[int, int], int] = {}
        for (a1, b1), v1 in self._c.items():
            for (a2, b2), v2 in other._c.items():
                k = (a1 + a2, b1 + b2)
                c[k] = c.get(k, 0) + v1 * v2
        return TQPoly(c)

    def __repr__(self) -> str:
        if not self._c:
            return "TQPoly(0)"
        parts = [f"{c}*t^{a}*q^{b}" for a, b, c in self.terms()]
        return "TQPoly(" + " + ".join(parts) + ")"


def _exact_div_dict(num: dict, den: dict) -> dict:
    """Exact long division of q-coefficient dicts over the integers."""
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    dd = max(den)
    dc = den[dd]
    quot: dict[int, int] = {}
    rem = dict(num)
    while rem:
        rd = max(rem)
        if rd < dd:
            raise InexactDivisionError("nonzero remainder of lower degree")
        c, r = divmod(rem[rd], dc)
        if r:
            raise InexactDivisionError("leading coefficient not divisible")
        quot[rd - dd] = c
        for d, v in den.items():
            nd = rd - dd + d
            nv = rem.get(nd, 0) - c * v
            if nv:
                rem[nd] = nv
            else:
                rem.pop(nd, None)
    return quot


def exact_div(a: "QPoly | TQPoly", b: "QPoly | TQPoly") -> "QPoly | TQPoly":
    """Quotient c with a = b * c exactly; raises InexactDivisionError otherwise.

    For (t, q)-polynomials the divisor must be free of t; each t-slice of the
    dividend is then divided independently.
    """
    if isinstance(a, QPoly) and isinstance(b, QPoly):
        return QPoly(_exact_div_dict(a._c, b._c))
    if isinstance(a, TQPoly) and isinstance(b, TQPoly):
        if any(td != 0 for td, _ in b._c):
            raise ValueError("the divisor of a (t, q)-polynomial must be free of t")
        den = {qd: c for (_, qd), c in b._c.items()}
        out: dict[tuple[int, int], int] = {}
        for td in a.t_degrees():
            num = {qd: c for (t, qd), c in a._c.items() if t == td}
            for qd, c in _exact_div_dict(num, den).items():
                out[(td, qd)] = c
        return TQPoly(out)
    raise TypeError("operands must be two QPoly or two TQPoly")


def q_binomial(n: int, k: int) -> QPoly:
    """The Gaussian binomial [n, k]_q; zero when k falls outside 0..n.

    Built by alternately multiplying a factor (1 - q^(n-k+i)) in and dividing
    a factor (1 - q^i) out; every intermediate value is itself a q-binomial,
    so each division is exact (and checked).

    >>> q_binomial(4, 2).terms()
    [(0, 1), (1, 1), (2, 2), (3, 1), (4, 1)]
    """
    if n < 0 or k < 0 or k > n:
        return QPoly.zero()
    out = QPoly.one()
    for i in range(1, k + 1):
        out = exact_div(out * QPoly({0: 1, n - k + i: -1}), QPoly({0: 1, i: -1}))
    return out


def catalan(n: int) -> int:
    """binomial(2n, n) / (n + 1), exactly."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return comb(2 * n, n) // (n + 1)


def baxter_number(n: int) -> int:
    """Triple-binomial sum divided by binomial(n+1,1) * binomial(n+1,2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    num = sum(comb(n + 1, k) * comb(n + 1, k + 1) * comb(n + 1, k + 2) for k in range(n))
    den = comb(n + 1, 1) * comb(n + 1, 2)
    q, r = divmod(num, den)
    if r:
        raise InexactDivisionError("triple-binomial sum must be divisible")
    return q


def tlp_count_formula(n: int, k: int) -> int:
    """The k-th summand of :func:`baxter_number`, individually an integer."""
    if n < 1 or not 0 <= k <= n - 1:
        raise ValueError(f"need n >= 1 and 0 <= k <= n-1, got n={n}, k={k}")
    num = comb(n + 1, k) * comb(n + 1, k + 1) * comb(n + 1, k + 2)
    den = comb(n + 1, 1) * comb(n + 1, 2)
    q, r = divmod(num, den)
    if r:
        raise InexactDivisionError("summand must be divisible")
    return q


def baxter_polynomial_rhs(n: int) -> TQPoly:
    """Closed-form (t, q) refinement of the Baxter count.

    sum_k t^k q^(3*binomial(k+1,2)) [n+1,k]_q [n+1,k+1]_q [n+1,k+2]_q,
    divided exactly by [n+1,1]_q [n+1,2]_q.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    den = q_binomial(n + 1, 1) * q_binomial(n + 1, 2)
    out: dict[tuple[int, int], int] = {}
    for k in range(n):
        num = (
            QPoly.monomial(3 * comb(k + 1, 2))
            * q_binomial(n + 1, k)
            * q_binomial(n + 1, k + 1)
            * q_binomial(n + 1, k + 2)
        )
        for d, c in exact_div(num, den).terms():
            out[(k, d)] = c
    return TQPoly(out)


def baxter_polynomial_lhs(n: int) -> TQPoly:
    """Brute sum of t^des q^(imaj_b + maj + imaj_t) over all Baxter permutations."""
    acc: dict[tuple[int, int], int] = {}
    for p in iter_baxter(n):
        prof = _stat_profile(p)
        key = (prof.des, prof.imaj_b + prof.maj + prof.imaj_t)
        acc[key] = acc.get(key, 0) + 1
    return TQPoly(acc)
