"""Exact integer polynomials in q and (t, q), q-binomials, and counting formulas.

Coefficients are plain Python integers, so nothing here rounds or overflows.
Division is always exact division with a hard failure on any remainder.

The q-binomials and the closed form are computed on packed integers: a
polynomial with non-negative coefficients below 2^bits is the int whose
``bits``-wide slots, lowest first, hold its coefficients, so an addition or
a product of packed ints is the sum or product of the polynomials as long as
no slot overflows.
"""
from __future__ import annotations

from math import comb
from typing import Mapping

from .perm import _check_size, _descents, _inverse, _is_int, iter_baxter


class InexactDivisionError(ArithmeticError):
    """A division that must be exact left a remainder."""


def _clean(coeffs: Mapping, degrees_ok) -> dict:
    """Nonzero terms of ``coeffs``; every degree and coefficient must be an int."""
    for key, c in coeffs.items():
        if not degrees_ok(key):
            raise ValueError(f"term {key!r}: degrees must be integers")
        if not _is_int(c):
            raise ValueError(f"term {key!r}: coefficient must be an integer, got {c!r}")
    return {k: v for k, v in coeffs.items() if v}


class QPoly:
    """Sparse polynomial in q with integer coefficients."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        c = _clean(coeffs or {}, _is_int)
        if any(d < 0 for d in c):
            raise ValueError("negative q-degrees are not allowed")
        self._c = c

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

    def __repr__(self) -> str:
        if not self._c:
            return "QPoly(0)"
        parts = [f"{c}*q^{d}" if d else str(c) for d, c in self.terms()]
        return "QPoly(" + " + ".join(parts) + ")"


def _is_degree_pair(key: object) -> bool:
    return isinstance(key, tuple) and len(key) == 2 and all(_is_int(d) for d in key)


class TQPoly:
    """Sparse polynomial in t and q with integer coefficients."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[tuple[int, int], int] | None = None):
        c = _clean(coeffs or {}, _is_degree_pair)
        if any(a < 0 or b < 0 for a, b in c):
            raise ValueError("negative degrees are not allowed")
        self._c = c

    def terms(self) -> list[tuple[int, int, int]]:
        """(t-degree, q-degree, coefficient) triples sorted by degrees."""
        return [(a, b, c) for (a, b), c in sorted(self._c.items())]

    def __call__(self, t: int, q: int) -> int:
        return sum(c * t**a * q**b for (a, b), c in self._c.items())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TQPoly) and self._c == other._c

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    def __repr__(self) -> str:
        if not self._c:
            return "TQPoly(0)"
        parts = [f"{c}*t^{a}*q^{b}" for a, b, c in self.terms()]
        return "TQPoly(" + " + ".join(parts) + ")"


def exact_div(a: QPoly, b: QPoly) -> QPoly:
    """Quotient c with a = b * c exactly; raises InexactDivisionError otherwise."""
    if not (isinstance(a, QPoly) and isinstance(b, QPoly)):
        raise TypeError("operands must be two QPoly")
    if not b._c:
        raise ZeroDivisionError("division by the zero polynomial")
    dd = max(b._c)
    dc = b._c[dd]
    quot: dict[int, int] = {}
    rem = dict(a._c)
    while rem:
        rd = max(rem)
        if rd < dd:
            raise InexactDivisionError("nonzero remainder of lower degree")
        c, r = divmod(rem[rd], dc)
        if r:
            raise InexactDivisionError("leading coefficient not divisible")
        quot[rd - dd] = c
        for d, v in b._c.items():
            nd = rd - dd + d
            nv = rem.get(nd, 0) - c * v
            if nv:
                rem[nd] = nv
            else:
                rem.pop(nd, None)
    return QPoly(quot)


def _pascal_row(n: int, width: int, bits: int) -> list[int]:
    """[n, k]_q packed in ``bits``-wide slots, for k = 0..width.

    Row by row through the q-Pascal rule [m, k] = [m-1, k-1] + q^k [m-1, k];
    the caller picks ``bits`` so that no coefficient reaches 2^bits.
    """
    row = [1] + [0] * width
    for m in range(1, n + 1):
        for k in range(min(m, width), 0, -1):
            row[k] = row[k - 1] + (row[k] << k * bits)
    return row


def _unpack(x: int, bits: int) -> dict[int, int]:
    """The nonzero coefficients of the packed polynomial ``x``, by degree."""
    s = format(x, "b")
    out = {}
    for d, end in enumerate(range(len(s), 0, -bits)):
        c = int(s[max(end - bits, 0) : end], 2)
        if c:
            out[d] = c
    return out


def q_binomial(n: int, k: int) -> QPoly:
    """The Gaussian binomial [n, k]_q; zero when k falls outside 0..n.

    Built by the q-Pascal rule on packed integers, only as far as
    min(k, n - k), since [n, k]_q = [n, n - k]_q.  Every coefficient is at
    most binomial(n, k) <= 2^n, so slots of n + 1 bits never overflow.

    >>> q_binomial(4, 2).terms()
    [(0, 1), (1, 1), (2, 2), (3, 1), (4, 1)]
    """
    _check_size("n", n, None)
    _check_size("k", k, None)
    if n < 0 or k < 0 or k > n:
        return QPoly()
    width = min(k, n - k)
    return QPoly(_unpack(_pascal_row(n, width, n + 1)[width], n + 1))


def catalan(n: int) -> int:
    """binomial(2n, n) / (n + 1), exactly."""
    _check_size("n", n)
    return comb(2 * n, n) // (n + 1)


def baxter_number(n: int) -> int:
    """Triple-binomial sum divided by binomial(n+1,1) * binomial(n+1,2)."""
    _check_size("n", n, 1)
    num = sum(comb(n + 1, k) * comb(n + 1, k + 1) * comb(n + 1, k + 2) for k in range(n))
    den = comb(n + 1, 1) * comb(n + 1, 2)
    q, r = divmod(num, den)
    if r:
        raise InexactDivisionError("triple-binomial sum must be divisible")
    return q


def tlp_count_formula(n: int, k: int) -> int:
    """The k-th summand of :func:`baxter_number`, individually an integer."""
    _check_size("n", n, 1)
    _check_size("k", k, 0, n - 1)
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

    Each product and quotient is one big-int operation on packed rows.  A
    product of three q-binomials has coefficients below 2^(3(n+1)), so the
    slots hold them.  The quotient is exact as a polynomial when the integer
    division leaves no remainder and the product of the divisor and quotient
    cannot carry between slots, which holds once den(1) * quot(1) < 2^bits
    since every coefficient is non-negative.
    """
    _check_size("n", n, 1)
    bits = 3 * (n + 1) + 8
    row = _pascal_row(n + 1, n + 1, bits)
    den = row[1] * row[2]
    den_at_1 = sum(_unpack(den, bits).values())
    out: dict[tuple[int, int], int] = {}
    for k in range(n):
        num = row[k] * row[k + 1] * row[k + 2] << 3 * comb(k + 1, 2) * bits
        quot, rem = divmod(num, den)
        if rem:
            raise InexactDivisionError(f"t^{k}: nonzero remainder")
        coeffs = _unpack(quot, bits)
        if den_at_1 * sum(coeffs.values()) >> bits:
            raise InexactDivisionError(f"t^{k}: the quotient carries between slots")
        for d, c in coeffs.items():
            out[(k, d)] = c
    return TQPoly(out)


def baxter_polynomial_lhs(n: int) -> TQPoly:
    """Brute sum of t^des q^(imaj_b + maj + imaj_t) over all Baxter permutations."""
    acc: dict[tuple[int, int], int] = {}
    for p in iter_baxter(n):
        des = _descents(p)[0]
        _, idt, idb = _descents(_inverse(p))
        # des, maj, imaj_b and imaj_t as perm.StatProfile defines them
        key = (len(des), sum(des) + sum(idb) + sum(idt) - len(idt))
        acc[key] = acc.get(key, 0) + 1
    return TQPoly(acc)
