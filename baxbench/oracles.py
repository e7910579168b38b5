"""Independent answers the benchmark checks baxlab's outputs against.

Nothing here imports baxlab: each oracle is computed straight from a
definition, so a fault in the library cannot hide behind the same fault in
its checker.
"""
from __future__ import annotations

from itertools import permutations
from math import comb, factorial

Perm = tuple[int, ...]

# starts of the bottom, middle and top paths of a triple
STARTS = {"bottom": (2, 0), "middle": (1, 1), "top": (0, 2)}


def inverse(p: Perm) -> Perm:
    q = [0] * len(p)
    for i, v in enumerate(p, start=1):
        q[v - 1] = i
    return tuple(q)


def descent_sets(p: Perm) -> dict[str, frozenset[int]]:
    """DES, DT, DB of p and IDES, IDT, IDB of its inverse, read off the
    adjacent pairs (positions and values 1-based)."""
    q = inverse(p)
    out = {}
    for prefix, w in (("", p), ("i", q)):
        pairs = [(i, w[i - 1], w[i]) for i in range(1, len(w)) if w[i - 1] > w[i]]
        out[prefix + "des"] = frozenset(i for i, _, _ in pairs)
        out[prefix + "dt"] = frozenset(a for _, a, _ in pairs)
        out[prefix + "db"] = frozenset(b for _, _, b in pairs)
    return out


def triple_sets(p: Perm) -> dict[str, tuple[frozenset[int], frozenset[int], frozenset[int]]]:
    """The (bottom, middle, top) sets each map must encode, by map name."""
    n = len(p)
    s = descent_sets(p)
    dt_minus_1 = frozenset(v - 1 for v in s["dt"])
    return {
        "gamma": (s["idb"], s["des"], frozenset(v - 1 for v in s["idt"])),
        "gamma_prime": (s["db"], s["ides"], dt_minus_1),
        "psi": (s["db"], s["ides"], (s["dt"] | {p[-1]}) - {n}),
    }


def h_positions(steps: str) -> frozenset[int]:
    """1-based positions of the H steps of a path."""
    return frozenset(i for i, c in enumerate(steps, start=1) if c == "H")


def disjoint_by_prefix_counts(bottom: str, middle: str, top: str) -> bool:
    """Vertex-disjointness of a triple from (2,0), (1,1), (0,2).

    All i-th vertices lie on the anti-diagonal x + y = i + 2 and x moves by at
    most one per step, so the paths stay apart exactly when the H-prefix
    counts keep h_top(i) <= h_mid(i) <= h_bot(i) for every i.
    """
    if not len(bottom) == len(middle) == len(top):
        return False
    hb = hm = ht = 0
    for b, m, t in zip(bottom, middle, top):
        hb += b == "H"
        hm += m == "H"
        ht += t == "H"
        if not ht <= hm <= hb:
            return False
    return True


def tlp_summand(n: int, k: int) -> int:
    """Number of disjoint triples with n-1 steps and k H steps per path."""
    num = comb(n + 1, k) * comb(n + 1, k + 1) * comb(n + 1, k + 2)
    den = comb(n + 1, 1) * comb(n + 1, 2)
    if num % den:
        raise ArithmeticError(f"summand n={n} k={k} is not an integer")
    return num // den


def baxter_number(n: int) -> int:
    return sum(tlp_summand(n, k) for k in range(n))


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def history_count(length: int) -> int:
    """Laguerre histories of a length number the permutations one larger."""
    return factorial(length + 1)


def is_baxter_by_definition(p: Perm) -> bool:
    """No 2-41-3 and no 3-14-2 with the middle pair adjacent."""
    n = len(p)
    for j in range(n - 1):
        a, b = p[j], p[j + 1]
        for i in range(j):
            for k in range(j + 2, n):
                if b < p[i] < p[k] < a or a < p[k] < p[i] < b:
                    return False
    return True


def brute_lhs(n: int) -> dict[tuple[int, int], int]:
    """Sum of t^des q^(imaj_B + maj + imaj_T) over the Baxter permutations of
    size n, as {(t-degree, q-degree): count}; meant for n <= 7."""
    acc: dict[tuple[int, int], int] = {}
    for p in permutations(range(1, n + 1)):
        if not is_baxter_by_definition(p):
            continue
        s = descent_sets(p)
        key = (len(s["des"]), sum(s["idb"]) + sum(s["des"]) + sum(v - 1 for v in s["idt"]))
        acc[key] = acc.get(key, 0) + 1
    return acc


def is_palindromic(coeffs: dict[int, int]) -> bool:
    """The coefficients of a q-polynomial read the same from either end."""
    if not coeffs:
        return True
    lo, hi = min(coeffs), max(coeffs)
    return all(coeffs.get(lo + d, 0) == coeffs.get(hi - d, 0) for d in range(hi - lo + 1))


def rhs_errors(n: int, terms: list[tuple[int, int, int]], brute: dict | None) -> list[str]:
    """What is wrong with a claimed (t, q) polynomial for size n, as
    (t-degree, q-degree, coefficient) terms; empty when nothing is."""
    errors = []
    slices: dict[int, dict[int, int]] = {}
    for a, b, c in terms:
        slices.setdefault(a, {})[b] = c
    if sum(c for _, _, c in terms) != baxter_number(n):
        errors.append(f"n={n}: value at t=q=1 is not the Baxter number {baxter_number(n)}")
    for k in range(n):
        got = sum(slices.get(k, {}).values())
        if got != tlp_summand(n, k):
            errors.append(f"n={n}: t^{k} at q=1 is {got}, summand is {tlp_summand(n, k)}")
    if set(slices) - set(range(n)):
        errors.append(f"n={n}: t-degrees {sorted(set(slices) - set(range(n)))} out of range")
    for k, sl in sorted(slices.items()):
        if not is_palindromic(sl):
            errors.append(f"n={n}: the t^{k} slice is not palindromic")
    if brute is not None and {(a, b): c for a, b, c in terms} != brute:
        errors.append(f"n={n}: differs from the brute-force sum over Baxter permutations")
    return errors
