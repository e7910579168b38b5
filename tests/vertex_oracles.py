"""The vertex-set definitions that the prefix-count code replaced, kept as
test oracles, the vertices they read, and the exhaustive source of triples
they are checked on."""
from itertools import product

from baxlab.bijections import psi_inverse
from baxlab.paths import (
    BOTTOM_START,
    MIDDLE_START,
    TOP_START,
    PathTriple,
    decode_path,
    encode_set,
    tlp_parameters,
)


def vertices(start, steps):
    """The len(steps) + 1 points a path from start visits, in travel order."""
    x, y = start
    out = [(x, y)]
    for c in steps:
        if c == "H":
            x += 1
        else:
            y += 1
        out.append((x, y))
    return tuple(out)


def all_triples(m):
    """Every triple of m-step paths, crossing ones included."""
    words = ["".join(w) for w in product("HV", repeat=m)]
    for wb, wm, wt in product(words, repeat=3):
        yield PathTriple(wb, wm, wt)


def is_nonintersecting_by_vertices(t):
    """True iff the three vertex sets are pairwise disjoint (endpoints included)."""
    vb = set(vertices(BOTTOM_START, t.bottom))
    vm = set(vertices(MIDDLE_START, t.middle))
    vt = set(vertices(TOP_START, t.top))
    return not (vb & vm) and not (vb & vt) and not (vm & vt)


def gamma_prime_inverse_by_search(t):
    """Invert gamma_prime by trying every candidate member j of the psi top set.

    A candidate top qualifies when it avoids the middle path's vertices and
    starts its j-th step at squared distance 2 from the middle's j-th step.
    """
    n, _ = tlp_parameters(t)
    m = n - 1
    shifted = {i + 1 for i in decode_path(t.top)}
    if m == 0 or t.top[-1] == "V":
        return psi_inverse(PathTriple(t.bottom, t.middle, encode_set(shifted, m)))
    s = shifted - {n}
    mverts = vertices(MIDDLE_START, t.middle)
    mset = frozenset(mverts)
    candidates = []
    for j in sorted(set(range(1, n)) - s):
        cand = encode_set(s | {j}, m)
        cverts = vertices(TOP_START, cand)
        if mset & frozenset(cverts):
            continue
        dx = mverts[j - 1][0] - cverts[j - 1][0]
        dy = mverts[j - 1][1] - cverts[j - 1][1]
        if dx * dx + dy * dy == 2:
            candidates.append(cand)
    if len(candidates) != 1:
        raise ValueError(f"{len(candidates)} candidate top paths qualify; expected exactly one")
    return psi_inverse(PathTriple(t.bottom, t.middle, candidates[0]))
