"""Triples of monotone H/V lattice paths from (2,0), (1,1), (0,2): step words, text drawings.

Built on :mod:`baxlab.perm` for its size, word and integer rules only.
"""
from __future__ import annotations

import reprlib
from itertools import accumulate, starmap
from operator import le
from typing import Iterable, Iterator, NamedTuple, Sequence

from .perm import _all_ints, _check_size, _check_word, _is_int, _shown

Point = tuple[int, int]

BOTTOM_START: Point = (2, 0)
MIDDLE_START: Point = (1, 1)
TOP_START: Point = (0, 2)


def encode_set(s: Iterable[int], length: int) -> str:
    """The step word whose i-th step is horizontal iff i is in s.

    Raises ``ValueError`` unless length is an integer >= 0 and s an iterable
    of integers in 1..length, each under :func:`~baxlab.perm._is_int`.
    """
    _check_size("length", length)
    try:
        elements = list(s)
    except TypeError:
        raise ValueError(f"set must be an iterable of integers: {reprlib.repr(s)}") from None
    if not _all_ints(elements):
        bad = next(i for i, v in enumerate(elements) if not _is_int(v))
        raise ValueError(f"set elements must be integers: {_shown(elements, bad)}")
    chosen = frozenset(elements)
    outside = sorted(i for i in chosen if not 1 <= i <= length)
    if outside:
        raise ValueError(f"set elements {reprlib.repr(outside)} fall outside 1..{length}")
    return "".join("H" if i in chosen else "V" for i in range(1, length + 1))


def decode_path(steps: str) -> frozenset[int]:
    """Positions of the horizontal steps; inverse of :func:`encode_set`.

    Raises ``ValueError`` unless steps is a ``str`` over H and V.
    """
    _check_word(steps, "HV", "steps must be a word")
    return frozenset(i for i, c in enumerate(steps, start=1) if c == "H")


class _Words(NamedTuple):
    bottom: str
    middle: str
    top: str


class PathTriple(_Words):
    """Step words of equal length of the paths from (2,0), (1,1), (0,2).

    Each word is over H = (+1, 0) and V = (0, +1).  The starts are fixed, so
    the words are the whole triple: a triple is the tuple of its words, and
    orders as that tuple, which is the order of :func:`enumerate_tlp`.
    ``_make`` and ``_replace`` check their input as the constructor does.
    """

    __slots__ = ()

    def __new__(cls, bottom: str, middle: str, top: str) -> PathTriple:
        for steps in (bottom, middle, top):
            _check_word(steps, "HV", "steps must be a word")
        if not (len(bottom) == len(middle) == len(top)):
            raise ValueError(
                f"paths must have equal lengths, got {len(bottom)}/{len(middle)}/{len(top)}"
            )
        return tuple.__new__(cls, (bottom, middle, top))

    @classmethod
    def _make(cls, iterable: Iterable[str]) -> PathTriple:
        # the inherited _make, which _replace calls too, skips __new__
        return cls(*iterable)

    @classmethod
    def _trusted(cls, words: tuple[str, str, str]) -> PathTriple:
        """The triple of three H/V words of one length, unchecked: for the
        words the library's cores build, which are well-formed by
        construction."""
        return tuple.__new__(cls, words)

    @property
    def n(self) -> int:
        """Size of the permutations this triple corresponds to."""
        return len(self.bottom) + 1


def render_ascii(t: PathTriple) -> str:
    """Draw the triple on a dotted grid.

    B/M/T mark the vertices of the bottom/middle/top path and -/| their
    connecting steps; unused lattice points show as dots.  Paths are drawn
    bottom first, so an (invalid) intersecting triple overdraws rather than
    fails.
    """
    paths = tuple(zip((BOTTOM_START, MIDDLE_START, TOP_START), (t.bottom, t.middle, t.top)))
    # the paths are monotone, so their ends bound the grid
    max_x = max(x + w.count("H") for (x, _), w in paths)
    max_y = max(y + w.count("V") for (_, y), w in paths)
    width, height = 2 * max_x + 1, 2 * max_y + 1
    canvas = [
        ["." if row % 2 == 0 and col % 2 == 0 else " " for col in range(width)]
        for row in range(height)
    ]
    for ((x, y), word), mark in zip(paths, "BMT"):
        row, col = 2 * (max_y - y), 2 * x
        canvas[row][col] = mark
        for c in word:
            if c == "H":
                canvas[row][col + 1] = "-"
                col += 2
            else:
                canvas[row - 1][col] = "|"
                row -= 2
            canvas[row][col] = mark
    return "\n".join("".join(row).rstrip() for row in canvas)


_H_BYTES = bytes.maketrans(b"HV", b"\1\0")


def _h_bytes(steps: str) -> bytes:
    """The step word as bytes, 1 for H and 0 for V, for C-level passes:
    ``accumulate`` over them gives h(1), ..., h(len(steps))."""
    return steps.encode().translate(_H_BYTES)


def h_prefix(steps: str) -> list[int]:
    """h(i), the number of H steps among the first i steps, for i = 0..len(steps).

    Raises ``ValueError`` unless steps is a ``str`` over H and V.
    """
    _check_word(steps, "HV", "steps must be a word")
    return list(accumulate(_h_bytes(steps), initial=0))


def is_nonintersecting(t: PathTriple) -> bool:
    """True iff the three paths share no vertex (endpoints included).

    The i-th vertices of the bottom, middle and top paths all lie on the
    anti-diagonal x + y = i + 2, at x = 2 + h_bot(i), 1 + h_mid(i) and
    h_top(i).  Each x moves by at most one per step, so the paths stay apart
    exactly when h_top(i) <= h_mid(i) <= h_bot(i) for every i.  The three
    prefix counts are running sums over the words' 0/1 bytes, compared
    pairwise by ``map(le, ...)``, with no Python-level step loop.
    """
    hm = list(accumulate(_h_bytes(t.middle)))
    return all(map(le, accumulate(_h_bytes(t.top)), hm)) and all(
        map(le, hm, accumulate(_h_bytes(t.bottom)))
    )


def expected_endpoints(n: int, k: int) -> tuple[Point, Point, Point]:
    """(bottom, middle, top) endpoints of a triple with n-1 steps and k horizontals."""
    _check_size("n", n, 1)
    _check_size("k", k, 0, n - 1)
    return ((k + 2, n - k - 1), (k + 1, n - k), (k, n - k + 1))


def tlp_parameters(t: PathTriple) -> tuple[int, int]:
    """Return (n, k) if t is a vertex-disjoint triple with k horizontals per path.

    Raises ValueError naming the violated requirement otherwise.
    """
    n = t.n
    k = t.bottom.count("H")
    if t.middle.count("H") != k or t.top.count("H") != k:
        raise ValueError(
            "paths must all have the same number of horizontal steps, got "
            f"{k}/{t.middle.count('H')}/{t.top.count('H')}"
        )
    if not is_nonintersecting(t):
        raise ValueError("paths must be pairwise vertex-disjoint")
    return n, k


def _step_words(h_count: int, ceiling: Sequence[int]) -> Iterator[str]:
    """Step words with ``h_count`` H steps whose prefix counts h(i) never exceed
    ``ceiling[i]``; the words have len(ceiling) - 1 steps.

    Yields in lexicographic order (H < V).  Prunes a branch as soon as an H
    step would pass the ceiling or the remaining H/V budget cannot fill the
    remaining steps.  The depth-first walk keeps an explicit stack of
    (prefix, H count) pairs instead of recursing once per step, so long
    words stay within the recursion limit; the V branch is pushed before
    the H branch so that H comes out first.
    """
    length = len(ceiling) - 1
    stack = [("", 0)]
    while stack:
        word, h = stack.pop()
        i = len(word)
        if i == length:
            yield word
            continue
        if length - i - 1 >= h_count - h:
            stack.append((word + "V", h))
        if h < h_count and h < ceiling[i + 1]:
            stack.append((word + "H", h + 1))


def _tlp_words(n: int, k: int) -> Iterator[tuple[str, str, str]]:
    """The (bottom, middle, top) step words of :func:`enumerate_tlp`, in its order."""
    expected_endpoints(n, k)  # argument validation
    m = n - 1
    for wb in _step_words(k, range(m + 1)):
        for wm in _step_words(k, h_prefix(wb)):
            for wt in _step_words(k, h_prefix(wm)):
                yield wb, wm, wt


def enumerate_tlp(n: int, k: int) -> Iterator[PathTriple]:
    """Every vertex-disjoint triple with n-1 steps and k horizontals per path.

    Each path is pruned against the prefix counts of the path below it (see
    :func:`is_nonintersecting`); the bottom path is free, as h(i) <= i.
    Ordered lexicographically by the concatenated step words (bottom, then
    middle, then top; H < V), which is the order of :class:`PathTriple`.
    """
    yield from starmap(PathTriple, _tlp_words(n, k))
