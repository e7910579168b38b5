"""Monotone H/V lattice paths in the quarter plane and triples thereof."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

Point = tuple[int, int]

BOTTOM_START: Point = (2, 0)
MIDDLE_START: Point = (1, 1)
TOP_START: Point = (0, 2)


@dataclass(frozen=True)
class LatticePath:
    """A path of unit steps H = (+1, 0) and V = (0, +1) from ``start``."""

    start: Point
    steps: str

    def __post_init__(self) -> None:
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in self.start):
            raise ValueError(f"start coordinates must be integers: {self.start!r}")
        x, y = self.start
        if x < 0 or y < 0:
            raise ValueError(f"start {self.start!r} lies outside the quarter plane")
        if set(self.steps) - set("HV"):
            raise ValueError(f"steps must be a word over 'HV': {self.steps!r}")

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def end(self) -> Point:
        return (
            self.start[0] + self.steps.count("H"),
            self.start[1] + self.steps.count("V"),
        )

    def vertices(self) -> tuple[Point, ...]:
        """The len(steps) + 1 visited points, in travel order (for drawing)."""
        x, y = self.start
        out = [(x, y)]
        for c in self.steps:
            if c == "H":
                x += 1
            else:
                y += 1
            out.append((x, y))
        return tuple(out)


def encode_set(s: Iterable[int], length: int, start: Point) -> LatticePath:
    """The path from ``start`` whose i-th step is horizontal iff i is in s."""
    chosen = frozenset(s)
    bad = sorted(i for i in chosen if not 1 <= i <= length)
    if bad:
        raise ValueError(f"set elements {bad} fall outside 1..{length}")
    return LatticePath(start, "".join("H" if i in chosen else "V" for i in range(1, length + 1)))


def decode_path(path: LatticePath) -> frozenset[int]:
    """Positions of the horizontal steps; inverse of :func:`encode_set`."""
    return frozenset(i for i, c in enumerate(path.steps, start=1) if c == "H")


@dataclass(frozen=True)
class PathTriple:
    """Bottom/middle/top paths of equal length from (2,0), (1,1), (0,2)."""

    bottom: LatticePath
    middle: LatticePath
    top: LatticePath

    def __post_init__(self) -> None:
        if not (len(self.bottom) == len(self.middle) == len(self.top)):
            raise ValueError(
                "paths must have equal lengths, got "
                f"{len(self.bottom)}/{len(self.middle)}/{len(self.top)}"
            )
        for path, want, name in (
            (self.bottom, BOTTOM_START, "bottom"),
            (self.middle, MIDDLE_START, "middle"),
            (self.top, TOP_START, "top"),
        ):
            if path.start != want:
                raise ValueError(f"{name} path must start at {want}, got {path.start}")

    @property
    def n(self) -> int:
        """Size of the permutations this triple corresponds to."""
        return len(self.bottom) + 1

    def paths(self) -> tuple[LatticePath, LatticePath, LatticePath]:
        return (self.bottom, self.middle, self.top)


def h_prefix(steps: str) -> list[int]:
    """h(i), the number of H steps among the first i steps, for i = 0..len(steps)."""
    return list(accumulate((c == "H" for c in steps), initial=0))


def is_nonintersecting(t: PathTriple) -> bool:
    """True iff the three paths share no vertex (endpoints included).

    The i-th vertices of the bottom, middle and top paths all lie on the
    anti-diagonal x + y = i + 2, at x = 2 + h_bot(i), 1 + h_mid(i) and
    h_top(i).  Each x moves by at most one per step, so the paths stay apart
    exactly when h_top(i) <= h_mid(i) <= h_bot(i) for every i.
    """
    return all(
        ht <= hm <= hb
        for hb, hm, ht in zip(
            h_prefix(t.bottom.steps), h_prefix(t.middle.steps), h_prefix(t.top.steps)
        )
    )


def expected_endpoints(n: int, k: int) -> tuple[Point, Point, Point]:
    """(bottom, middle, top) endpoints of a triple with n-1 steps and k horizontals."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= k <= n - 1:
        raise ValueError(f"k must lie in 0..{n - 1}, got {k}")
    return ((k + 2, n - k - 1), (k + 1, n - k), (k, n - k + 1))


def tlp_parameters(t: PathTriple) -> tuple[int, int]:
    """Return (n, k) if t is a vertex-disjoint triple with k horizontals per path.

    Raises ValueError naming the violated requirement otherwise.
    """
    n = t.n
    k = t.bottom.steps.count("H")
    if t.middle.steps.count("H") != k or t.top.steps.count("H") != k:
        raise ValueError(
            "paths must all have the same number of horizontal steps, got "
            f"{k}/{t.middle.steps.count('H')}/{t.top.steps.count('H')}"
        )
    if not is_nonintersecting(t):
        raise ValueError("paths must be pairwise vertex-disjoint")
    return n, k


def _step_words(h_count: int, ceiling: Sequence[int]) -> Iterator[str]:
    """Step words with ``h_count`` H steps whose prefix counts h(i) never exceed
    ``ceiling[i]``; the words have len(ceiling) - 1 steps.

    Yields in lexicographic order (H < V).  Prunes a branch as soon as an H
    step would pass the ceiling or the remaining H/V budget cannot fill the
    remaining steps.
    """
    length = len(ceiling) - 1
    word: list[str] = []

    def extend(h: int) -> Iterator[str]:
        i = len(word)
        if i == length:
            yield "".join(word)
            return
        if h < h_count and h < ceiling[i + 1]:
            word.append("H")
            yield from extend(h + 1)
            word.pop()
        if length - i - 1 >= h_count - h:
            word.append("V")
            yield from extend(h)
            word.pop()

    yield from extend(0)


def enumerate_tlp(n: int, k: int) -> Iterator[PathTriple]:
    """Every vertex-disjoint triple with n-1 steps and k horizontals per path.

    Each path is pruned against the prefix counts of the path below it (see
    :func:`is_nonintersecting`); the bottom path is free, as h(i) <= i.
    Ordered lexicographically by the concatenated step words (bottom, then
    middle, then top; H < V), so the output is reproducible.
    """
    expected_endpoints(n, k)  # argument validation
    m = n - 1
    for wb in _step_words(k, range(m + 1)):
        bottom = LatticePath(BOTTOM_START, wb)
        for wm in _step_words(k, h_prefix(wb)):
            middle = LatticePath(MIDDLE_START, wm)
            for wt in _step_words(k, h_prefix(wm)):
                yield PathTriple(bottom, middle, LatticePath(TOP_START, wt))
