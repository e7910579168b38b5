"""Two-coloured Motzkin words, weighted histories, and the Françon-Viennot maps.

A word is a string over U (up), D (down), B (blue level), R (red level).
A history pairs such a word with one weight per step; the weight of step i
may range over 1..h_i, where h_i is one plus the height before step i.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .perm import LetterClass, Perm, classify_letters

LETTERS = "UDBR"

_CLASS_TO_LETTER = {
    LetterClass.VALLEY: "U",
    LetterClass.PEAK: "D",
    LetterClass.DOUBLE_DESCENT: "B",
    LetterClass.DOUBLE_ASCENT: "R",
}


class MalformedHistoryError(ValueError):
    """The word/weight data cannot be processed as a history."""


@dataclass(frozen=True)
class LaguerreHistory:
    """A coloured Motzkin word with one positive weight per step."""

    word: str
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if set(self.word) - set(LETTERS):
            raise ValueError(f"word must be over {LETTERS!r}: {self.word!r}")
        if not all(isinstance(w, int) and not isinstance(w, bool) for w in self.weights):
            raise MalformedHistoryError(f"weights must be integers: {self.weights!r}")
        object.__setattr__(self, "weights", tuple(self.weights))
        if len(self.word) != len(self.weights):
            raise MalformedHistoryError(
                f"word has {len(self.word)} steps but {len(self.weights)} weights"
            )

    def __len__(self) -> int:
        return len(self.word)


def height_profile(word: str) -> tuple[int, ...]:
    """h_i = 1 + (#U - #D among the steps before step i).

    >>> height_profile("URUDDBUD")
    (1, 2, 2, 3, 2, 1, 1, 2)
    """
    out = []
    h = 0
    for c in word:
        out.append(h + 1)
        if c == "U":
            h += 1
        elif c == "D":
            h -= 1
    return tuple(out)


def is_motzkin_word(word: str) -> bool:
    """True iff the path never dips below height 0 and returns to it."""
    h = 0
    for c in word:
        if c == "U":
            h += 1
        elif c == "D":
            h -= 1
        if h < 0:
            return False
    return h == 0


class Validity(NamedTuple):
    laguerre_ok: bool
    baxter_ok: bool


def validate(h: LaguerreHistory) -> Validity:
    """Check the weight bounds, and on top of them the increment rules.

    ``laguerre_ok``: the word is a closed Motzkin path and 1 <= mu_i <= h_i
    everywhere.  ``baxter_ok`` additionally requires each weight to move by
    at most one, upward only after U/B and downward only after D/R.
    """
    heights = height_profile(h.word)
    laguerre_ok = is_motzkin_word(h.word) and all(
        1 <= m <= hi for m, hi in zip(h.weights, heights)
    )
    baxter_ok = laguerre_ok
    for i in range(len(h.word) - 1):
        allowed = (
            (h.weights[i], h.weights[i] + 1)
            if h.word[i] in "UB"
            else (h.weights[i], h.weights[i] - 1)
        )
        if h.weights[i + 1] not in allowed:
            baxter_ok = False
            break
    return Validity(laguerre_ok, baxter_ok)


def psi_fv(p: Perm) -> LaguerreHistory:
    """Map a permutation of [n] to a history of length n-1.

    Step i comes from the class of letter i (valley -> U, peak -> D, double
    descent -> B, double ascent -> R).  Weight i is one plus the number of
    descent pairs strictly left of i's position that straddle i in value,
    i.e. the nesting depth at which i sits.

    >>> h = psi_fv((5, 1, 2, 4, 3, 9, 7, 8, 6))
    >>> h.word, h.weights
    ('URUDDBUD', (1, 2, 2, 2, 1, 1, 1, 2))
    """
    n = len(p)
    pos = {v: i for i, v in enumerate(p)}  # 0-based positions
    word = "".join(_CLASS_TO_LETTER[c] for c in classify_letters(p))
    weights = []
    for i in range(1, n):
        k = pos[i]
        weights.append(1 + sum(1 for j in range(1, k) if p[j] < i < p[j - 1]))
    return LaguerreHistory(word, tuple(weights))


def psi_fv_inverse(h: LaguerreHistory) -> Perm:
    """Rebuild the permutation from a history by placeholder substitution.

    Starting from a single placeholder, step i rewrites the mu_i-th
    placeholder (left to right) as:

        U  ->  <hole> i <hole>      R  ->  i <hole>
        D  ->  i                    B  ->  <hole> i

    and the one placeholder left at the end becomes n.  The number of
    placeholders after step i is 1 + #U - #D, so a history that passes
    :func:`validate` can never run out.
    """
    n = len(h) + 1
    word: list[int | None] = [None]
    for i, (c, mu) in enumerate(zip(h.word, h.weights), start=1):
        holes = [idx for idx, v in enumerate(word) if v is None]
        if not 1 <= mu <= len(holes):
            raise MalformedHistoryError(
                f"step {i}: weight {mu} but only {len(holes)} placeholders"
            )
        at = holes[mu - 1]
        if c == "U":
            word[at : at + 1] = [None, i, None]
        elif c == "R":
            word[at : at + 1] = [i, None]
        elif c == "D":
            word[at : at + 1] = [i]
        else:
            word[at : at + 1] = [None, i]
    holes = [idx for idx, v in enumerate(word) if v is None]
    if len(holes) != 1:
        raise MalformedHistoryError(f"{len(holes)} placeholders remain at the end")
    word[holes[0]] = n
    return tuple(word)  # type: ignore[arg-type]


def _motzkin_words(length: int) -> Iterator[str]:
    """All closed coloured Motzkin words, letters tried in the order U, D, B, R."""
    acc: list[str] = []

    def extend(height: int) -> Iterator[str]:
        left = length - len(acc)
        if left == 0:
            yield "".join(acc)
            return
        for c in LETTERS:
            if c == "U" and height + 1 > left - 1:
                continue  # could not come back down in time
            if c == "D" and height == 0:
                continue
            if c in "BR" and height > left - 1:
                continue
            acc.append(c)
            yield from extend(height + (c == "U") - (c == "D"))
            acc.pop()

    yield from extend(0)


def enumerate_histories(length: int, baxter_only: bool = False) -> Iterator[LaguerreHistory]:
    """All histories of the given length with weights inside their bounds.

    With ``baxter_only`` the weight increments are restricted on the fly, so
    only histories whose :func:`validate` says ``baxter_ok`` appear.
    """
    for word in _motzkin_words(length):
        heights = height_profile(word)
        acc: list[int] = []

        def extend(i: int) -> Iterator[tuple[int, ...]]:
            if i == length:
                yield tuple(acc)
                return
            lo, hi = 1, heights[i]
            if baxter_only and i > 0:
                prev = acc[i - 1]
                if word[i - 1] in "UB":
                    lo, hi = max(lo, prev), min(hi, prev + 1)
                else:
                    lo, hi = max(lo, prev - 1), min(hi, prev)
            for m in range(lo, hi + 1):
                acc.append(m)
                yield from extend(i + 1)
                acc.pop()

        for weights in extend(0):
            yield LaguerreHistory(word, weights)
