"""Two-coloured Motzkin words, weighted histories, and the Françon-Viennot maps.

A word is a string over U (up), D (down), B (blue level), R (red level).
A history pairs such a word with one weight per step; the weight of step i
may range over 1..h_i, where h_i is one plus the height before step i.
"""
from __future__ import annotations

import reprlib
from enum import Enum
from itertools import accumulate, product, starmap
from operator import le, sub
from typing import Iterable, Iterator, NamedTuple, Sequence

from .perm import Perm, _all_ints, _check_size, _check_word, _is_int, _shown, check_permutation

LETTERS = "UDBR"


class MalformedHistoryError(ValueError):
    """The word/weight data cannot be processed as a history."""


class _Steps(NamedTuple):
    word: str
    weights: tuple[int, ...]


class LaguerreHistory(_Steps):
    """A coloured Motzkin word with one positive weight per step: the pair
    (word, weights), weights a tuple, whose length is the word's.  ``_make``
    and ``_replace`` check their input as the constructor does."""

    __slots__ = ()

    def __new__(cls, word: str, weights: Iterable[int]) -> LaguerreHistory:
        _check_word(word, LETTERS, "word must be")
        try:
            entries = tuple(weights)
        except TypeError:
            raise MalformedHistoryError(
                f"weights must be a sequence of integers: {reprlib.repr(weights)}"
            ) from None
        if not _all_ints(entries):
            bad = next(i for i, v in enumerate(entries) if not _is_int(v))
            # a list or tuple is shown as given, any other iterable as its tuple
            shown = weights if isinstance(weights, (list, tuple)) else entries
            raise MalformedHistoryError(f"weights must be integers: {_shown(shown, bad)}")
        if len(word) != len(entries):
            raise MalformedHistoryError(f"word has {len(word)} steps but {len(entries)} weights")
        return tuple.__new__(cls, (word, entries))

    @classmethod
    def _make(cls, iterable: Iterable) -> LaguerreHistory:
        # the inherited _make, which _replace calls too, skips __new__
        return cls(*iterable)

    @classmethod
    def _trusted(cls, steps: tuple[str, tuple[int, ...]]) -> LaguerreHistory:
        """The history of a word over :data:`LETTERS` and a tuple of one int
        per letter, unchecked: for the pairs the library's cores build,
        which are well-formed by construction."""
        return tuple.__new__(cls, steps)

    def __len__(self) -> int:
        return len(self.word)


# translation tables that turn a word's bytes into 0/1 bytes marking its U
# steps, and its D steps; every other byte becomes 0
_U_BYTES = bytes(c == ord("U") for c in range(256))
_D_BYTES = bytes(c == ord("D") for c in range(256))


def height_profile(word: str) -> tuple[int, ...]:
    """h_i = 1 + (#U - #D among the steps before step i).

    Raises ``ValueError`` unless word is a ``str`` over :data:`LETTERS`.

    >>> height_profile("URUDDBUD")
    (1, 2, 2, 3, 2, 1, 1, 2)
    """
    _check_word(word, LETTERS, "word must be")
    return _heights(word)


def _heights(word: str) -> tuple[int, ...]:
    """:func:`height_profile` of a word over :data:`LETTERS`, unchecked."""
    steps = word.encode()  # one byte per letter
    moves = map(sub, steps.translate(_U_BYTES), steps.translate(_D_BYTES))
    return tuple(accumulate(moves, initial=1))[:-1]


def is_motzkin_word(word: str) -> bool:
    """True iff the path never dips below height 0 and returns to it.

    Raises ``ValueError`` unless word is a ``str`` over :data:`LETTERS`.
    """
    _check_word(word, LETTERS, "word must be")
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
    return _validity(h.word, h.weights)


# per letter: the height change, and whether the next weight may rise (else fall)
_STEP = {"U": (1, 1), "D": (-1, 0), "B": (0, 1), "R": (0, 0)}


def _validity(word: str, weights: Sequence[int]) -> Validity:
    """:func:`validate` of a word over :data:`LETTERS` and one integer weight per step.

    Every h_i >= mu_i >= 1 says the path stands at height >= 0 before each
    step, so the path is a closed Motzkin path iff it also ends at h = 1.
    The first weight is 1, so starting from ``last = 1`` passes step 1's
    increment rule.
    """
    h = last = rises = 1
    baxter_ok = True
    for c, m in zip(word, weights):
        if not 1 <= m <= h:
            return Validity(False, False)
        if baxter_ok and not rises - 1 <= m - last <= rises:
            baxter_ok = False
        last = m
        dh, rises = _STEP[c]
        h += dh
    if h != 1:
        return Validity(False, False)
    return Validity(True, baxter_ok)


def psi_fv(p: Perm) -> LaguerreHistory:
    """Map a permutation of [n] to a history of length n-1.

    Step i comes from the class of letter i (valley -> U, peak -> D, double
    descent -> B, double ascent -> R).  Weight i is one plus the number of
    descent pairs strictly left of i's position that straddle i in value,
    i.e. the nesting depth at which i sits.  No pair value equals i, so the
    straddling pairs are those with a bottom below i less those with a top
    below i, which one left-to-right sweep counts over the pairs passed so
    far (see :func:`_psi_fv`).

    Raises :class:`~baxlab.perm.InvalidPermutationError` unless p is a
    permutation of 1..len(p).

    >>> h = psi_fv((5, 1, 2, 4, 3, 9, 7, 8, 6))
    >>> h.word, h.weights
    ('URUDDBUD', (1, 2, 2, 2, 1, 1, 1, 2))
    """
    check_permutation(p)
    return LaguerreHistory._trusted(_psi_fv(tuple(p)))


# the length from which the Fenwick sweep beats the bitset sweep: on seeded
# Baxter permutations the bitset sweep took 0.8 times the tree's CPU time at
# 1,024 letters, 0.96 at 2,048, 1.07 at 2,560 and 1.4 at 4,096
_TREE_FROM = 2048


def _psi_fv(p: Perm) -> tuple[str, tuple[int, ...]]:
    """:func:`psi_fv` of a permutation tuple of 1..len(p), unchecked, as
    (word, weights).

    Short permutations go to :func:`_psi_fv_by_bits`, whose big-int shifts
    make it quadratic, and long ones to :func:`_psi_fv_by_tree`.
    """
    return _psi_fv_by_tree(p) if len(p) >= _TREE_FROM else _psi_fv_by_bits(p)


def _psi_fv_by_bits(p: Perm) -> tuple[str, tuple[int, ...]]:
    """:func:`_psi_fv` by one sweep that keeps the tops and the bottoms of the
    descent pairs passed as the bits of two ints.

    Every pair has one top and one bottom, so the pairs with a bottom below
    v less those with a top below v are those with a top above v less those
    with a bottom above v: two shifts and two bit counts.  The same sweep
    reads each letter's class from its neighbours, with pi_0 = pi_{n+1} = 0:
    the letter of v is "DRBU"[2 * (left > v) + (right > v)].
    """
    n = len(p)
    letter = [""] * (n + 1)  # letter[v] and weight[v] for the letter v
    weight = [0] * (n + 1)
    tops = bottoms = 0
    left = 0
    for v, right in zip(p, p[1:] + (0,)):
        weight[v] = 1 + (tops >> v).bit_count() - (bottoms >> v).bit_count()
        if left > v:
            letter[v] = "U" if right > v else "B"
            tops |= 1 << left
            bottoms |= 1 << v
        else:
            letter[v] = "R" if right > v else "D"
        left = v
    return "".join(letter[1:n]), tuple(weight[1:n])


def _psi_fv_by_tree(p: Perm) -> tuple[str, tuple[int, ...]]:
    """:func:`_psi_fv` by one sweep over a Fenwick tree of values, in
    O(n log n) (Fenwick, Softw. Pract. Exp. 24, 1994).

    Each descent pair passed adds +1 at its bottom and -1 at its top, so the
    weight of v is 1 plus the prefix sum below v.  The tree has a power of
    two above n as its root, so the update paths of a pair's bottom and top
    always meet; from there on the two updates cancel, and each stops
    there.  Letters are read as in :func:`_psi_fv_by_bits`.
    """
    n = len(p)
    letter = [""] * (n + 1)
    weight = [0] * (n + 1)
    tree = [0] * ((1 << n.bit_length()) + 1)  # tree[i] sums the values i - (i & -i) + 1..i
    left = 0
    for v, right in zip(p, p[1:] + (0,)):
        s = 1
        i = v - 1
        while i:
            s += tree[i]
            i &= i - 1
        weight[v] = s
        if left > v:
            letter[v] = "U" if right > v else "B"
            i, j = v, left
            while i != j:
                if i < j:
                    tree[i] += 1
                    i += i & -i
                else:
                    tree[j] -= 1
                    j += j & -j
        else:
            letter[v] = "R" if right > v else "D"
        left = v
    return "".join(letter[1:n]), tuple(weight[1:n])


class LetterClass(Enum):
    VALLEY = "valley"
    PEAK = "peak"
    DOUBLE_DESCENT = "double_descent"
    DOUBLE_ASCENT = "double_ascent"


_LETTER_CLASSES = {
    "U": LetterClass.VALLEY,
    "D": LetterClass.PEAK,
    "B": LetterClass.DOUBLE_DESCENT,
    "R": LetterClass.DOUBLE_ASCENT,
}


def classify_letters(p: Perm) -> tuple[LetterClass, ...]:
    """Class of each letter i in [n-1] from the neighbours of its position.

    Entry i-1 describes letter i; the largest letter n is excluded.  With
    pi_0 = pi_{n+1} = 0, letter i is a valley if both neighbours are larger,
    a peak if both are smaller (zero counts as smaller), and a double
    descent/ascent if it is passed downwards/upwards.  The rule lives in the
    sweep of :func:`psi_fv`, whose word spells the classes as U, D, B and R.

    Raises :class:`~baxlab.perm.InvalidPermutationError` unless p is a
    permutation of 1..len(p).
    """
    check_permutation(p)
    return tuple(map(_LETTER_CLASSES.__getitem__, _psi_fv(tuple(p))[0]))


def psi_fv_inverse(h: LaguerreHistory) -> Perm:
    """Rebuild the permutation from a history by placeholder substitution.

    Starting from a single placeholder, step i rewrites the mu_i-th
    placeholder (left to right) as:

        U  ->  <hole> i <hole>      R  ->  i <hole>
        D  ->  i                    B  ->  <hole> i

    and the one placeholder left at the end becomes n.  Each U adds a
    placeholder and each D removes one, so there are h_i of them before
    step i (:func:`height_profile`) and 1 + #U - #D at the end;
    :func:`_check_bounds` refuses a history that would run out or leave more.

    The permutation is kept as a linked list of its letters, headed by a
    virtual letter 0.  Placeholders are never adjacent, so each open one is
    named by the letter just before it; a step links letter i in after that
    letter and renames at most one placeholder, and one walk along the list
    reads the permutation.  The names are listed right to left, so the
    mu_i-th placeholder is entry h_i - mu_i of that list, and since weights
    stay small each insertion or deletion moves only its last few entries.
    """
    _check_bounds(h.word, h.weights)
    return _psi_fv_inverse(h.word, h.weights)


def _check_bounds(word: str, weights: Sequence[int]) -> None:
    """Raise :class:`MalformedHistoryError` unless 1 <= mu_i <= h_i at each
    step and the word closes, in C-level passes; only a history that fails
    them is walked step by step, to name its first failing step.  Its
    callers pass the word of a built history, whose letters were checked
    then, so they are not checked again."""
    heights = _heights(word)
    if min(weights, default=1) < 1 or not all(map(le, weights, heights)):
        for i, (mu, holes) in enumerate(zip(weights, heights), start=1):
            if not 1 <= mu <= holes:
                raise MalformedHistoryError(f"step {i}: weight {mu} but only {holes} placeholders")
    holes = 1 + word.count("U") - word.count("D")
    if holes != 1:
        raise MalformedHistoryError(f"{holes} placeholders remain at the end")


def _psi_fv_inverse(word: str, weights: Sequence[int]) -> Perm:
    """:func:`psi_fv_inverse` of a history whose weights never run out of
    placeholders and leave one at the end (as every history passing
    :func:`validate` does), unchecked."""
    n = len(word) + 1
    after = [0] * (n + 1)  # after[v]: the letter following v, 0 at the end
    holes = [0]  # the open placeholders right to left, each named by the letter before it
    i = 0  # the step
    for c, mu in zip(word, weights):
        i += 1
        j = len(holes) - mu  # the mu-th placeholder from the left
        v = holes[j]
        after[i] = after[v]
        after[v] = i
        if c == "U":
            holes.insert(j, i)
        elif c == "R":
            holes[j] = i
        elif c == "D":
            del holes[j]
    v = holes[0]
    after[n] = after[v]
    after[v] = n
    out = [0] * n
    v = 0
    for k in range(n):
        v = after[v]
        out[k] = v
    return tuple(out)


def _closed_words(length: int) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Each closed Motzkin word of the given length with its
    :func:`height_profile`, in lexicographic order of U < D < B < R.

    A depth-first walk that extends a prefix only while it can still close:
    with h one plus the path's height, as in the profile, a step that
    leaves k steps to go must end at 1 <= h <= k + 1.  The stack holds at
    most four prefixes per step.
    """
    stack = [("", (), 1)]  # (prefix, its heights, h after it), the next one last
    while stack:
        word, heights, h = stack.pop()
        left = length - len(word)
        if not left:
            yield word, heights
            continue
        for c in reversed(LETTERS):
            after = h + _STEP[c][0]
            if 1 <= after <= left:
                stack.append((word + c, (*heights, h), after))


def _histories(length: int) -> Iterator[tuple[str, tuple[int, ...]]]:
    """The (word, weights) pairs of :func:`enumerate_histories`, in its order."""
    _check_size("length", length)
    for word, heights in _closed_words(length):
        for weights in product(*[range(1, h + 1) for h in heights]):
            yield word, weights


def enumerate_histories(length: int) -> Iterator[LaguerreHistory]:
    """All histories of the given length with weights inside their bounds.

    Words come in lexicographic order of U < D < B < R, and the weights of
    each word in lexicographic order.  There are (length + 1)! histories,
    one per permutation of [length + 1] under :func:`psi_fv`.
    """
    yield from starmap(LaguerreHistory, _histories(length))
