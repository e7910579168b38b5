"""Permutations in one-line notation and their descent-based statistics.

A permutation of [n] = {1, ..., n} is a tuple of the values pi_1, ..., pi_n.
Positions and values are both 1-based in every public set.  This is the
bottom layer of the package: it imports no other baxlab module, and holds
the rules for integers, sizes and words that every other module applies.
"""
from __future__ import annotations

import itertools
import reprlib
from typing import Iterable, Iterator, NamedTuple, Sequence

Perm = tuple[int, ...]


class InvalidPermutationError(ValueError):
    """The given word is not a permutation of {1, ..., n}."""


def as_permutation(word: Sequence[int]) -> Perm:
    """Validate a sequence and return it as a permutation tuple.

    >>> as_permutation([2, 1, 3])
    (2, 1, 3)
    """
    p = tuple(word) if isinstance(word, Sequence) else word
    check_permutation(p)
    return p


def check_permutation(p: Perm) -> None:
    """Raise unless p is a non-empty sequence of exactly the integers 1..len(p).

    A set, which has no order to read, an iterator and an ``int`` are
    refused as not sequences.  Every entry must pass :func:`_is_int`:
    ``True`` and ``1.0`` compare equal to 1 but are not permutation entries.
    n distinct integers between 1 and n are 1..n, so no sort is needed.
    The messages show p as ``reprlib.repr`` does, its first six entries, and
    name the first bad entry when that cuts p short.
    """
    # tuple and list first: the same test, without the ABC's slower lookup
    if not isinstance(p, (tuple, list, Sequence)):
        raise InvalidPermutationError(f"a permutation must be a sequence: {reprlib.repr(p)}")
    if not p:
        raise InvalidPermutationError("a permutation must have length >= 1")
    if not _all_ints(p):
        bad = next(i for i, v in enumerate(p) if not _is_int(v))
        raise InvalidPermutationError(f"permutation entries must be integers: {_shown(p, bad)}")
    n = len(p)
    if max(p) != n or min(p) != 1 or len(set(p)) != n:
        seen: set[int] = set()
        for bad, v in enumerate(p):  # stop at the first entry out of range or repeated
            if not 1 <= v <= n or v in seen:
                break
            seen.add(v)
        raise InvalidPermutationError(f"not a permutation of 1..{n}: {_shown(p, bad)}")


def _shown(p: Sequence[object], bad: int) -> str:
    """p (a permutation, a word or a weight list) for a message: its
    ``reprlib.repr``, followed by the position and value of its bad entry
    p[bad] if that repr is cut."""
    shown = reprlib.repr(p)
    if "..." in shown:
        shown += f", entry {bad + 1} is {reprlib.repr(p[bad])}"
    return shown


def _check_word(word: object, letters: str, what: str) -> None:
    """The package's one word rule: raise ``ValueError`` unless word is a
    ``str`` over ``letters``.  The message reads ``{what} over {letters!r}:``
    and then the word, shown through :func:`_shown` so that a cut word names
    its first bad letter; anything but a ``str`` is shown as ``reprlib.repr``
    shows it."""
    if not isinstance(word, str):
        raise ValueError(f"{what} over {letters!r}: {reprlib.repr(word)}")
    if sum(map(word.count, letters)) != len(word):
        bad = next(i for i, c in enumerate(word) if c not in letters)
        raise ValueError(f"{what} over {letters!r}: {_shown(word, bad)}")


def _is_int(v: object) -> bool:
    """The package's one integer rule: an ``int`` proper.  ``True``, ``1.0``
    and instances of ``int`` subclasses are refused wherever it applies."""
    return type(v) is int


def _all_ints(xs: Iterable[object]) -> bool:
    """True iff every entry passes :func:`_is_int`, in one C-level pass."""
    return {int}.issuperset(map(type, xs))


def _check_size(name: str, v: object, least: int | None = 0, most: int | None = None) -> None:
    """The package's one size rule: raise ``ValueError`` unless v passes
    :func:`_is_int` and lies in least..most.  ``least=None`` applies the
    integer rule alone; ``most=None`` leaves v unbounded above."""
    if not _is_int(v):
        raise ValueError(f"{name} must be an integer, got {reprlib.repr(v)}")
    if most is not None and not least <= v <= most:
        raise ValueError(f"{name} must lie in {least}..{most}, got {v}")
    if least is not None and v < least:
        raise ValueError(f"{name} must be >= {least}")


def all_permutations(n: int) -> Iterator[Perm]:
    """All of S_n in lexicographic order; S_0 holds the empty word."""
    _check_size("n", n)
    return itertools.permutations(range(1, n + 1))


def inverse(p: Perm) -> Perm:
    """The group inverse: the word q with q[p_i] = i.

    Raises :class:`InvalidPermutationError` unless p is a permutation of
    1..len(p).

    >>> inverse((2, 3, 5, 4, 1, 9, 7, 8, 6))
    (5, 1, 2, 4, 3, 9, 7, 8, 6)
    """
    check_permutation(p)
    return _inverse(p)


def _inverse(p: Perm) -> Perm:
    """:func:`inverse` of a permutation of 1..len(p), unchecked."""
    q = [0] * len(p)
    for i, v in enumerate(p, start=1):
        q[v - 1] = i
    return tuple(q)


class StatProfile(NamedTuple):
    """Descent statistics of a permutation and of its inverse.

    ``dt_mod_set`` holds the descent tops each lowered by one, so it lives in
    [n-1] like the descent positions do.  ``dt_hat_set`` is the variant
    (DT u {p_n}) \\ {n}, which also lives in [n-1]; it has the same size as
    ``dt_set`` because n is a descent top exactly when p_n != n.
    """

    des_set: frozenset[int]
    dt_set: frozenset[int]
    db_set: frozenset[int]
    dt_mod_set: frozenset[int]
    dt_hat_set: frozenset[int]
    ides_set: frozenset[int]
    idt_set: frozenset[int]
    idb_set: frozenset[int]
    idt_mod_set: frozenset[int]
    des: int
    maj: int
    imaj_b: int
    imaj_t: int


def _descents(p: Perm) -> tuple[list[int], list[int], list[int]]:
    """Positions, tops and bottoms of the descents of p, in one pass."""
    positions, tops, bottoms = [], [], []
    for i, (a, b) in enumerate(itertools.pairwise(p), start=1):
        if a > b:
            positions.append(i)
            tops.append(a)
            bottoms.append(b)
    return positions, tops, bottoms


def stat_profile(p: Perm) -> StatProfile:
    """All descent sets of p and of its inverse, plus the three major indices.

    Raises :class:`InvalidPermutationError` unless p is a permutation of
    1..len(p).
    """
    ides, idt, idb = _descents(inverse(p))  # inverse checks p
    des, dt, db = _descents(p)
    dt_set = frozenset(dt)
    return StatProfile(
        des_set=frozenset(des),
        dt_set=dt_set,
        db_set=frozenset(db),
        dt_mod_set=frozenset([v - 1 for v in dt]),
        dt_hat_set=(dt_set | {p[-1]}) - {len(p)},
        ides_set=frozenset(ides),
        idt_set=frozenset(idt),
        idb_set=frozenset(idb),
        idt_mod_set=frozenset([v - 1 for v in idt]),
        des=len(des),
        maj=sum(des),
        imaj_b=sum(idb),
        imaj_t=sum(idt) - len(idt),
    )


def is_baxter(p: Perm) -> bool:
    """Whether p avoids the vincular patterns 2-41-3 and 3-14-2.

    Both patterns pin "41" (resp. "14") to an adjacent pair (a, b) and ask
    for an earlier letter x and a later letter y, both strictly between b and
    a, with x < y (resp. y < x).  It suffices to take x as the earlier letter
    in the window closest to b.  One left-to-right sweep keeps the set of
    earlier letters as the bits of one int: the window is that int shifted
    and masked, x is its lowest (resp. highest) set bit, and since p holds
    exactly the values 1..n, a later y in the window (x, a) exists iff that
    window holds more values than earlier letters, which is a bit count, not
    a scan.  Each step is a constant number of big-int operations on at most
    n bits.

    Raises :class:`InvalidPermutationError` unless p is a permutation of
    1..len(p).

    >>> is_baxter((2, 4, 1, 3))
    False
    >>> is_baxter((2, 3, 5, 4, 1, 9, 7, 8, 6))
    True
    """
    check_permutation(p)
    return _is_baxter(p)


def _is_baxter(p: Perm) -> bool:
    """:func:`is_baxter` of a permutation of 1..len(p), unchecked."""
    seen = 0  # bit v is set iff the letter v came before the current pair
    for a, b in itertools.pairwise(p):
        if a > b:
            # 2-41-3: bit j of w says whether b + 1 + j came earlier, so
            # x = b + (w & -w).bit_length() is the smallest of the
            # cnt = w.bit_count() earlier letters in (b, a); the other cnt - 1
            # are all that (x, a) holds of its a - x - 1 values before the
            # pair, so a later y exists iff a - x > cnt
            w = (seen >> (b + 1)) & ((1 << (a - b - 1)) - 1)
            if w and a - b - (w & -w).bit_length() > w.bit_count():
                return False
        else:
            # 3-14-2: bit j of w says whether a + 1 + j came earlier, so
            # x = a + w.bit_length() is the largest of the cnt = w.bit_count()
            # earlier letters in (a, b); the other cnt - 1 are all that (a, x)
            # holds of its x - a - 1 values before the pair, so a later y
            # exists iff x - a > cnt
            w = (seen >> (a + 1)) & ((1 << (b - a - 1)) - 1)
            if w and w.bit_length() > w.bit_count():
                return False
        seen |= 1 << a
    return True


def insertion_slots(p: Perm) -> tuple[int, ...]:
    """1-based positions where the next maximum may be inserted.

    Allowed slots sit immediately before a left-to-right maximum or
    immediately after a right-to-left maximum.  The letter n is the last
    left-to-right maximum and the first right-to-left one, so a forward scan
    up to n and a backward scan down to n give the two families, each in
    order and the first wholly left of the second.

    Raises :class:`InvalidPermutationError` unless p is a permutation of
    1..len(p).
    """
    check_permutation(p)
    n = len(p)
    slots = []
    top = 0
    for j, v in enumerate(p, start=1):
        if v > top:
            slots.append(j)
            if v == n:
                break
            top = v
    after = []
    top = 0
    for i in range(n, 0, -1):
        v = p[i - 1]
        if v > top:
            after.append(i + 1)
            if v == n:
                break
            top = v
    slots += reversed(after)
    return tuple(slots)


def iter_baxter(n: int) -> Iterator[Perm]:
    """All Baxter permutations of [n], without filtering, one at a time.

    Each permutation of [n-1], in this same order, is followed by its
    children: the new maximum n inserted into each allowed slot, left to
    right.  The order is thus lexicographic in the sequence of slot choices,
    and only one permutation per level is held at a time.

    >>> list(iter_baxter(3))[:3]
    [(3, 2, 1), (2, 3, 1), (2, 1, 3)]
    """
    _check_size("n", n, 1)
    if n == 1:
        yield (1,)
        return
    for p in iter_baxter(n - 1):
        for pos in insertion_slots(p):
            yield p[: pos - 1] + (n,) + p[pos - 1 :]


def generate_baxter(n: int) -> list[Perm]:
    """The list of :func:`iter_baxter`.

    >>> generate_baxter(3)[:3]
    [(3, 2, 1), (2, 3, 1), (2, 1, 3)]
    """
    return list(iter_baxter(n))


class ShapeFlags(NamedTuple):
    alternating: bool
    reverse_alternating: bool
    genocchi: bool


def shape_flags(p: Perm) -> ShapeFlags:
    """Alternating / reverse-alternating / Genocchi tests.

    Alternating means the descents sit exactly at the even positions of
    [n-1], reverse alternating at the odd ones.  Genocchi uses the pointwise
    rule: every step descends exactly when its left letter is even.  For
    n = 1 there is nothing to compare, so all three flags are vacuously true.

    Raises :class:`InvalidPermutationError` unless p is a permutation of
    1..len(p).
    """
    check_permutation(p)
    return _shape_flags(p)


def _shape_flags(p: Perm) -> ShapeFlags:
    """:func:`shape_flags` of a permutation of 1..len(p), unchecked."""
    down = [a > b for a, b in itertools.pairwise(p)]  # entry i-1: is i a descent?
    odd, even = down[::2], down[1::2]
    return ShapeFlags(
        not any(odd) and all(even),
        all(odd) and not any(even),
        down == [a % 2 == 0 for a in p[:-1]],
    )
