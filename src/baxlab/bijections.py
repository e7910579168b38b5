"""The maps between Baxter permutations, path triples, and histories.

Three statistic-encoding correspondences are provided, together with their
inverse algorithms:

* ``gamma``        bottom/middle/top encode IDB / DES / (IDT - 1)
* ``gamma_prime``  bottom/middle/top encode DB / IDES / (DT - 1)
* ``psi``          bottom/middle/top encode DB / IDES / (DT u {p_n}) - {n}

``gamma_prime`` and ``psi`` always agree on the bottom and middle paths, so
``psi`` reads its triple off the same descent pass as ``gamma_prime`` and
rewrites the top word; that ``psi`` equals ``psi_fv`` followed by the path
builder ``phi`` is the paper's lemma, which ``verify`` checks.  The inverse
of ``gamma_prime`` rewrites the top path the other way, into ``psi`` form,
and inverts that as ``psi_inverse`` does.

Each public map checks its input once and then runs private cores over
plain words and weight tuples, which trust their input.  What a core
returns is well-formed by construction, so the maps wrap it through
``PathTriple._trusted`` or ``LaguerreHistory._trusted`` without checking it
again; ``tests/test_core_oracles.py`` (``test_maps_wrap_well_formed_output_*``)
pins that every result equals what the validating constructor builds.
"""
from __future__ import annotations

import reprlib
from itertools import accumulate
from operator import sub

from .laguerre import LaguerreHistory, _check_bounds, _psi_fv_inverse
from .paths import PathTriple, _h_bytes, tlp_parameters
from .perm import Perm, _inverse, _is_baxter, inverse


class NotBaxterError(ValueError):
    """The permutation contains 2-41-3 or 3-14-2."""


class MalformedMiddleError(ValueError):
    """The weights do not chain into a unit-step middle path."""


def _check_baxter(p: Perm) -> None:
    """Raise :class:`NotBaxterError` unless the permutation p is Baxter; the
    message shows p as ``reprlib.repr`` does, its first six entries."""
    if not _is_baxter(p):
        raise NotBaxterError(f"{reprlib.repr(p)} contains 2-41-3 or 3-14-2")


def _gamma_words(p: Perm, q: Perm) -> tuple[str, str, str]:
    """The IDB, DES and IDT - 1 step words of p, given q = inverse(p).

    One pass over each: a descent q_i > q_{i+1} of q puts an H at bottom
    step q_{i+1} and at top step q_i - 1, and a descent of p at position i
    puts one at middle step i.
    """
    bottom = ["V"] * (len(p) - 1)
    top = bottom.copy()
    for a, b in zip(q, q[1:]):
        if a > b:
            bottom[b - 1] = "H"
            top[a - 2] = "H"
    middle = "".join(["H" if a > b else "V" for a, b in zip(p, p[1:])])
    return "".join(bottom), middle, "".join(top)


def gamma(p: Perm, *, checked: bool = True) -> PathTriple:
    """Triple encoding (IDB, DES, IDT - 1); defined on Baxter permutations.

    p must be a permutation either way.  With ``checked`` disabled the
    Baxter test is skipped and the paths are built for any permutation, but
    they may then intersect or carry unequal step counts.
    """
    q = inverse(p)  # checks p
    if checked:
        _check_baxter(p)
    return PathTriple._trusted(_gamma_words(p, q))


def gamma_prime(p: Perm, *, checked: bool = True) -> PathTriple:
    """Triple encoding (DB, IDES, DT - 1); equals ``gamma`` of the inverse."""
    q = inverse(p)  # checks p
    if checked:
        _check_baxter(p)  # p is Baxter iff its inverse is
    return PathTriple._trusted(_gamma_words(q, p))


def phi(h: LaguerreHistory) -> PathTriple:
    """Build the path triple determined by a history.

    Bottom step i is horizontal iff step i is U or B, top step i iff it is
    D or B.  The middle path is pinned by its H-prefix counts: before step i
    it has taken 1 + h_bot - mu_i horizontal steps, where h_bot counts the
    bottom's (so its step i starts mu_i diagonal units up-left of the
    bottom's), and at the end h_mid = h_bot.  If consecutive counts do not
    differ by 0 or 1 the weights violate the increment rules and a
    :class:`MalformedMiddleError` is raised.  The weight bounds
    1 <= mu_i <= h_i, checked as ``psi_fv_inverse`` checks them, keep
    h_top <= h_mid <= h_bot, so the triple is disjoint.
    """
    _check_bounds(h.word, h.weights)
    return PathTriple._trusted(_phi(h.word, h.weights))


_BOTTOM_STEPS = str.maketrans("UBDR", "HHVV")
_TOP_STEPS = str.maketrans("DBUR", "HHVV")


def _phi(word: str, weights: tuple[int, ...]) -> tuple[str, str, str]:
    """The (bottom, middle, top) words of :func:`phi` of a history whose
    weights keep their bounds, unchecked.

    With w_L = 1 closing the weights of a word of length L, middle step i
    moves h_mid by [bottom step i is H] - (w_{i+1} - w_i).
    """
    bottom = word.translate(_BOTTOM_STEPS)
    steps = [
        (b == "H") + w - w_next for b, w, w_next in zip(bottom, weights, (*weights[1:], 1))
    ]
    if not {0, 1}.issuperset(steps):
        i, d = next((i, d) for i, d in enumerate(steps) if d not in (0, 1))
        raise MalformedMiddleError(
            f"middle step {i + 1} would jump by ({d}, {1 - d}); "
            "weights do not satisfy the increment rules"
        )
    return bottom, "".join(["VH"[d] for d in steps]), word.translate(_TOP_STEPS)


def phi_inverse(t: PathTriple) -> LaguerreHistory:
    """Recover the history from a triple.

    The word is read off the (top, bottom) step pairs; the weight of step i
    is 1 + h_bot(i) - h_mid(i), the diagonal offset of the middle's i-th
    vertex from the bottom's.
    """
    tlp_parameters(t)
    return LaguerreHistory._trusted(_phi_inverse(t.bottom, t.middle, t.top))


# the letter of code 2 * [top step is H] + [bottom step is H]
_CODE_TO_LETTER = bytes.maketrans(b"\0\1\2\3", b"RUDB")


def _phi_inverse(bottom: str, middle: str, top: str) -> tuple[str, tuple[int, ...]]:
    """:func:`phi_inverse` of the words of a triple that passes
    :func:`tlp_parameters`, as (word, weights).

    The result always satisfies the history rules, so nothing is checked.
    Each U/B step lifts the bottom's H count and each D/B step the top's, so
    the height before step i + 1 is h = 1 + h_bot(i) - h_top(i), and since
    h_top(i) <= h_mid(i) <= h_bot(i) its weight 1 + h_bot(i) - h_mid(i) lies
    in [1, h]; the equal end counts close the word.  From step i to step
    i + 1 the weight moves by [bottom step i is H] - [middle step i is H]:
    0 or +1 after U/B, whose bottom step is H, and 0 or -1 after D/R, whose
    bottom step is V.  The weights accumulate these moves from 1 and drop
    the move past the last step.

    Both run over the words as 0/1 bytes.  Read as big-endian integers,
    2 * top + bottom adds each step's two bits within its own byte, as the
    byte sums stay below 4, so its bytes are the letter codes; the moves are
    the bytewise differences of bottom and middle.
    """
    n = len(bottom)
    b = _h_bytes(bottom)
    codes = 2 * int.from_bytes(_h_bytes(top), "big") + int.from_bytes(b, "big")
    word = codes.to_bytes(n, "big").translate(_CODE_TO_LETTER).decode()
    moves = map(sub, b, _h_bytes(middle))
    return word, tuple(accumulate(moves, initial=1))[:n]


def psi(p: Perm) -> PathTriple:
    """Triple encoding (DB, IDES, (DT u {p_n}) - {n}); Baxter input only.

    The words are read off the descent sets; the lemma that they equal
    ``phi`` of ``psi_fv(p)`` is what ``verify --suite lemma-encodings`` checks.
    """
    q = inverse(p)  # checks p
    _check_baxter(p)
    return PathTriple._trusted(_psi_words(p, q))


def _psi_words(p: Perm, q: Perm) -> tuple[str, str, str]:
    """The DB, IDES and (DT u {p_n}) - {n} step words of p, given q = inverse(p).

    The bottom and middle words are those of ``gamma_prime``.  Its top word
    puts an H at step a - 1 for each descent top a; delayed by one step it
    marks DT - {n}, and p_n, never a descent top, is added unless it is n.
    This is the rewrite of :func:`gamma_prime_inverse` run forwards.
    """
    bottom, middle, top = _gamma_words(q, p)
    top = ("V" + top)[:-1]
    last = p[-1]
    if last != len(p):
        top = top[: last - 1] + "H" + top[last:]
    return bottom, middle, top


def psi_inverse(t: PathTriple) -> Perm:
    """Inverse of :func:`psi`: history recovery followed by placeholder rebuild."""
    tlp_parameters(t)
    return _psi_fv_inverse(*_phi_inverse(t.bottom, t.middle, t.top))


def gamma_prime_inverse(t: PathTriple) -> Perm:
    """Invert ``gamma_prime`` by rewriting the top path into ``psi`` form.

    The top path of ``gamma_prime`` encodes the descent tops lowered by one;
    the top path of ``psi`` encodes (DT u {p_n}) - {n}.  Shifting the encoded
    set up by one and dropping n gives s, whose word is the top word delayed
    by one step.  Two cases:

    * last top step vertical: n is not a descent top, so p_n = n and s is
      already the ``psi`` top.
    * last top step horizontal: p_n != n is the unknown member j to add to s.
      The rebuilt top must avoid the middle path (h_top <= h_mid throughout)
      and start its j-th step one diagonal unit from the middle's (equal
      counts before step j).  With gap(i) = h_mid(i) - h_s(i), exactly one j
      qualifies: one past the last zero of gap.  It always exists, since
      gap >= 0 (h_s(i) = h_top(i - 1) <= h_mid(i)) and gap ends at 1.

    The rewritten top keeps the k H steps of t's top, and h_s rises by one
    only past the last zero of gap, where gap >= 1, so h_s <= h_mid still
    holds: the rewritten words would pass :func:`tlp_parameters` as a
    triple, so they go to the core without being built or checked again.
    """
    tlp_parameters(t)
    return _gamma_prime_inverse(t.bottom, t.middle, t.top)


def _gamma_prime_inverse(bottom: str, middle: str, top: str) -> Perm:
    """:func:`gamma_prime_inverse` of the words of a triple that passes
    :func:`tlp_parameters`, unchecked."""
    word = ("V" + top)[:-1]
    if top.endswith("H"):
        gap = list(accumulate(map(sub, _h_bytes(middle), _h_bytes(word)), initial=0))
        last_zero = len(gap) - 1 - gap[::-1].index(0)
        word = word[:last_zero] + "H" + word[last_zero + 1 :]
    return _psi_fv_inverse(*_phi_inverse(bottom, middle, word))


def gamma_inverse(t: PathTriple) -> Perm:
    """Invert ``gamma`` via ``gamma_prime`` and the closure under inversion."""
    return _inverse(gamma_prime_inverse(t))
