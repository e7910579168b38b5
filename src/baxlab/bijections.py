"""The maps between Baxter permutations, path triples, and histories.

Three statistic-encoding correspondences are provided, together with their
inverse algorithms:

* ``gamma``        bottom/middle/top encode IDB / DES / (IDT - 1)
* ``gamma_prime``  bottom/middle/top encode DB / IDES / (DT - 1)
* ``psi``          bottom/middle/top encode DB / IDES / (DT u {p_n}) - {n},
                   obtained by composing ``psi_fv`` with the path builder
                   ``phi``.

``gamma_prime`` and ``psi`` always agree on the bottom and middle paths; the
inverse of ``gamma_prime`` works by rewriting the top path into ``psi`` form
and delegating to ``psi_inverse``.
"""
from __future__ import annotations

from .laguerre import LaguerreHistory, MalformedHistoryError, psi_fv, psi_fv_inverse, validate
from .paths import PathTriple, encode_set, h_prefix, tlp_parameters
from .perm import Perm, check_permutation, inverse, is_baxter, stat_profile


class NotBaxterError(ValueError):
    """The permutation contains 2-41-3 or 3-14-2."""


class NotInImageError(ValueError):
    """The triple does not come from any Baxter permutation."""


class MalformedMiddleError(ValueError):
    """The weights do not chain into a unit-step middle path."""


def gamma(p: Perm, *, checked: bool = True) -> PathTriple:
    """Triple encoding (IDB, DES, IDT - 1); defined on Baxter permutations.

    With ``checked`` disabled the paths are built for any permutation, but
    they may then intersect or carry unequal step counts.
    """
    if checked and not is_baxter(p):
        raise NotBaxterError(f"{p!r} contains 2-41-3 or 3-14-2")
    prof = stat_profile(p)
    m = len(p) - 1
    return PathTriple(
        encode_set(prof.idb_set, m),
        encode_set(prof.des_set, m),
        encode_set(prof.idt_mod_set, m),
    )


def gamma_prime(p: Perm, *, checked: bool = True) -> PathTriple:
    """Triple encoding (DB, IDES, DT - 1); equals ``gamma`` of the inverse."""
    if checked:
        check_permutation(p)  # before inverse() indexes by value
    return gamma(inverse(p), checked=checked)


def phi(h: LaguerreHistory) -> PathTriple:
    """Build the path triple determined by a history.

    Bottom step i is horizontal iff step i is U or B, top step i iff it is
    D or B.  The middle path is pinned by its H-prefix counts: before step i
    it has taken 1 + h_bot - mu_i horizontal steps, where h_bot counts the
    bottom's (so its step i starts mu_i diagonal units up-left of the
    bottom's), and at the end h_mid = h_bot.  If consecutive counts do not
    differ by 0 or 1 the weights violate the increment rules and a
    :class:`MalformedMiddleError` is raised.  The weight bounds
    1 <= mu_i <= h_i keep h_top <= h_mid <= h_bot, so the triple is disjoint.
    """
    val = validate(h)
    if not val.laguerre_ok:
        raise MalformedHistoryError("weights leave their bounds or word does not close")
    bottom = "".join("H" if c in "UB" else "V" for c in h.word)
    top = "".join("H" if c in "DB" else "V" for c in h.word)
    hb = h_prefix(bottom)
    hm = [1 + b - w for b, w in zip(hb, h.weights)] + [hb[-1]]
    middle = []
    for i in range(len(h)):
        d = hm[i + 1] - hm[i]
        if d not in (0, 1):
            raise MalformedMiddleError(
                f"middle step {i + 1} would jump by ({d}, {1 - d}); "
                "weights do not satisfy the increment rules"
            )
        middle.append("VH"[d])
    return PathTriple(bottom, "".join(middle), top)


def phi_inverse(t: PathTriple) -> LaguerreHistory:
    """Recover the history from a triple.

    The word is read off the (top, bottom) step pairs; the weight of step i
    is 1 + h_bot(i) - h_mid(i), the diagonal offset of the middle's i-th
    vertex from the bottom's.
    """
    tlp_parameters(t)
    return _phi_inverse(t)


def _phi_inverse(t: PathTriple) -> LaguerreHistory:
    """:func:`phi_inverse` of a triple that passes :func:`tlp_parameters`."""
    pair_to_letter = {
        ("V", "H"): "U",
        ("H", "V"): "D",
        ("V", "V"): "R",
        ("H", "H"): "B",
    }
    word = "".join(pair_to_letter[(wt, wb)] for wt, wb in zip(t.top, t.bottom))
    hb, hm = h_prefix(t.bottom), h_prefix(t.middle)
    weights = tuple(1 + b - mid for b, mid in zip(hb[:-1], hm))
    h = LaguerreHistory(word, weights)
    val = validate(h)
    if not val.baxter_ok:
        raise NotInImageError("recovered weights violate the history rules")
    return h


def psi(p: Perm) -> PathTriple:
    """Triple encoding (DB, IDES, (DT u {p_n}) - {n}); Baxter input only."""
    if not is_baxter(p):
        raise NotBaxterError(f"{p!r} contains 2-41-3 or 3-14-2")
    return phi(psi_fv(p))


def psi_inverse(t: PathTriple) -> Perm:
    """Inverse of :func:`psi`: history recovery followed by placeholder rebuild."""
    return psi_fv_inverse(phi_inverse(t))


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
    holds: the rewritten triple passes :func:`tlp_parameters` and is not
    checked again.
    """
    tlp_parameters(t)
    word = ("V" + t.top)[:-1]
    if t.top.endswith("H"):
        gap = [a - b for a, b in zip(h_prefix(t.middle), h_prefix(word))]
        last_zero = len(gap) - 1 - gap[::-1].index(0)
        word = word[:last_zero] + "H" + word[last_zero + 1 :]
    return psi_fv_inverse(_phi_inverse(PathTriple(t.bottom, t.middle, word)))


def gamma_inverse(t: PathTriple) -> Perm:
    """Invert ``gamma`` via ``gamma_prime`` and the closure under inversion."""
    return inverse(gamma_prime_inverse(t))
