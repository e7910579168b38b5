"""Verification suites over every implemented claim.

Each suite yields a family of exhaustive checks up to a size bound ``n``,
and :func:`run_suite` runs them into a :class:`Report`.  Reports are
deterministic: the same suite at the same bound produces the same checks in
the same order with the same outcome, regardless of the worker count.
"""
from __future__ import annotations

import functools
import json
import os
import time
from contextlib import nullcontext
from math import comb, factorial, prod
from operator import le
from typing import Callable, Iterable, Iterator, NamedTuple

from .bijections import _gamma_prime_inverse, _gamma_words, _phi, _phi_inverse
from .jsonio import perm_to_obj, triple_to_obj
from .laguerre import _closed_words, _histories, _psi_fv, _psi_fv_inverse, _validity
from .paths import _step_words, _tlp_words, decode_path
from .perm import (
    Perm,
    _all_ints,
    _check_size,
    _descents,
    _inverse,
    _is_baxter,
    _shape_flags,
    all_permutations,
    insertion_slots,
    iter_baxter,
)
from .qseries import (
    InexactDivisionError,
    baxter_number,
    baxter_polynomial_lhs,
    baxter_polynomial_rhs,
    catalan,
    q_binomial,
    tlp_count_formula,
)

# Bounds above which the full-S_n or brute-polynomial checks are skipped even
# if the caller asks for a larger n; everything else honours n directly.
FULL_SCAN_LIMIT = 8
TLP_ENUM_LIMIT = 9
BRUTE_POLY_LIMIT = 9
INSERTION_CASE_LIMIT = 7


class Check(NamedTuple):
    label: str
    passed: bool
    detail: str

    def to_obj(self) -> dict:
        return {"label": self.label, "passed": self.passed, "detail": self.detail}


class Report(NamedTuple):
    suite: str
    n: int
    checks: tuple[Check, ...]
    elapsed_ms: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_obj(self) -> dict:
        return {
            "suite": self.suite,
            "n": self.n,
            "passed": self.passed,
            "elapsed_ms": self.elapsed_ms,
            "checks": [c.to_obj() for c in self.checks],
        }


def _perm_json(p: Perm) -> str:
    return json.dumps(perm_to_obj(p))


def _triple_json(words: tuple[str, str, str]) -> str:
    return json.dumps(triple_to_obj(words))


def _bits(s: Iterable[int]) -> int:
    return sum(map((1).__lshift__, s))


def _split_key(key: bytes) -> tuple[str, str, str]:
    """The words of a triple keyed by their concatenation; they have equal lengths."""
    step = len(key) // 3
    words = key.decode()
    return words[:step], words[step : 2 * step], words[2 * step :]


# ---------------------------------------------------------------------------
# the round trips verified in this run
#
# Histories, by count.  If fv-roundtrip-n{m} passed, _psi_fv_inverse is a
# left inverse of _psi_fv on all_permutations(m), which is S_m as that
# check's detail states, so _psi_fv sends the m! permutations one to one to
# histories that _validity passes; _psi_fv_inverse returns len(word) + 1
# letters, so their length is m - 1.  If the closed words of that length
# (_closed_words, tested against its definition) also carry exactly m!
# weightings, the product of their heights summed, _psi_fv is onto them and
# every history of length m - 1 round trips: history-roundtrip passes an
# item that _histories could yield and checks any other item, such as a
# faulty enumerator's, directly.  The left inverse alone leaves
# psi-roundtrip-n{m} only the phi pair to check.  Both shortcuts read the
# labels that passed earlier in the run, so they hold for any worker count.
#
# Triples, by marks.  gamma-prime-roundtrip does not check that its images
# are distinct triples, and their number is the paper's theorem, so no count
# stands in for the reverse scan.  Each forward item that passes marks its
# image instead: both maps of the pair are pure, so the reverse check of a
# marked triple would compute the same two values again.  Keys are exact
# and small ranks, one bit each in a bitmap per level, which _suite_roundtrip
# makes and drops with the level.  The reverse side reads a mark only for an
# item that _tlp_words could yield.  Marks set in a pool's worker would stay
# there, so the marking scan runs in this process; each chunk of the reverse
# scan carries a copy of the whole bitmap, so a pool runs only pure checkers
# and the report does not depend on the worker count.


def _word_ranks(steps: int) -> tuple[dict[str, tuple[int, int, int]], int]:
    """Per word of the given length over H and V, (base, size, rank): a
    triple of such words with k H steps each has the key
    base + (r_bottom * size + r_middle) * size + r_top.

    rank numbers the size = C(steps, k) words with k H steps in the order
    of _step_words under the ceiling h(i) <= i, which every word meets, and
    base counts the size**3 triples of each smaller k, so the keys of the
    triples with one k in each word fill range(keys) once; keys is returned
    with the table.  The H/V bits of the three words would take 8**steps
    keys, 2 MiB of bitmap at 8 steps against 90 KiB.
    """
    table = {}
    base = 0
    for k in range(steps + 1):
        size = comb(steps, k)
        for rank, word in enumerate(_step_words(k, range(steps + 1))):
            table[word] = (base, size, rank)
        base += size**3
    return table, base


def _triple_key(ranks: dict, words: tuple[str, str, str]) -> int | None:
    """The key of three strs from the _word_ranks of their length, or None
    unless each is a word there and all three have one count of H."""
    bottom, middle, top = map(ranks.get, words)
    if bottom is None or middle is None or top is None or not bottom[0] == middle[0] == top[0]:
        return None
    base, size, rank = bottom
    return base + (rank * size + middle[2]) * size + top[2]


def _mark_triple(level: tuple[dict, bytearray], words: tuple[str, str, str]) -> None:
    """Mark a triple that _gamma_words returned in the level of its length:
    the _word_ranks of that length and a bit per key."""
    key = _triple_key(level[0], words)
    if key is not None:
        level[1][key >> 3] |= 1 << (key & 7)


def _triple_verified(level: tuple[dict, bytearray], words: tuple[str, str, str]) -> bool:
    """True iff words is a triple that _tlp_words yields, a tuple of three
    strs over H and V with the level's length and one count of H, and is
    marked there."""
    if type(words) is not tuple or len(words) != 3 or not {str}.issuperset(map(type, words)):
        return False
    key = _triple_key(level[0], words)
    return key is not None and level[1][key >> 3] >> (key & 7) & 1 == 1


# ---------------------------------------------------------------------------
# per-item checkers (must stay top-level so worker processes can import them);
# items the library's own generators produced go straight to the unchecked cores

def _check_fv(p: Perm) -> str | None:
    word, weights = _psi_fv(p)
    val = _validity(word, weights)
    if not val.laguerre_ok:
        return f"history of {_perm_json(p)} breaks the weight bounds"
    if _psi_fv_inverse(word, weights) != p:
        return f"round trip failed for {_perm_json(p)}"
    if val.baxter_ok != _is_baxter(p):
        return f"history/pattern disagreement for {_perm_json(p)}"
    return None


def _check_gamma_prime_roundtrip(level: tuple[dict, bytearray] | None, p: Perm) -> str | None:
    words = _gamma_words(_inverse(p), p)
    if _gamma_prime_inverse(*words) != p:
        return f"round trip failed for {_perm_json(p)}"
    if level is not None:
        _mark_triple(level, words)
    return None


def _check_psi_roundtrip(p: Perm) -> str | None:
    if _psi_fv_inverse(*_phi_inverse(*_phi(*_psi_fv(p)))) != p:
        return f"round trip failed for {_perm_json(p)}"
    return None


def _check_phi_roundtrip(p: Perm) -> str | None:
    """:func:`_check_psi_roundtrip` once fv-roundtrip has passed on all of
    S_m: _psi_fv_inverse then inverts _psi_fv there, so the round trip of
    p holds iff the phi pair returns h = _psi_fv(p)."""
    h = _psi_fv(p)
    if _phi_inverse(*_phi(*h)) != h:
        return f"round trip failed for {_perm_json(p)}"
    return None


def _check_psi_encoding(p: Perm) -> str | None:
    q = _inverse(p)
    _, dt, db = _descents(p)
    bottom, middle, top = _phi(*_psi_fv(p))
    got = (decode_path(bottom), decode_path(middle), decode_path(top))
    # DB, IDES and DT-hat as perm.StatProfile defines them
    want = (frozenset(db), frozenset(_descents(q)[0]), (frozenset(dt) | {p[-1]}) - {len(p)})
    if got != want:
        return f"psi of {_perm_json(p)} decodes to {got}, statistics say {want}"
    if _gamma_words(q, p)[:2] != (bottom, middle):
        return f"psi and gamma_prime disagree below the top path for {_perm_json(p)}"
    return None


def _check_history_roundtrip(history: tuple[str, tuple[int, ...]]) -> str | None:
    word, weights = history
    if _psi_fv(_psi_fv_inverse(word, weights)) != history:
        return f"history {word}/{list(weights)} does not round trip"
    return None


def _check_history_in_image(heights: dict[str, tuple[int, ...]], history: tuple[str, tuple[int, ...]]) -> str | None:
    """:func:`_check_history_roundtrip` once the count argument holds at this
    length, heights being dict(_closed_words(length)): a pair that _histories
    could yield, a tuple of a closed word and a tuple of ints each within
    1..h_i, passes; any other item is checked directly."""
    if type(history) is tuple and len(history) == 2:
        word, weights = history
        bounds = heights.get(word) if type(word) is str else None
        if (
            bounds is not None
            and type(weights) is tuple
            and len(weights) == len(bounds)
            and _all_ints(weights)
            and all(map(le, weights, bounds))
            and min(weights, default=1) >= 1
        ):
            return None
    return _check_history_roundtrip(history)


def _check_tlp_roundtrip(level: tuple[dict, bytearray], words: tuple[str, str, str]) -> str | None:
    if _triple_verified(level, words):
        return None
    p = _gamma_prime_inverse(*words)
    if _gamma_words(_inverse(p), p) != words:
        return f"triple {_triple_json(words)} does not round trip"
    return None


def _check_insertion_cases(parent: Perm) -> str | None:
    """Compare each child triple of the growth step against the predicted surgery."""
    m = len(parent) + 1
    bw, mw, tw = _gamma_words(_inverse(parent), parent)
    for pos in insertion_slots(parent):
        child = parent[: pos - 1] + (m,) + parent[pos - 1 :]
        got = _gamma_words(_inverse(child), child)
        if pos == m:  # new maximum at the end: all paths gain a vertical step
            want = (bw + "V", mw + "V", tw + "V")
        elif pos > 1 and parent[pos - 2] == max(parent[pos - 2 :]):
            # after a right-to-left maximum s: top loses the horizontal at
            # s-1 and gains one at the end
            s = parent[pos - 2]
            flipped = tw[: s - 2] + "V" + tw[s - 1 :]
            want = (bw + "V", mw + "V", flipped + "H")
        else:
            # before a left-to-right maximum s: bottom turns step s
            # horizontal (or appends one when s = m-1), middle and top
            # gain a horizontal at the end
            s = parent[pos - 1]
            if s <= m - 2:
                nb = bw[: s - 1] + "H" + bw[s:] + "V"
            else:
                nb = bw + "H"
            want = (nb, mw + "H", tw + "H")
        if got != want:
            return (
                f"insert {m} at slot {pos} of {_perm_json(parent)}: "
                f"triple {got} but surgery predicts {want}"
            )
    return None


def _check_q_binomial(mk: tuple[int, int]) -> str | None:
    m, k = mk
    poly = q_binomial(m, k)
    top = k * (m - k)
    if poly(1) != comb(m, k):
        return f"[{m},{k}]_q sums to {poly(1)}, binomial is {comb(m, k)}"
    if any(poly.coefficient(d) != poly.coefficient(top - d) for d in range(top + 1)):
        return f"[{m},{k}]_q is not symmetric"
    return None


_CHUNK = 4096

def _Pool(processes: int):
    """A pool whose workers start from a fresh import: forking a process that
    runs threads is unsafe.  ``multiprocessing`` (with ``pickle`` and
    ``socket``) is a large share of the package's import time, so only a
    run that starts a pool imports it."""
    import multiprocessing

    return multiprocessing.get_context("spawn").Pool(processes)


# ``map``, or the lazy, ordered ``imap`` of a worker pool: results come back in
# item order either way, so a report does not depend on the worker count
Imap = Callable[[Callable, Iterable], Iterator]


class _Scan(NamedTuple):
    """A check that streams items through checker; ok_detail takes the count."""

    label: str
    checker: Callable[[object], str | None]
    items: Iterable
    ok_detail: str


class _Raised(NamedTuple):
    """The type name and message of an exception that a checker raised."""

    kind: str
    message: str


def _guarded(checker: Callable[[object], str | None], item: object) -> str | _Raised | None:
    """checker(item), with an exception returned as its :class:`_Raised`:
    a pool's imap would re-raise a worker's exception at the first item of
    its chunk, and map would end at a StopIteration, so every item runs
    through here, in this process and in a pool's workers."""
    try:
        return checker(item)
    except Exception as exc:
        return _Raised(type(exc).__name__, str(exc))


def _scan_check(scan: _Scan, imap: Imap) -> Check:
    """Stream the items through the checker; stop at the first failure message
    or exception.

    On success the detail is ok_detail with the item count put in.  An
    exception that the checker raises, here or in a pool's worker, fails
    the check with the item's 1-based position in the scan and the
    exception's type and message, the same for any worker count; the
    except below only sees an exception of the items themselves.  On a
    failure the feed ends too: a pool's task thread, which pulls the items
    ahead of the results, would otherwise hand its workers the rest of the
    level before the next scan's items.
    """
    failed = False

    def feed() -> Iterator:
        for item in scan.items:
            if failed:
                return
            yield item

    count = 0
    msg = None
    try:
        for count, msg in enumerate(imap(functools.partial(_guarded, scan.checker), feed()), 1):
            if msg is not None:
                break
    except Exception as exc:  # the items raised
        count += 1
        msg = _Raised(type(exc).__name__, str(exc))
    if msg is None:
        return Check(scan.label, True, scan.ok_detail.format(count))
    failed = True
    if isinstance(msg, _Raised):
        msg = f"item {count} raised {msg.kind}: {msg.message}"
    return Check(scan.label, False, msg)


# ---------------------------------------------------------------------------
# suites: each yields its checks in report order, a finished Check for a fold
# or scan it runs itself and a _Scan for run_suite to stream

def _image_key(p: Perm) -> bytes:
    """gamma(p) keyed by its concatenated words: equal lengths make the key
    injective and order it as PathTriple orders the triple.

    A key at n = 9 takes 64 bytes as bytes and 80 as a str: with str keys
    ``verify --suite bijection --n 9`` peaked at 21.3 MiB, with bytes at
    20.4 (ru_maxrss, Python 3.11), for one encode per key.
    """
    return "".join(_gamma_words(p, _inverse(p))).encode()


def _statistic_key(p: Perm) -> int:
    """(DT-1, IDES, DB) of p as bit masks len(p) bits apart, one small int;
    no descent top is 1, so the mask of DT - 1 is DT's shifted down one."""
    m = len(p)
    _, dt, db = _descents(p)
    return _bits(dt) >> 1 | _bits(_descents(_inverse(p))[0]) << m | _bits(db) << 2 * m


def _first_with(m: int, key_of: Callable[[Perm], object], key: object) -> Perm:
    """The first permutation of iter_baxter(m) with the given key.

    The folds keep keys only; a failed check walks the level again to name
    the permutation that held the key first.
    """
    return next(p for p in iter_baxter(m) if key_of(p) == key)


def _image_mismatch(m: int, k: int, keys: set[bytes], count: int) -> str | None:
    """Compare the triples with k horizontals per path against gamma's image.

    keys holds the image of the whole level, count how many of them have k
    horizontals.  The enumeration streams: each key must lie in the image,
    have k horizontals and be greater than the key before it, which is the
    documented order and makes the keys distinct, so ending at count keys
    means the two sets are equal.  Only a failure builds the sets, to name
    a witness.
    """
    streamed = 0
    for words in _tlp_words(m, k):
        key = "".join(words).encode()
        if key not in keys or words[0].count("H") != k or (streamed and key <= prev):
            break
        prev = key
        streamed += 1
    else:
        if streamed == count:
            return None
    enumerated = {"".join(w).encode() for w in _tlp_words(m, k)}
    image = {key for key in keys if key.count(b"H", 0, m - 1) == k}
    if enumerated == image:
        return f"k={k}: enumeration is not strictly increasing at {_triple_json(words)}"
    missing = enumerated - image
    extra = image - enumerated
    return (
        f"k={k}: image misses {len(missing)} triples, adds {len(extra)}; "
        f"first: {_triple_json(_split_key(min(missing or extra)))}"
    )


def _suite_bijection(n: int, passed: set[str]) -> Iterator[Check | _Scan]:
    for m in range(1, min(n, TLP_ENUM_LIMIT) + 1):
        # the image of the level as one set of keys and a count per k; a
        # failure walks the level again to name a permutation
        keys: set[bytes] = set()
        counts = [0] * m
        failure = None
        for p in iter_baxter(m):
            key = _image_key(p)
            if key in keys:
                failure = (
                    f"{_perm_json(p)} and {_perm_json(_first_with(m, _image_key, key))} "
                    f"share the image {_triple_json(_split_key(key))}"
                )
                break
            keys.add(key)
            counts[key.count(b"H", 0, m - 1)] += 1
        if failure is None:
            for k in range(m):
                failure = _image_mismatch(m, k, keys, counts[k])
                if failure is not None:
                    break
        yield Check(
            f"gamma-image-n{m}",
            failure is None,
            failure or f"image is duplicate-free and exhausts all {len(keys)} triples",
        )


def _history_checker(length: int, passed: set[str]) -> Callable[[object], str | None]:
    """The checker of history-roundtrip-len{length}: by count once
    fv-roundtrip-n{length + 1} has passed and the closed words of that length
    carry (length + 1)! weightings, else directly.  Its table of heights is
    made per scan and lives only as long as the scan's checker."""
    if f"fv-roundtrip-n{length + 1}" in passed:
        heights = dict(_closed_words(length))
        if sum(map(prod, heights.values())) == factorial(length + 1):
            return functools.partial(_check_history_in_image, heights)
    return _check_history_roundtrip


def _suite_roundtrip(n: int, passed: set[str]) -> Iterator[Check | _Scan]:
    for m in range(1, min(n, FULL_SCAN_LIMIT) + 1):
        yield _Scan(
            f"fv-roundtrip-n{m}",
            _check_fv,
            all_permutations(m),
            "round trip and history/pattern agreement on all {} permutations",
        )
    for length in range(min(n, FULL_SCAN_LIMIT)):  # histories of length L <-> S_{L+1}
        yield _Scan(
            f"history-roundtrip-len{length}",
            _history_checker(length, passed),
            _histories(length),
            "all {} histories round trip",
        )
    for m in range(1, n + 1):
        # up to the cap, the level's marks: filled here in this process, read
        # by the reverse scan (see "Triples, by marks"); none above it
        level = None
        if m <= TLP_ENUM_LIMIT:
            ranks, keys = _word_ranks(m - 1)
            level = (ranks, bytearray((keys + 7) // 8))
        forward = _Scan(
            f"gamma-prime-roundtrip-n{m}",
            functools.partial(_check_gamma_prime_roundtrip, level),
            iter_baxter(m),
            "inverse algorithm returns all {} Baxter permutations",
        )
        yield forward if level is None else _scan_check(forward, map)
        yield _Scan(
            f"psi-roundtrip-n{m}",
            _check_phi_roundtrip if f"fv-roundtrip-n{m}" in passed else _check_psi_roundtrip,
            iter_baxter(m),
            "round trip on all {} Baxter permutations",
        )
        if level is not None:
            yield _Scan(
                f"tlp-roundtrip-n{m}",
                functools.partial(_check_tlp_roundtrip, level),
                (w for k in range(m) for w in _tlp_words(m, k)),
                "all {} triples round trip through the inverse algorithm",
            )


def _suite_lemma_encodings(n: int, passed: set[str]) -> Iterator[Check | _Scan]:
    for m in range(1, n + 1):
        yield _Scan(
            f"psi-encodings-n{m}",
            _check_psi_encoding,
            iter_baxter(m),
            "paths decode to (DB, IDES, DT-hat) on all {} permutations",
        )
        if m > TLP_ENUM_LIMIT:
            continue
        seen: set[int] = set()
        failure = None
        for p in iter_baxter(m):
            key = _statistic_key(p)
            if key in seen:
                earlier = _first_with(m, _statistic_key, key)
                failure = f"{_perm_json(earlier)} and {_perm_json(p)} share (DT-1, IDES, DB)"
                break
            seen.add(key)
        yield Check(
            f"statistic-injectivity-n{m}",
            failure is None,
            failure or f"all {len(seen)} statistic triples are distinct",
        )
    for m in range(2, min(n, INSERTION_CASE_LIMIT) + 1):
        yield _Scan(
            f"insertion-cases-n{m}",
            _check_insertion_cases,
            iter_baxter(m - 1),
            "all growth steps match the predicted path surgery",
        )


def _suite_polynomial(n: int, passed: set[str]) -> Iterator[Check | _Scan]:
    golden = None
    for m in range(1, n + 1):
        try:
            rhs = baxter_polynomial_rhs(m)
        except InexactDivisionError as exc:
            yield Check(f"tq-rhs-n{m}", False, f"division failed: {exc}")
            if m == 2:
                golden = Check("tq-golden-n2", False, f"division failed: {exc}")
            continue
        if m == 2:
            ok = rhs.terms() == [(0, 0, 1), (1, 3, 1)]
            golden = Check("tq-golden-n2", ok, f"terms {rhs.terms()}")
        value = rhs(1, 1)
        want = baxter_number(m)
        yield Check(
            f"tq-rhs-n{m}",
            value == want,
            f"division exact; value at t=q=1 is {value}, Baxter number is {want}",
        )
        if m <= BRUTE_POLY_LIMIT:
            lhs = baxter_polynomial_lhs(m)
            ok = lhs == rhs
            if ok:
                detail = f"all {len(lhs.terms())} coefficients agree"
            else:
                diff = sorted(set(lhs.terms()) ^ set(rhs.terms()))[:4]
                detail = f"coefficient mismatch, first differing terms {diff}"
            yield Check(f"tq-identity-n{m}", ok, detail)
    if golden is not None:
        yield golden
    yield _Scan(
        f"qbinomial-n{n}",
        _check_q_binomial,
        ((m, k) for m in range(n + 1) for k in range(m + 1)),
        f"symmetry and q->1 specialisation hold up to n={n}",
    )


def _suite_counts(n: int, passed: set[str]) -> Iterator[Check | _Scan]:
    for m in range(1, n + 1):
        generated = sum(1 for _ in iter_baxter(m))
        formula = baxter_number(m)
        parts = [f"generator {generated}", f"formula {formula}"]
        ok = generated == formula
        if m <= FULL_SCAN_LIMIT:
            filtered = sum(1 for p in all_permutations(m) if _is_baxter(p))
            parts.append(f"filter {filtered}")
            ok = ok and filtered == generated
        yield Check(f"baxter-count-n{m}", ok, ", ".join(parts))
    for m in range(1, min(n, TLP_ENUM_LIMIT) + 1):
        failure = None
        total = 0
        for k in range(m):
            count = sum(1 for _ in _tlp_words(m, k))
            want = tlp_count_formula(m, k)
            if count != want:
                failure = f"k={k}: enumerated {count}, formula {want}"
                break
            total += count
        if failure is None and total != baxter_number(m):
            failure = f"total {total} differs from Baxter number {baxter_number(m)}"
        yield Check(
            f"tlp-count-n{m}",
            failure is None,
            failure or f"all {total} triples accounted for",
        )
    for m in range(1, n + 1):
        total = sum(tlp_count_formula(m, k) for k in range(m))
        want = baxter_number(m)
        yield Check(f"summand-sum-n{m}", total == want, f"sum {total}, Baxter number {want}")


_BAX6_GOLDEN = [
    (2, 1, 4, 3, 6, 5),
    (2, 1, 5, 4, 6, 3),
    (3, 2, 4, 1, 6, 5),
    (3, 2, 5, 4, 6, 1),
    (4, 3, 5, 2, 6, 1),
]


def _suite_corollaries(n: int, passed: set[str]) -> Iterator[Check | _Scan]:
    for m in range(1, n + 1):
        alt = ralt = 0
        special: list[Perm] = []
        for p in iter_baxter(m):
            flags = _shape_flags(p)
            alt += flags.alternating
            ralt += flags.reverse_alternating
            if flags.reverse_alternating and _shape_flags(_inverse(p)).genocchi:
                special.append(p)
        want_alt = catalan(m // 2) * catalan((m + 1) // 2)
        yield Check(
            f"alt-catalan-product-n{m}",
            alt == want_alt and ralt == want_alt,
            f"alternating {alt}, reverse {ralt}, Catalan product {want_alt}",
        )
        want_cg = catalan(m // 2)
        yield Check(
            f"catalan-genocchi-n{m}",
            len(special) == want_cg,
            f"reverse-alternating with Genocchi inverse: {len(special)}, Catalan {want_cg}",
        )
        if m == 6:
            yield Check(
                "bax6-golden-set",
                sorted(special) == _BAX6_GOLDEN,
                "the five length-6 witnesses are "
                + ", ".join("".join(map(str, p)) for p in sorted(special)),
            )


# each suite takes the bound and the labels of the checks that passed earlier
# in the run, which grows as run_suite consumes its rows
_SUITES: dict[str, Callable[[int, set[str]], Iterator[Check | _Scan]]] = {
    "bijection": _suite_bijection,
    "roundtrip": _suite_roundtrip,
    "lemma-encodings": _suite_lemma_encodings,
    "polynomial": _suite_polynomial,
    "counts": _suite_counts,
    "corollaries": _suite_corollaries,
}

SUITE_NAMES = (*_SUITES, "all")


def run_suite(name: str, n: int, jobs: int = 1) -> Report:
    """Run one named suite (or ``all``) up to size n and report per-check results.

    With ``min(jobs, cpu count)`` above one, a single worker pool serves the
    whole run and receives each level in chunks as it is generated.  Raises
    ``ValueError`` for an unknown name, or an n or jobs that is not an int
    of at least 1.
    """
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    _check_size("n", n, 1)
    _check_size("jobs", jobs, 1)
    names = _SUITES if name == "all" else (name,)
    workers = min(jobs, os.cpu_count() or 1)
    started = time.perf_counter()
    with _Pool(workers) if workers > 1 else nullcontext() as pool:
        imap = map if pool is None else functools.partial(pool.imap, chunksize=_CHUNK)
        checks = []
        passed: set[str] = set()
        for sub in names:
            for row in _SUITES[sub](n, passed):
                check = row if isinstance(row, Check) else _scan_check(row, imap)
                checks.append(check)
                if check.passed:
                    passed.add(check.label)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return Report(name, n, tuple(checks), elapsed_ms)

