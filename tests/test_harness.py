import functools
import io
import json
import pickle
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from math import factorial
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baxlab import cli, harness, jsonio
from baxlab.bijections import gamma, gamma_prime, psi
from baxlab.harness import Check, run_suite
from baxlab.laguerre import _closed_words
from baxlab.paths import PathTriple, enumerate_tlp
from baxlab.perm import all_permutations, iter_baxter
from baxlab.qseries import QPoly, TQPoly, baxter_number


def test_run_suite_all_passes_at_small_n():
    report = run_suite("all", 4)
    assert report.passed
    assert report.suite == "all" and report.n == 4
    assert all(c.passed for c in report.checks)
    labels = [c.label for c in report.checks]
    assert len(set(labels)) == len(labels)


def test_run_suite_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope", 3)
    with pytest.raises(ValueError):
        run_suite("counts", 0)


@pytest.mark.parametrize("jobs", [0, -3])
def test_run_suite_rejects_worker_counts_below_one(jobs):
    with pytest.raises(ValueError, match="^jobs must be >= 1$"):
        run_suite("counts", 3, jobs=jobs)


def test_reports_are_deterministic():
    a = run_suite("corollaries", 6)
    b = run_suite("corollaries", 6)
    assert a.checks == b.checks
    assert a.passed and any(c.label == "bax6-golden-set" for c in a.checks)


def test_counts_suite_reports_the_alternating_values():
    report = run_suite("corollaries", 7)
    assert report.passed
    by_label = {c.label: c for c in report.checks}
    assert "alternating 70" in by_label["alt-catalan-product-n7"].detail
    assert "alternating 25" in by_label["alt-catalan-product-n6"].detail


def test_report_serialization():
    report = run_suite("counts", 3)
    obj = report.to_obj()
    assert obj["suite"] == "counts" and obj["passed"] is True
    assert json.loads(json.dumps(obj)) == obj
    assert {c["label"] for c in obj["checks"]} == {c.label for c in report.checks}


def test_verify_all_n8_matches_the_golden_report():
    # verify --suite all --n 8 --json as committed, with elapsed_ms removed
    want = json.loads((Path(__file__).parent / "data" / "verify-all-n8.json").read_text())
    got = run_suite("all", 8).to_obj()
    del got["elapsed_ms"]
    assert got == want


def test_single_suites_concatenate_to_all():
    # verify --suite <name> run one suite at a time, in the order of "all"
    singles = [c for name in harness.SUITE_NAMES[:-1] for c in run_suite(name, 5).checks]
    assert singles == list(run_suite("all", 5).checks)
    assert harness.SUITE_NAMES[-1] == "all"


def test_parallel_scan_matches_serial(monkeypatch):
    serial = run_suite("roundtrip", 6, jobs=1)
    monkeypatch.setattr(harness, "_CHUNK", 64)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    parallel = run_suite("roundtrip", 6, jobs=2)  # a real pool of two workers
    assert serial.passed and serial.checks == parallel.checks


class RecordingPool:
    """Stands in for the worker pool: records the worker count and what
    ``imap`` receives, and maps in-process."""

    requested = []
    received = []

    def __init__(self, processes):
        self.requested.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, items, chunksize=1):
        self.received.append(items)
        return map(fn, items)


class PicklingPool(RecordingPool):
    """A RecordingPool that sends the function of each ``imap`` call through
    pickle, as ``Pool.imap`` does with each chunk for its workers, and
    records the checker inside it."""

    checkers = []

    def imap(self, fn, items, chunksize=1):
        self.checkers.append(fn.args[0])
        return super().imap(pickle.loads(pickle.dumps(fn)), items, chunksize)


@pytest.fixture
def recording_pool(monkeypatch):
    monkeypatch.setattr(harness, "_Pool", RecordingPool)
    RecordingPool.requested.clear()
    RecordingPool.received.clear()
    return RecordingPool


@pytest.mark.parametrize(
    "jobs, cpus, want", [(2, 8, 2), (100000, 8, 8), (100000, 3, 3), (100000, None, 1)]
)
def test_scan_caps_the_worker_count(monkeypatch, recording_pool, jobs, cpus, want):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    assert run_suite("roundtrip", 4, jobs=jobs).passed
    # one pool serves the whole run, and none is started for a single worker
    assert recording_pool.requested == ([want] if want > 1 else [])


def test_the_pool_streams_the_items_it_is_given(monkeypatch, recording_pool):
    log = []

    def tracked_permutations(m):
        for p in all_permutations(m):
            log.append("pulled")
            yield p

    def tracked_check(p):
        log.append("checked")
        return real_check(p)

    real_check = harness._check_fv
    monkeypatch.setattr(harness, "all_permutations", tracked_permutations)
    monkeypatch.setattr(harness, "_check_fv", tracked_check)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    assert run_suite("roundtrip", 4, jobs=2).passed
    # the 1 + 2 + 6 + 24 permutations of the four levels reach imap one at a
    # time, each checked before the next is pulled: no level is listed first
    assert log == ["pulled", "checked"] * 33
    assert not any(isinstance(got, (list, tuple)) for got in recording_pool.received)


def starts_with_a_descent(p):
    return f"{p} starts with a descent" if p[0] > p[1] else None


def test_scan_stops_at_the_first_failure():
    consumed = []

    def items():
        for p in all_permutations(5):
            consumed.append(p)
            yield p

    want = Check("x", False, "(2, 1, 3, 4, 5) starts with a descent")
    assert harness._scan_check(map, "x", starts_with_a_descent, items(), "{}") == want
    assert len(consumed) == 25
    with harness._Pool(2) as pool:
        imap = functools.partial(pool.imap, chunksize=8)
        assert harness._scan_check(imap, "x", starts_with_a_descent, all_permutations(5), "{}") == want


def does_not_start_with_one(p):
    return f"{p} does not start with 1" if p[0] != 1 else None


def test_a_failed_scan_stops_feeding_the_pool():
    consumed = 0

    def items():
        nonlocal consumed
        for p in all_permutations(9):
            consumed += 1
            yield p

    with harness._Pool(2) as pool:
        imap = functools.partial(pool.imap, chunksize=harness._CHUNK)
        # item 40,321 of S_9 is the first to start with 2
        want = Check("x", False, "(2, 1, 3, 4, 5, 6, 7, 8, 9) does not start with 1")
        assert harness._scan_check(imap, "x", does_not_start_with_one, items(), "{}") == want
        fed = consumed
        ones = [(1,)] * 10
        check = harness._scan_check(imap, "y", does_not_start_with_one, ones, "{}")
        assert check == Check("y", True, "10")
    # once the failed check has returned, the feed pulls at most one more
    # item and ends; the pool runs its jobs in order, so once the next scan's
    # results are in, the first feed has ended.  How far the pool's task
    # thread ran ahead before the failure is a race, so fed itself is
    # bounded only by the 362,880 items of S_9
    assert fed < 362880, f"fed={fed}, consumed={consumed}"
    assert consumed <= fed + 1, f"fed={fed}, consumed={consumed}"


def test_gamma_image_failure_names_the_first_witness(monkeypatch):
    real_iter, real_words = harness.iter_baxter, harness._tlp_words
    monkeypatch.setattr(
        harness, "iter_baxter", lambda m: (p for p in real_iter(m) if p != (2, 3, 1))
    )
    check = run_suite("bijection", 3).checks[-1]
    assert not check.passed
    assert check.detail == (
        'k=1: image misses 1 triples, adds 0; first: {"bottom": {"start": [2, 0], "steps": "HV"}, '
        '"middle": {"start": [1, 1], "steps": "VH"}, "top": {"start": [0, 2], "steps": "VH"}}'
    )
    monkeypatch.setattr(harness, "iter_baxter", real_iter)
    monkeypatch.setattr(harness, "_tlp_words", lambda m, k: list(real_words(m, k))[k == 1 :])
    check = run_suite("bijection", 3).checks[-1]
    assert not check.passed
    assert check.detail == (
        'k=1: image misses 0 triples, adds 1; first: {"bottom": {"start": [2, 0], "steps": "HV"}, '
        '"middle": {"start": [1, 1], "steps": "HV"}, "top": {"start": [0, 2], "steps": "HV"}}'
    )


def test_image_folds_name_a_repeated_permutation(monkeypatch):
    real_iter = harness.iter_baxter
    monkeypatch.setattr(harness, "iter_baxter", lambda m: (*real_iter(m), (2, 1)))
    check = run_suite("bijection", 2).checks[-1]
    assert (check.passed, check.detail) == (
        False,
        '[2, 1] and [2, 1] share the image {"bottom": {"start": [2, 0], "steps": "H"}, '
        '"middle": {"start": [1, 1], "steps": "H"}, "top": {"start": [0, 2], "steps": "H"}}',
    )
    checks = run_suite("lemma-encodings", 2).checks
    check = next(c for c in checks if c.label == "statistic-injectivity-n2")
    assert (check.passed, check.detail) == (False, "[2, 1] and [2, 1] share (DT-1, IDES, DB)")


def _triple_detail(bottom, middle, top):
    return (
        f'{{"bottom": {{"start": [2, 0], "steps": "{bottom}"}}, '
        f'"middle": {{"start": [1, 1], "steps": "{middle}"}}, '
        f'"top": {{"start": [0, 2], "steps": "{top}"}}}}'
    )


@pytest.mark.parametrize(
    "change, detail",
    [
        # {A, A} in place of {A, B}: the count per k still agrees
        (
            {1: lambda w: [w[0], w[0], *w[2:]]},
            "k=1: image misses 0 triples, adds 1; first: " + _triple_detail("HV", "HV", "VH"),
        ),
        # the triples of k = 0 and k = 2 swapped: each count still agrees
        (
            {0: lambda w: [("HH", "HH", "HH")], 2: lambda w: [("VV", "VV", "VV")]},
            "k=0: image misses 1 triples, adds 1; first: " + _triple_detail("HH", "HH", "HH"),
        ),
        # the right set, against the documented order: once twice, once turned round
        (
            {1: lambda w: [w[0], *w]},
            "k=1: enumeration is not strictly increasing at " + _triple_detail("HV", "HV", "HV"),
        ),
        (
            {1: lambda w: [w[1], w[0], *w[2:]]},
            "k=1: enumeration is not strictly increasing at " + _triple_detail("HV", "HV", "HV"),
        ),
    ],
    ids=["repeated", "k-swapped", "twice", "turned-round"],
)
def test_gamma_image_fails_where_a_count_alone_would_pass(monkeypatch, change, detail):
    real_words = harness._tlp_words

    def tlp_words(m, k):
        words = list(real_words(m, k))
        return change[k](words) if m == 3 and k in change else words

    monkeypatch.setattr(harness, "_tlp_words", tlp_words)
    checks = run_suite("bijection", 4).checks
    assert [c.passed for c in checks] == [True, True, False, True]
    assert checks[2].detail == detail


@pytest.mark.parametrize("suite, bound", [("bijection", 200), ("lemma-encodings", 110)])
def test_image_folds_keep_keys_not_permutations(suite, bound):
    # tracemalloc's peak per permutation of B_8 (10,754) on Pythons 3.10-3.13:
    # 103-105 bytes (bijection) and 79-82 (lemma-encodings) with the folds
    # keeping keys only, 284-310 and 142-145 while they kept each permutation
    tracemalloc.start()
    try:
        run_suite(suite, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 10754 < bound


def _failures(suite, n, jobs=1):
    return [(c.label, c.detail) for c in run_suite(suite, n, jobs).checks if not c.passed]


# psi_fv of (3, 1, 4, 5, 2), and gamma_prime's words of (2, 4, 3, 5, 1)
_H0 = ("UBDR", (1, 2, 1, 1))
_T0 = ("HVHV", "HVHV", "VVHH")


def _break_psi_fv_inverse(monkeypatch):
    """Make harness._psi_fv_inverse send _H0 to a wrong permutation."""
    real = harness._psi_fv_inverse

    def psi_fv_inverse(word, weights):
        p = real(word, weights)
        return p[::-1] if (word, tuple(weights)) == _H0 else p

    monkeypatch.setattr(harness, "_psi_fv_inverse", psi_fv_inverse)


def _break_gamma_prime_inverse(monkeypatch):
    """Make harness._gamma_prime_inverse send _T0 to a wrong permutation."""
    real = harness._gamma_prime_inverse

    def gamma_prime_inverse(*words):
        p = real(*words)
        return p[::-1] if words == _T0 else p

    monkeypatch.setattr(harness, "_gamma_prime_inverse", gamma_prime_inverse)


@pytest.mark.parametrize(
    "corrupt, want",
    [
        (
            _break_psi_fv_inverse,
            [
                ("fv-roundtrip-n5", "round trip failed for [3, 1, 4, 5, 2]"),
                ("history-roundtrip-len4", "history UBDR/[1, 2, 1, 1] does not round trip"),
            ],
        ),
        (
            _break_gamma_prime_inverse,
            [
                ("gamma-prime-roundtrip-n5", "round trip failed for [2, 4, 3, 5, 1]"),
                ("tlp-roundtrip-n5", f"triple {_triple_detail(*_T0)} does not round trip"),
            ],
        ),
    ],
    ids=["psi_fv_inverse", "gamma_prime_inverse"],
)
def test_a_wrong_inverse_fails_both_round_trips(monkeypatch, corrupt, want):
    # the forward scan stops at the broken item, so its image is never
    # marked and the reverse scan computes it; the details are those of a
    # run that marks nothing
    corrupt(monkeypatch)
    assert _failures("roundtrip", 5) == want


def test_no_mark_outlives_its_run(monkeypatch):
    # the marks of a passing run are not read by the next one, which
    # computes the broken triple again
    assert run_suite("roundtrip", 5).passed
    _break_gamma_prime_inverse(monkeypatch)
    assert ("tlp-roundtrip-n5", f"triple {_triple_detail(*_T0)} does not round trip") in _failures("roundtrip", 5)

    real_iter_baxter = harness.iter_baxter

    def iter_baxter(m):
        if m == 5:
            raise RuntimeError("stop")
        return real_iter_baxter(m)

    # the enumerator of B_5 raises in the suite itself, after the marking
    # scans of B_1..B_4 have run in this process
    monkeypatch.setattr(harness, "iter_baxter", iter_baxter)
    with pytest.raises(RuntimeError, match="stop"):
        run_suite("roundtrip", 5)


def _append(monkeypatch, name, args, extra):
    """Make the enumerator harness.<name> yield extra after its items for args."""
    real = getattr(harness, name)
    monkeypatch.setattr(harness, name, lambda *a: (*real(*a), extra) if a == args else real(*a))


_FAULTY_HISTORIES = [
    # a weight above its bound, weights as a list, a pair as a list, an
    # open word, and three weights for four steps
    (("UDUD", (1, 3, 1, 1)), "history UDUD/[1, 3, 1, 1] does not round trip"),
    (("UBDR", [1, 2, 1, 1]), "history UBDR/[1, 2, 1, 1] does not round trip"),
    (["UBDR", (1, 2, 1, 1)], "history UBDR/[1, 2, 1, 1] does not round trip"),
    (("UUDB", (1, 1, 1, 1)), "history UUDB/[1, 1, 1, 1] does not round trip"),
    (("UBDR", (1, 2, 1)), "history UBDR/[1, 2, 1] does not round trip"),
    # equal to a history, so it round trips either way
    (("UBDR", (True, 2, True, True)), None),
    (("URD", (1, 2, 1)), None),
]


@pytest.mark.parametrize("extra, want", _FAULTY_HISTORIES)
def test_a_faulty_history_enumerator_is_never_a_hit(monkeypatch, extra, want):
    _append(monkeypatch, "_histories", (4,), extra)
    assert _failures("roundtrip", 5) == ([] if want is None else [("history-roundtrip-len4", want)])


def test_only_a_history_that_the_enumerator_could_yield_passes_by_count(monkeypatch):
    # each faulty item above goes to the direct check, a history does not
    direct = []
    monkeypatch.setattr(harness, "_check_history_roundtrip", lambda h: direct.append(h) or "direct")
    heights = dict(_closed_words(4))
    assert harness._check_history_in_image(heights, ("UBDR", (1, 2, 1, 1))) is None
    assert harness._check_history_in_image(dict(_closed_words(0)), ("", ())) is None
    assert direct == []
    for extra, _ in _FAULTY_HISTORIES:
        assert harness._check_history_in_image(heights, extra) == "direct", extra
    assert direct == [extra for extra, _ in _FAULTY_HISTORIES]


@pytest.mark.parametrize(
    "extra, want",
    [
        # words of unequal lengths, a list, and a triple that is no image
        (("HV", "HV", "H"), ("HV", "HV", "H")),
        (["HV", "HV", "HV"], ("HV", "HV", "HV")),
        (("HH", "VH", "HV"), ("HH", "VH", "HV")),
        (("H", "H", "H"), None),
    ],
)
def test_a_faulty_triple_enumerator_is_never_a_hit(monkeypatch, extra, want):
    _append(monkeypatch, "_tlp_words", (3, 1), extra)
    detail = None if want is None else f"triple {_triple_detail(*want)} does not round trip"
    assert _failures("roundtrip", 4) == ([] if want is None else [("tlp-roundtrip-n3", detail)])


def test_a_faulty_enumerator_fails_as_the_direct_path_does(monkeypatch):
    # a weight of 0 or 1.0, or a triple of other letters, breaks the inverse
    # map itself; the reverse check takes the direct path, whose exception
    # fails the check at the item's place in the scan, for any worker count
    real_histories, real_tlp_words = harness._histories, harness._tlp_words
    for jobs in (1, 2):
        for weights, raised in [
            ((1, 2, 0, 1), "IndexError: list index out of range"),
            ((1.0, 2, 1, 1), "TypeError: list indices must be integers or slices, not float"),
        ]:
            _append(monkeypatch, "_histories", (4,), ("UBDR", weights))
            # the 5! histories of length 4, then the faulty one
            want = [("history-roundtrip-len4", f"item 121 raised {raised}")]
            assert _failures("roundtrip", 5, jobs) == want, jobs
            monkeypatch.setattr(harness, "_histories", real_histories)
        for words in [("hv", "HV", "HV"), ("VV", "HH", "HH")]:
            _append(monkeypatch, "_tlp_words", (3, 1), words)
            # the five triples of size 3 with k = 0 and k = 1, then the faulty one
            want = [("tlp-roundtrip-n3", "item 6 raised IndexError: list index out of range")]
            assert _failures("roundtrip", 4, jobs) == want, jobs
            monkeypatch.setattr(harness, "_tlp_words", real_tlp_words)


def test_a_raising_checker_stops_the_feed():
    # nothing past the item that raised is drawn from the enumerator
    drawn = []

    def items():
        for i in range(10):
            drawn.append(i)
            yield i

    def checker(i):
        1 // (3 - i)  # raises at the fourth item

    check = harness._scan_check(map, "raises-at-3", checker, items(), "{}")
    assert check == Check("raises-at-3", False, "item 4 raised ZeroDivisionError: integer division or modulo by zero")
    assert drawn == [0, 1, 2, 3]


def stops_at_three(i):
    if i == 3:
        next(iter(()))  # a StopIteration, which map alone takes for the end of the items


def test_a_checker_that_raises_stop_iteration_fails_its_check():
    # the same failed check in this process as in a pool's workers, not a
    # scan that passes on its first three items
    want = Check("x", False, "item 4 raised StopIteration: ")
    assert harness._scan_check(map, "x", stops_at_three, range(10), "all {} items") == want
    with harness._Pool(2) as pool:
        imap = functools.partial(pool.imap, chunksize=4)
        assert harness._scan_check(imap, "x", stops_at_three, range(10), "all {} items") == want


def five_ones_then_a_raise():
    yield from [(1,)] * 5
    raise ValueError("bad item")


def test_items_that_raise_fail_at_the_same_place_for_any_chunk_size():
    # the feed reads the items in this process and ends at their exception,
    # which a pool's imap would pin on the first item of the chunk it was
    # building: item 1 with chunks of 8, item 5 with chunks of 4
    want = Check("x", False, "item 6 raised ValueError: bad item")
    assert harness._scan_check(map, "x", does_not_start_with_one, five_ones_then_a_raise(), "{}") == want
    with harness._Pool(2) as pool:
        for chunksize in (1, 4, 8):
            imap = functools.partial(pool.imap, chunksize=chunksize)
            check = harness._scan_check(imap, "x", does_not_start_with_one, five_ones_then_a_raise(), "{}")
            assert check == want, chunksize


def test_triple_keys_tell_every_triple_apart():
    # every triple of H/V words of one length <= 3 with one count of H gets
    # its own key, and the keys of each length fill the level's range
    words = [w for m in range(4) for w in map("".join, product("HV", repeat=m))]
    for m in range(4):
        ranks, keys = harness._word_ranks(m)
        got = {}
        for triple in product([w for w in words if len(w) == m], repeat=3):
            key = harness._triple_key(ranks, triple)
            assert (key is None) == (len({w.count("H") for w in triple}) > 1), triple
            if key is not None:
                assert got.setdefault(key, triple) == triple
        assert sorted(got) == list(range(keys))
    # the ranks of steps 0..8 number each count of H's words in the order of
    # a filter over product("HV"), and the size is that count's word count
    for m in range(9):
        ranks, _ = harness._word_ranks(m)
        assert len(ranks) == 2**m
        for k in range(m + 1):
            listed = [w for w in map("".join, product("HV", repeat=m)) if w.count("H") == k]
            assert [ranks[w][1:] for w in listed] == [(len(listed), r) for r in range(len(listed))], (m, k)


def test_only_a_triple_that_the_enumerator_could_yield_reads_a_mark():
    # a level per length 0-3, every key marked
    levels = []
    for m in range(4):
        ranks, keys = harness._word_ranks(m)
        levels.append((ranks, bytearray(b"\xff") * (keys // 8 + 1)))
    assert harness._triple_verified(levels[2], ("HV", "VH", "HV"))
    assert harness._triple_verified(levels[0], ("", "", ""))
    # unequal lengths or counts of H, other letters, a list, two words,
    # bytes, and a length that has no marks, in any level; and a triple
    # read in the level of another length
    for bad in [
        ("HV", "HV", "H"),
        ("HV", "HV", "HH"),
        ("HV", "HV", "Hv"),
        ("HV", "HV", "H "),
        ["HV", "VH", "HV"],
        ("HV", "VH"),
        (b"HV", "VH", "HV"),
        ("HVVV", "VHVV", "HVVV"),
    ]:
        for level in levels:
            assert not harness._triple_verified(level, bad), bad
    assert not harness._triple_verified(levels[3], ("HV", "VH", "HV"))


def _count_inverse_calls(monkeypatch):
    """Count the calls of harness's two inverse cores, in this process."""
    calls = {"_psi_fv_inverse": 0, "_gamma_prime_inverse": 0}

    def counted(name):
        real = getattr(harness, name)

        def f(*args):
            calls[name] += 1
            return real(*args)

        return f

    for name in calls:
        monkeypatch.setattr(harness, name, counted(name))
    return calls


def test_reverse_scans_read_every_mark(monkeypatch):
    # counted, so that a key that silently stops hitting fails here: the
    # forward scans call each inverse once per item, the reverse scans and
    # psi-roundtrip, which read the passed fv-roundtrip, never
    calls = _count_inverse_calls(monkeypatch)
    assert run_suite("roundtrip", 6, jobs=1).passed
    # fv-roundtrip over S_1..S_6, gamma-prime-roundtrip over B_1..B_6
    perms = sum(factorial(m) for m in range(1, 7))
    baxter = sum(baxter_number(m) for m in range(1, 7))
    assert calls == {"_psi_fv_inverse": perms, "_gamma_prime_inverse": baxter}


def test_a_pools_workers_read_every_mark(monkeypatch):
    # the marking scans run in this process, and the reverse scans' workers
    # get the whole level with each chunk: the forward scans invert each
    # Baxter permutation once, the reverse scans none
    monkeypatch.setattr(harness, "_Pool", PicklingPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    PicklingPool.checkers.clear()
    calls = _count_inverse_calls(monkeypatch)
    assert run_suite("roundtrip", 6, jobs=2).passed
    assert calls["_gamma_prime_inverse"] == sum(baxter_number(m) for m in range(1, 7))
    funcs = [getattr(checker, "func", checker) for checker in PicklingPool.checkers]
    assert harness._check_gamma_prime_roundtrip not in funcs
    assert funcs.count(harness._check_tlp_roundtrip) == 6


def test_roundtrip_past_its_caps_reads_the_same_with_any_pool(monkeypatch):
    # with the caps lowered, n = 6 runs no fv or history scan past n3/len2,
    # marks and reverse-scans the triples only to n4, and streams the forward
    # scans of n5 and n6 unmarked; the checks are the same in this process,
    # in a real pool of two workers and in one whose checkers go through pickle
    monkeypatch.setattr(harness, "TLP_ENUM_LIMIT", 4)
    monkeypatch.setattr(harness, "FULL_SCAN_LIMIT", 3)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    want = run_suite("roundtrip", 6, jobs=1).checks
    assert all(c.passed for c in want)
    assert [c.label for c in want] == [
        *(f"fv-roundtrip-n{m}" for m in range(1, 4)),
        *(f"history-roundtrip-len{length}" for length in range(3)),
        *(
            label
            for m in range(1, 7)
            for label in (f"gamma-prime-roundtrip-n{m}", f"psi-roundtrip-n{m}", f"tlp-roundtrip-n{m}")
            if m <= 4 or not label.startswith("tlp-")
        ),
    ]
    assert run_suite("roundtrip", 6, jobs=2).checks == want
    monkeypatch.setattr(harness, "_Pool", PicklingPool)
    PicklingPool.checkers.clear()
    assert run_suite("roundtrip", 6, jobs=2).checks == want
    # the pool's checkers in order: the forward scans of n1..n4 mark in this
    # process, and psi-roundtrip checks the whole trip from n4 on
    got = [(getattr(c, "__name__", None) or c.func.__name__, getattr(c, "args", ())) for c in PicklingPool.checkers]
    assert [name for name, _ in got] == [
        *["_check_fv"] * 3,
        *["_check_history_in_image"] * 3,
        *["_check_phi_roundtrip", "_check_tlp_roundtrip"] * 3,
        "_check_psi_roundtrip",
        "_check_tlp_roundtrip",
        *["_check_gamma_prime_roundtrip", "_check_psi_roundtrip"] * 2,
    ]
    assert [args for name, args in got if name == "_check_gamma_prime_roundtrip"] == [(None,), (None,)]


def test_the_history_count_holds_with_a_pool(monkeypatch, recording_pool):
    # the reverse history scan and psi-roundtrip read the suite's own
    # fv-roundtrip verdicts, not a worker's state, so a pool computes no
    # inverse more often
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    calls = _count_inverse_calls(monkeypatch)
    counts = []
    for jobs in (1, 2):
        calls["_psi_fv_inverse"] = 0
        assert run_suite("roundtrip", 6, jobs=jobs).passed
        counts.append(calls["_psi_fv_inverse"])
    assert counts == [sum(factorial(m) for m in range(1, 7))] * 2
    assert recording_pool.requested == [2]


def test_a_short_count_checks_every_history(monkeypatch):
    # with one closed word of length 4 dropped the weightings no longer sum
    # to 5!, so history-roundtrip-len4 inverts each of its 120 items
    want = run_suite("roundtrip", 5).checks
    real = harness._closed_words
    monkeypatch.setattr(harness, "_closed_words", lambda length: list(real(length))[: -1 if length == 4 else None])
    calls = _count_inverse_calls(monkeypatch)
    assert run_suite("roundtrip", 5).checks == want
    assert calls["_psi_fv_inverse"] == sum(factorial(m) for m in range(1, 6)) + 120


def test_psi_roundtrip_checks_the_whole_trip_unless_fv_passed_on_its_level(monkeypatch):
    # psi_fv of the Baxter permutation (2, 4, 3, 5, 1) sent elsewhere:
    # fv-roundtrip-n5 fails, so psi-roundtrip-n5 computes the whole round
    # trip and fails where it did; n4 and n6 still pass
    p = (2, 4, 3, 5, 1)
    real = harness._psi_fv_inverse
    h = harness._psi_fv(p)
    monkeypatch.setattr(harness, "_psi_fv_inverse", lambda *w: real(*w)[::-1] if w == h else real(*w))
    assert _failures("roundtrip", 6) == [
        ("fv-roundtrip-n5", "round trip failed for [2, 4, 3, 5, 1]"),
        ("history-roundtrip-len4", f"history {h[0]}/{list(h[1])} does not round trip"),
        ("psi-roundtrip-n5", "round trip failed for [2, 4, 3, 5, 1]"),
    ]


def test_psi_roundtrip_on_a_full_level_still_checks_the_phi_pair(monkeypatch):
    # _phi_inverse broken on the triple of one Baxter permutation: fv-roundtrip
    # passed on every level, so psi-roundtrip checks the phi pair alone and
    # still fails there
    p = (2, 4, 3, 5, 1)
    words = harness._phi(*harness._psi_fv(p))
    real = harness._phi_inverse
    monkeypatch.setattr(harness, "_phi_inverse", lambda *w: ("RRRR", (1, 1, 1, 1)) if w == words else real(*w))
    assert _failures("roundtrip", 6) == [("psi-roundtrip-n5", "round trip failed for [2, 4, 3, 5, 1]")]


def _suite_marks(n):
    """The levels of marks that roundtrip's reverse scans up to n would read:
    the suite's own marking scans run, a stub runs its other scans, which
    records the checker of each tlp-roundtrip and passes without a look."""
    levels = []

    def scan(label, checker, items, ok_detail):
        if label.startswith("tlp-roundtrip-"):
            levels.append(checker.args[0])
        return Check(label, True, "not run")

    for check in harness._suite_roundtrip(n, scan):
        assert check.passed, check
    return levels


def test_round_trip_marks_keep_bits_not_keys():
    # the memory that harness.py's own lines allocated and still hold once
    # the marks of B_1..B_8 are made, per permutation, with every level
    # kept: 2.2-3.6 bytes with the bitmaps on Python 3.11, against 104-106
    # with a set of int ranks per level and 132-134 with a set of bytes keys
    # in their place.  The filter leaves out what iter_baxter's tuples leave
    # in the allocator, which a measure of the whole pass read as 5-50 bytes
    tracemalloc.start()
    try:
        levels = _suite_marks(8)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    own = snapshot.filter_traces([tracemalloc.Filter(True, harness.__file__)])
    kept = sum(trace.size for trace in own.traces)
    assert len(levels) == 8
    assert kept / 10754 < 30


def test_fv_roundtrip_names_a_history_out_of_its_bounds(monkeypatch):
    # psi_fv of (3, 1, 2) with its first weight raised past its height
    real = harness._psi_fv

    def psi_fv(p):
        word, weights = real(p)
        return (word, (weights[0] + 5, *weights[1:])) if p == (3, 1, 2) else (word, weights)

    monkeypatch.setattr(harness, "_psi_fv", psi_fv)
    assert _failures("roundtrip", 3)[0] == ("fv-roundtrip-n3", "history of [3, 1, 2] breaks the weight bounds")


def test_fv_roundtrip_names_a_history_that_disagrees_with_the_pattern_test(monkeypatch):
    # the pattern test turned round on the non-Baxter permutation (2, 4, 1, 3)
    real = harness._is_baxter
    monkeypatch.setattr(harness, "_is_baxter", lambda p: real(p) != (p == (2, 4, 1, 3)))
    assert _failures("roundtrip", 4) == [("fv-roundtrip-n4", "history/pattern disagreement for [2, 4, 1, 3]")]


def _corrupt_phi(monkeypatch, length, corrupt):
    """Make harness._phi rewrite its (bottom, middle, top) words on histories of one length."""
    real_phi = harness._phi

    def phi(word, weights):
        words = real_phi(word, weights)
        return corrupt(*words) if len(word) == length else words

    monkeypatch.setattr(harness, "_phi", phi)


def test_psi_encodings_failure_shows_the_decoded_and_the_statistic_sets(monkeypatch):
    # the last bottom step of every 5-letter image turned round
    _corrupt_phi(monkeypatch, 4, lambda b, m, t: (b[:-1] + "VH"[b[-1] == "V"], m, t))
    checks = {c.label: c for c in run_suite("lemma-encodings", 5).checks}
    assert checks["psi-encodings-n4"].passed
    assert (checks["psi-encodings-n5"].passed, checks["psi-encodings-n5"].detail) == (
        False,
        "psi of [5, 4, 3, 2, 1] decodes to (frozenset({1, 2, 3}), frozenset({1, 2, 3, 4}), "
        "frozenset({1, 2, 3, 4})), statistics say (frozenset({1, 2, 3, 4}), "
        "frozenset({1, 2, 3, 4}), frozenset({1, 2, 3, 4}))",
    )


def test_psi_encodings_failure_names_a_path_that_decodes_right_but_differs(monkeypatch):
    # a trailing V keeps the decoded set but not the step word
    _corrupt_phi(monkeypatch, 3, lambda b, m, t: (b, m + "V", t))
    checks = {c.label: c for c in run_suite("lemma-encodings", 4).checks}
    assert (checks["psi-encodings-n4"].passed, checks["psi-encodings-n4"].detail) == (
        False,
        "psi and gamma_prime disagree below the top path for [4, 3, 2, 1]",
    )
    assert all(c.passed for label, c in checks.items() if label != "psi-encodings-n4")


def test_image_folds_stop_at_the_triple_enumeration_limit(monkeypatch):
    monkeypatch.setattr(harness, "TLP_ENUM_LIMIT", 3)
    labels = [c.label for c in run_suite("bijection", 5).checks]
    assert labels == ["gamma-image-n1", "gamma-image-n2", "gamma-image-n3"]
    labels = [c.label for c in run_suite("lemma-encodings", 5).checks]
    assert [x for x in labels if x.startswith("statistic-injectivity")] == [
        "statistic-injectivity-n1",
        "statistic-injectivity-n2",
        "statistic-injectivity-n3",
    ]
    assert [x for x in labels if x.startswith("psi-encodings")] == [
        f"psi-encodings-n{m}" for m in range(1, 6)
    ]


def test_insertion_cases_name_the_slot_whose_triple_breaks_the_surgery(monkeypatch):
    # the top word of the child (2, 1, 3) turned round
    real = harness._gamma_words

    def gamma_words(q, p):
        bottom, middle, top = real(q, p)
        return (bottom, middle, top[::-1] if p == (2, 1, 3) else top)

    monkeypatch.setattr(harness, "_gamma_words", gamma_words)
    assert _failures("lemma-encodings", 3) == [
        (
            "insertion-cases-n3",
            "insert 3 at slot 3 of [2, 1]: triple ('HV', 'HV', 'VH') but surgery predicts ('HV', 'HV', 'HV')",
        )
    ]


# ---------------------------------------------------------------------------
# command-line interface


def test_cli_map_gamma_json(capsys):
    rc = cli.main(["map", "--perm", "235419786", "--to", "gamma", "--render", "json"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {
        "bottom": {"start": [2, 0], "steps": "HVHVVHHV"},
        "middle": {"start": [1, 1], "steps": "VVHHVHVH"},
        "top": {"start": [0, 2], "steps": "VVHHVVHH"},
    }


def test_cli_map_laguerre(capsys):
    rc = cli.main(["map", "--perm", "512439786", "--to", "laguerre"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"word": "URUDDBUD", "weights": [1, 2, 2, 2, 1, 1, 1, 2]}


def test_cli_map_rejects_non_baxter(capsys):
    rc = cli.main(["map", "--perm", "2413", "--to", "gamma"])
    assert rc == 2
    assert "2-41-3" in capsys.readouterr().err
    rc = cli.main(["map", "--perm", "2413", "--to", "gamma", "--unchecked"])
    assert rc == 0


@pytest.mark.parametrize("target", ["psi", "laguerre"])
def test_cli_map_refuses_unchecked_where_it_has_no_effect(target, capsys):
    rc = cli.main(["map", "--perm", "2413", "--to", target, "--unchecked"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == "error: --unchecked applies only to --to gamma and --to gamma-prime\n"


def test_cli_map_rejects_bad_perm(capsys):
    rc = cli.main(["map", "--perm", "[1,2,2]", "--to", "gamma"])
    assert rc == 2
    assert "permutation" in capsys.readouterr().err


def test_cli_map_ascii(capsys):
    rc = cli.main(["map", "--perm", "21", "--to", "gamma", "--render", "ascii"])
    assert rc == 0
    assert capsys.readouterr().out.count("-") == 3


def test_cli_map_laguerre_ascii(capsys):
    assert cli.main(["map", "--perm", "2413", "--to", "laguerre", "--render", "ascii"]) == 0
    assert capsys.readouterr().out == "word:    U R D\nweights: 1 1 2\n"


def test_cli_enum_count(capsys):
    rc = cli.main(["enum", "--n", "3", "--k", "1", "--format", "count"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "4"
    rc = cli.main(["enum", "--n", "4", "--format", "count"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "22"


@pytest.mark.parametrize("k", ["0", "1499"])
def test_cli_enum_counts_the_single_triple_of_a_long_path(k, capsys):
    # one step word of 1,499 letters: deeper than the default recursion limit
    assert cli.main(["enum", "--n", "1500", "--k", k, "--format", "count"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_cli_enum_csv(capsys):
    rc = cli.main(["enum", "--n", "2", "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "bottom,middle,top"
    assert sorted(lines[1:]) == ["H,H,H", "V,V,V"]


def test_cli_enum_json(capsys):
    rc = cli.main(["enum", "--n", "2", "--k", "1", "--format", "json"])
    assert rc == 0
    arr = json.loads(capsys.readouterr().out)
    assert arr == [
        {
            "bottom": {"start": [2, 0], "steps": "H"},
            "middle": {"start": [1, 1], "steps": "H"},
            "top": {"start": [0, 2], "steps": "H"},
        }
    ]


@pytest.mark.parametrize("n", range(1, 6))
def test_cli_enum_json_streams_the_listed_form(n, capsys):
    for k in [None, *range(n)]:
        ks = range(n) if k is None else [k]
        rows = [json.dumps(jsonio.triple_to_obj(t)) for j in ks for t in enumerate_tlp(n, j)]
        argv = ["enum", "--n", str(n), "--format", "json"]
        assert cli.main(argv if k is None else [*argv, "--k", str(k)]) == 0
        assert capsys.readouterr().out == "[" + ",\n ".join(rows) + "]\n"


@pytest.mark.parametrize("argv", [["--n", "0"], ["--n", "-2", "--format", "csv"]])
def test_cli_enum_rejects_sizes_below_one(argv, capsys):
    assert cli.main(["enum", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: n must be >= 1\n"


@pytest.mark.parametrize("n", ["0", "-3"])
def test_cli_poly_rejects_sizes_below_one(n, capsys):
    assert cli.main(["poly", "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: n must be >= 1\n"


def test_cli_poly_rejects_sizes_above_the_cap(capsys):
    assert cli.POLY_MAX_N == 60
    assert cli.main(["poly", "--n", "61"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: poly --n is capped at 60, got 61\n"


def test_cli_poly_accepts_the_cap(monkeypatch, capsys):
    sizes = []

    def rhs(n):
        sizes.append(n)
        return TQPoly({(0, 0): 1})

    monkeypatch.setattr(cli, "baxter_polynomial_rhs", rhs)
    assert cli.main(["poly", "--n", "60"]) == 0
    assert sizes == [60] and json.loads(capsys.readouterr().out) == [{"t": 0, "q": 0, "c": "1"}]


def test_cli_verify_rejects_sizes_above_the_cap(capsys):
    # the polynomial suite builds the closed form at every size up to n
    assert cli.main(["verify", "--suite", "polynomial", "--n", "61"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: verify --n is capped at 60, got 61\n"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_verify_rejects_worker_counts_below_one(jobs, capsys):
    assert cli.main(["verify", "--suite", "counts", "--n", "3", "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: jobs must be >= 1\n"


def test_cli_verify_accepts_the_cap(monkeypatch, capsys):
    calls = []

    def run_suite(name, n, jobs=1):
        calls.append((name, n, jobs))
        return harness.Report(name, n, (Check("x", True, "ok"),), 0.0)

    monkeypatch.setattr(harness, "run_suite", run_suite)
    assert cli.main(["verify", "--suite", "polynomial", "--n", "60", "--json"]) == 0
    assert calls == [("polynomial", 60, 1)]
    assert json.loads(capsys.readouterr().out)["n"] == 60


@pytest.mark.parametrize("fmt", ["json", "csv", "count"])
def test_cli_enum_rejects_a_bad_k_before_any_output(fmt, capsys):
    assert cli.main(["enum", "--n", "3", "--k", "3", "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: k must lie in 0..2, got 3\n"


def test_cli_invert_round_trip(tmp_path, capsys):
    rc = cli.main(["map", "--perm", "235419786", "--to", "gamma"])
    triple_json = capsys.readouterr().out
    path = tmp_path / "triple.json"
    path.write_text(triple_json)
    rc = cli.main(["invert", "--from", "gamma", "--in", str(path)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == [2, 3, 5, 4, 1, 9, 7, 8, 6]
    rc = cli.main(["invert", "--from", "gamma-prime", "--in", str(path)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == [5, 1, 2, 4, 3, 9, 7, 8, 6]


def test_cli_invert_rejects_crossing_triple(tmp_path, capsys):
    obj = {
        "bottom": {"start": [2, 0], "steps": "HV"},
        "middle": {"start": [1, 1], "steps": "VH"},
        "top": {"start": [0, 2], "steps": "HV"},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    rc = cli.main(["invert", "--from", "gamma", "--in", str(path)])
    assert rc == 2
    assert "vertex-disjoint" in capsys.readouterr().err


def test_cli_rejects_deeply_nested_json(tmp_path, capsys):
    deep = "[" * 200000
    assert cli.main(["map", "--perm", deep, "--to", "gamma"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad permutation JSON: ") and captured.err.count("\n") == 1
    path = tmp_path / "deep.json"
    path.write_text(deep)
    assert cli.main(["invert", "--from", "psi", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad triple JSON: ") and captured.err.count("\n") == 1


def run_cli(argv, stdin):
    """Exit code, stdout and stderr of cli.main with the given stdin text."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def triple_objects(draw):
    """Triple objects of equal-length words from the right starts, with up to
    two paths spoiled: replaced whole, or given another start or steps."""
    m = draw(st.integers(0, 7))
    words = [draw(st.text("HV", min_size=m, max_size=m)) for _ in range(3)]
    obj = jsonio.triple_to_obj(PathTriple(*words))
    for name in draw(st.sets(st.sampled_from(sorted(obj)), max_size=2)):
        part = draw(st.sampled_from(["path", "start", "steps"]))
        if part == "path":
            obj[name] = draw(json_values)
        elif part == "start":
            pairs = st.lists(st.integers(-1, 3), min_size=2, max_size=2)
            obj[name]["start"] = draw(pairs | st.lists(st.booleans() | st.floats(0, 2), max_size=3))
        else:
            words = st.text("HV", max_size=m + 1) | st.text("HVX ", max_size=6)
            obj[name]["steps"] = draw(words | json_values)
    return obj


disjoint_triples = st.sampled_from(
    [jsonio.triple_to_obj(t) for n in range(1, 7) for k in range(n) for t in enumerate_tlp(n, k)]
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["gamma", "gamma-prime", "psi"]),
    json_values | triple_objects() | disjoint_triples,
)
def test_cli_invert_answers_or_names_one_error(source, obj):
    rc, out, err = run_cli(["invert", "--from", source, "--in", "-"], json.dumps(obj))
    if rc == 0:
        forward = {"gamma": gamma, "gamma-prime": gamma_prime, "psi": psi}[source]
        assert err == "" and jsonio.triple_to_obj(forward(tuple(json.loads(out)))) == obj
    else:
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_invert_missing_file(capsys):
    rc = cli.main(["invert", "--from", "gamma", "--in", "/no/such/file.json"])
    assert rc == 2


def test_cli_poly(capsys):
    rc = cli.main(["poly", "--n", "2"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == [
        {"t": 0, "q": 0, "c": "1"},
        {"t": 1, "q": 3, "c": "1"},
    ]


def test_cli_verify_pass(capsys):
    rc = cli.main(["verify", "--suite", "counts", "--n", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out and "FAIL" not in out
    assert "suite counts (n=5)" in out


def test_cli_verify_json(capsys):
    rc = cli.main(["verify", "--suite", "polynomial", "--n", "4", "--json"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["passed"] is True
    assert obj["suite"] == "polynomial"


def test_a_failed_division_at_n2_fails_the_golden_too(monkeypatch, capsys):
    real_rhs = harness.baxter_polynomial_rhs

    def rhs(m):
        if m == 2:
            raise harness.InexactDivisionError("t^1: nonzero remainder")
        return real_rhs(m)

    monkeypatch.setattr(harness, "baxter_polynomial_rhs", rhs)
    checks = {c.label: c for c in run_suite("polynomial", 3).checks}
    failed = (False, "division failed: t^1: nonzero remainder")
    assert (checks["tq-rhs-n2"].passed, checks["tq-rhs-n2"].detail) == failed
    assert (checks["tq-golden-n2"].passed, checks["tq-golden-n2"].detail) == failed
    assert checks["tq-rhs-n3"].passed
    assert cli.main(["verify", "--suite", "polynomial", "--n", "2"]) == 1
    assert "FAIL  tq-golden-n2" in capsys.readouterr().out


def test_tq_identity_names_the_first_differing_terms(monkeypatch):
    # the brute-force polynomial of n = 3 with a stray term t^0 q^5
    real = harness.baxter_polynomial_lhs

    def lhs(m):
        terms = {(a, b): c for a, b, c in real(m).terms()}
        return TQPoly({**terms, (0, 5): 1}) if m == 3 else real(m)

    monkeypatch.setattr(harness, "baxter_polynomial_lhs", lhs)
    assert _failures("polynomial", 3) == [
        ("tq-identity-n3", "coefficient mismatch, first differing terms [(0, 5, 1)]")
    ]


@pytest.mark.parametrize(
    "coeffs, detail",
    [({0: 1, 1: 2, 2: 1}, "[3,1]_q sums to 4, binomial is 3"), ({0: 2, 1: 1}, "[3,1]_q is not symmetric")],
    ids=["sum", "symmetry"],
)
def test_qbinomial_names_the_rule_that_a_polynomial_breaks(monkeypatch, coeffs, detail):
    real = harness.q_binomial
    monkeypatch.setattr(harness, "q_binomial", lambda m, k: QPoly(coeffs) if (m, k) == (3, 1) else real(m, k))
    assert _failures("polynomial", 3) == [("qbinomial-n3", detail)]


def test_tlp_count_names_the_k_whose_enumeration_is_short(monkeypatch):
    # the first triple of size 3 with one horizontal step per path dropped
    real = harness._tlp_words
    monkeypatch.setattr(harness, "_tlp_words", lambda m, k: list(real(m, k))[(m, k) == (3, 1) :])
    assert _failures("counts", 3) == [("tlp-count-n3", "k=1: enumerated 3, formula 4")]


def test_cli_verify_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "bogus", "--n", "3"])
    assert exc.value.code == 2


def test_cli_verify_failure_exit_code(monkeypatch, capsys):
    # sabotage one formula so a check genuinely fails
    monkeypatch.setattr(harness, "baxter_number", lambda n: 999)
    rc = cli.main(["verify", "--suite", "counts", "--n", "2"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "999" in out
