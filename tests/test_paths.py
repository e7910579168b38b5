from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from baxlab.bijections import gamma
from baxlab.jsonio import triple_from_obj
from baxlab.paths import (
    BOTTOM_START,
    MIDDLE_START,
    TOP_START,
    PathTriple,
    decode_path,
    encode_set,
    enumerate_tlp,
    expected_endpoints,
    h_prefix,
    is_nonintersecting,
    render_ascii,
    tlp_parameters,
)
from vertex_oracles import all_triples, is_nonintersecting_by_vertices, vertices

EX9_BOTTOM = "HVHVVHHV"
EX9_MIDDLE = "VVHHVHVH"
EX9_TOP = "VVHHVVHH"
EX9_TRIPLE = PathTriple(EX9_BOTTOM, EX9_MIDDLE, EX9_TOP)


def brute_tlp(n, k):
    """Full three-way enumeration with a plain disjointness filter (oracle)."""
    m = n - 1

    def words():
        for hs in combinations(range(1, m + 1), k):
            yield "".join("H" if i in hs else "V" for i in range(1, m + 1))

    out = []
    for wb in words():
        vb = set(vertices(BOTTOM_START, wb))
        for wm in words():
            vm = set(vertices(MIDDLE_START, wm))
            if vb & vm:
                continue
            for wt in words():
                if (vb | vm) & set(vertices(TOP_START, wt)):
                    continue
                out.append((wb, wm, wt))
    return out


def test_lattice_path_validation():
    # a path is its step word; its start is fixed by its place in a triple
    with pytest.raises(ValueError, match=r"bottom path must start at \(2, 0\), got \(-1, 0\)"):
        triple_from_obj(
            {
                "bottom": {"start": [-1, 0], "steps": "H"},
                "middle": {"start": list(MIDDLE_START), "steps": "H"},
                "top": {"start": list(TOP_START), "steps": "H"},
            }
        )
    with pytest.raises(ValueError, match=r"^steps must be a word over 'HV': 'HX'$"):
        PathTriple("HX", "HV", "HV")
    assert len(PathTriple("", "", "").bottom) == 0


def test_h_prefix():
    assert h_prefix("") == [0]
    assert h_prefix("HVHVVHHV") == [0, 1, 1, 2, 2, 2, 3, 4, 4]
    # a foreign letter's byte is not a count of H steps, and 123 is not a word
    for steps in ["HX", 123]:
        with pytest.raises(ValueError) as info:
            h_prefix(steps)
        assert str(info.value) == f"steps must be a word over 'HV': {steps!r}"


def test_encode_set_golden():
    assert encode_set({3, 4, 6, 8}, 8) == EX9_MIDDLE
    assert encode_set(set(), 5) == "VVVVV"
    assert encode_set({1}, 1) == "H"
    assert encode_set((), 0) == ""


def test_encode_set_rejects_out_of_range():
    with pytest.raises(ValueError):
        encode_set({0}, 3)
    with pytest.raises(ValueError):
        encode_set({4}, 3)
    # every message is one short line, whatever the size of s
    for s, message in [
        ([4, 0], "set elements [0, 4] fall outside 1..3"),
        (
            range(-10**5, 0),
            "set elements [-100000, -99999, -99998, -99997, -99996, -99995, ...] fall outside 1..3",
        ),
        ([1.0, True], "set elements must be integers: [1.0, True]"),
        (["a"], "set elements must be integers: ['a']"),
        (
            [1] * 99999 + [None],
            "set elements must be integers: [1, 1, 1, 1, 1, 1, ...], entry 100000 is None",
        ),
        (3, "set must be an iterable of integers: 3"),
    ]:
        with pytest.raises(ValueError) as info:
            encode_set(s, 3)
        assert str(info.value) == message


def test_decode_path_rejects_foreign_letters():
    # every message is one short line that names the bad letter
    for steps, message in [
        ("HXhH", "steps must be a word over 'HV': 'HXhH'"),
        (123, "steps must be a word over 'HV': 123"),
        (
            "H" * 99_999 + "x",
            "steps must be a word over 'HV': 'HHHHHHHHHHHH...HHHHHHHHHHHHx', entry 100000 is 'x'",
        ),
    ]:
        with pytest.raises(ValueError) as info:
            decode_path(steps)
        assert str(info.value) == message


def test_decode_path_golden():
    assert decode_path(EX9_TOP) == frozenset({3, 4, 7, 8})
    assert decode_path("VVV") == frozenset()
    assert decode_path("HVH") == frozenset({1, 3})


def test_encode_decode_round_trip_all_subsets():
    for m in range(0, 11):
        for r in range(m + 1):
            for s in combinations(range(1, m + 1), r):
                assert decode_path(encode_set(s, m)) == frozenset(s)


@given(st.integers(0, 14).flatmap(lambda m: st.tuples(st.just(m), st.sets(st.integers(1, max(m, 1))))))
def test_encode_decode_round_trip_random(mo):
    m, s = mo
    s = {i for i in s if i <= m}
    assert decode_path(encode_set(s, m)) == frozenset(s)


def test_vertices_goldens():
    # the oracle that the vertex-set tests and the renderer test read
    assert vertices((2, 0), "HV") == ((2, 0), (3, 0), (3, 1))
    assert vertices((0, 2), "") == ((0, 2),)
    assert vertices(BOTTOM_START, EX9_BOTTOM) == (
        (2, 0),
        (3, 0),
        (3, 1),
        (4, 1),
        (4, 2),
        (4, 3),
        (5, 3),
        (6, 3),
        (6, 4),
    )


def test_path_triple_validation():
    with pytest.raises(ValueError, match=r"^paths must have equal lengths, got 8/8/2$"):
        PathTriple(EX9_BOTTOM, EX9_MIDDLE, "VV")
    for bad in ("HX", "hv", "H V", None, ["H", "V"]):
        with pytest.raises(ValueError, match=r"^steps must be a word over 'HV': "):
            PathTriple("HV", bad, "HV")
    assert EX9_TRIPLE.n == 9
    assert PathTriple("", "", "").n == 1


def test_path_triples_are_values_ordered_by_their_words():
    t = PathTriple(EX9_BOTTOM, EX9_MIDDLE, EX9_TOP)
    assert t == EX9_TRIPLE and hash(t) == hash(EX9_TRIPLE)
    assert len({t, EX9_TRIPLE}) == 1
    assert not hasattr(t, "__dict__")  # slotted: sets of many triples stay small
    assert PathTriple("HV", "HV", "VH") < PathTriple("HV", "VH", "HV") < PathTriple("VH", "HV", "HV")
    with pytest.raises(AttributeError):
        t.top = "HHHHVVVV"
    # a triple is the tuple of its words
    assert t == (EX9_BOTTOM, EX9_MIDDLE, EX9_TOP) and tuple(t) == (t.bottom, t.middle, t.top)
    bottom, _, top = t
    assert (bottom, top, t[1]) == (EX9_BOTTOM, EX9_TOP, EX9_MIDDLE)
    assert repr(PathTriple("H", "V", "H")) == "PathTriple(bottom='H', middle='V', top='H')"


def test_make_and_replace_check_the_words():
    # a NamedTuple's own _make, which _replace calls, builds the tuple without __new__
    with pytest.raises(ValueError) as info:
        PathTriple._make(("HX", "", ""))
    assert str(info.value) == "steps must be a word over 'HV': 'HX'"
    with pytest.raises(ValueError) as info:
        EX9_TRIPLE._replace(top="VV")
    assert str(info.value) == "paths must have equal lengths, got 8/8/2"
    assert PathTriple._make(["H", "V", "H"])._replace(top="V") == PathTriple("H", "V", "V")


def test_is_nonintersecting():
    assert is_nonintersecting(EX9_TRIPLE)
    vertical = PathTriple("VVV", "VVV", "VVV")
    assert is_nonintersecting(vertical)
    crossing = PathTriple("V", "H", "V")
    # both bottom and middle visit (2, 1)
    assert not is_nonintersecting(crossing)
    balanced_crossing = PathTriple("HV", "VH", "HV")
    # middle and top both visit (1, 2), with one horizontal step each
    assert not is_nonintersecting(balanced_crossing)
    with pytest.raises(ValueError, match="vertex-disjoint"):
        tlp_parameters(balanced_crossing)


def test_is_nonintersecting_matches_vertex_oracle():
    for m in range(0, 6):
        for t in all_triples(m):
            assert is_nonintersecting(t) == is_nonintersecting_by_vertices(t), t


def test_tlp_parameters_requires_equal_h_counts():
    t = PathTriple("HV", "VV", "VV")
    with pytest.raises(ValueError, match="horizontal"):
        tlp_parameters(t)
    assert tlp_parameters(EX9_TRIPLE) == (9, 4)


def test_expected_endpoints():
    assert expected_endpoints(9, 4) == ((6, 4), (5, 5), (4, 6))
    assert expected_endpoints(2, 1) == ((3, 0), (2, 1), (1, 2))
    assert expected_endpoints(1, 0) == ((2, 0), (1, 1), (0, 2))
    with pytest.raises(ValueError):
        expected_endpoints(3, 3)
    with pytest.raises(ValueError):
        expected_endpoints(3, -1)


def test_enumerate_tlp_small_cases():
    only = list(enumerate_tlp(2, 1))
    assert len(only) == 1
    assert only == [PathTriple("H", "H", "H")]

    empty = list(enumerate_tlp(1, 0))
    assert len(empty) == 1
    assert empty == [PathTriple("", "", "")]

    assert sum(1 for _ in enumerate_tlp(3, 1)) == 4


def test_enumerate_tlp_matches_brute_force_and_is_sorted():
    for n in range(1, 6):
        for k in range(n):
            got = list(enumerate_tlp(n, k))
            assert got == sorted(got)
            assert len(set(got)) == len(got)
            assert [(t.bottom, t.middle, t.top) for t in got] == sorted(brute_tlp(n, k))


def test_enumerate_tlp_members_satisfy_invariants():
    for n in range(1, 6):
        for k in range(n):
            for t in enumerate_tlp(n, k):
                assert tlp_parameters(t) == (n, k)
                ends = tuple(
                    vertices(start, steps)[-1]
                    for start, steps in (
                        (BOTTOM_START, t.bottom),
                        (MIDDLE_START, t.middle),
                        (TOP_START, t.top),
                    )
                )
                assert ends == expected_endpoints(n, k)


def test_enumerate_tlp_counts_match_formula_up_to_nine():
    from baxlab.qseries import baxter_number, tlp_count_formula

    for n in range(1, 10):
        total = 0
        for k in range(n):
            count = sum(1 for _ in enumerate_tlp(n, k))
            assert count == tlp_count_formula(n, k), (n, k)
            total += count
        assert total == baxter_number(n)


def canvas_marks(text, mark):
    """Grid coordinates of every occurrence of mark in a rendering."""
    rows = text.split("\n")
    height = len(rows)
    out = set()
    for r, row in enumerate(rows):
        for c, ch in enumerate(row):
            if ch == mark:
                assert r % 2 == 0 and c % 2 == 0, "vertices sit on even cells"
                out.add((c // 2, (height - 1 - r) // 2))
    return out


def test_render_ascii_traces_the_vertices():
    t = EX9_TRIPLE
    text = render_ascii(t)
    assert canvas_marks(text, "B") == set(vertices(BOTTOM_START, t.bottom))
    assert canvas_marks(text, "M") == set(vertices(MIDDLE_START, t.middle))
    assert canvas_marks(text, "T") == set(vertices(TOP_START, t.top))


def test_render_ascii_empty_triple_shows_three_markers():
    t = PathTriple("", "", "")
    text = render_ascii(t)
    assert canvas_marks(text, "B") == {(2, 0)}
    assert canvas_marks(text, "M") == {(1, 1)}
    assert canvas_marks(text, "T") == {(0, 2)}
    assert "-" not in text and "|" not in text


def test_render_ascii_single_h_segments():
    t = gamma((2, 1))
    text = render_ascii(t)
    assert text.count("-") == 3
    assert "|" not in text
