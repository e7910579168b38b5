from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from baxlab.paths import (
    BOTTOM_START,
    MIDDLE_START,
    TOP_START,
    LatticePath,
    PathTriple,
    decode_path,
    encode_set,
    enumerate_tlp,
    expected_endpoints,
    h_prefix,
    is_nonintersecting,
    tlp_parameters,
)
from vertex_oracles import all_triples, is_nonintersecting_by_vertices

EX9_BOTTOM = LatticePath(BOTTOM_START, "HVHVVHHV")
EX9_MIDDLE = LatticePath(MIDDLE_START, "VVHHVHVH")
EX9_TOP = LatticePath(TOP_START, "VVHHVVHH")
EX9_TRIPLE = PathTriple(EX9_BOTTOM, EX9_MIDDLE, EX9_TOP)


def brute_tlp(n, k):
    """Full three-way enumeration with a plain disjointness filter (oracle)."""
    m = n - 1

    def words():
        for hs in combinations(range(1, m + 1), k):
            yield "".join("H" if i in hs else "V" for i in range(1, m + 1))

    out = []
    for wb in words():
        b = LatticePath(BOTTOM_START, wb)
        vb = set(b.vertices())
        for wm in words():
            mid = LatticePath(MIDDLE_START, wm)
            vm = set(mid.vertices())
            if vb & vm:
                continue
            for wt in words():
                t = LatticePath(TOP_START, wt)
                if (vb | vm) & set(t.vertices()):
                    continue
                out.append((wb, wm, wt))
    return out


def test_lattice_path_validation():
    with pytest.raises(ValueError):
        LatticePath((-1, 0), "H")
    with pytest.raises(ValueError):
        LatticePath((0, 0), "HX")
    assert len(LatticePath((0, 0), "")) == 0


@pytest.mark.parametrize("start", [(1.5, 0), ("a", 0), (True, 0), (0, False)])
def test_lattice_path_rejects_non_integer_starts(start):
    with pytest.raises(ValueError, match="integers"):
        LatticePath(start, "H")


def test_h_prefix():
    assert h_prefix("") == [0]
    assert h_prefix("HVHVVHHV") == [0, 1, 1, 2, 2, 2, 3, 4, 4]


def test_encode_set_golden():
    assert encode_set({3, 4, 6, 8}, 8, (1, 1)) == EX9_MIDDLE
    assert encode_set(set(), 5, (0, 2)) == LatticePath((0, 2), "VVVVV")
    single = encode_set({1}, 1, (2, 0))
    assert single.steps == "H" and single.end == (3, 0)


def test_encode_set_rejects_out_of_range():
    with pytest.raises(ValueError):
        encode_set({0}, 3, (0, 0))
    with pytest.raises(ValueError):
        encode_set({4}, 3, (0, 0))


def test_decode_path_golden():
    assert decode_path(EX9_TOP) == frozenset({3, 4, 7, 8})
    assert decode_path(LatticePath((0, 2), "VVV")) == frozenset()
    assert decode_path(LatticePath((0, 0), "HVH")) == frozenset({1, 3})


def test_encode_decode_round_trip_all_subsets():
    for m in range(0, 11):
        for r in range(m + 1):
            for s in combinations(range(1, m + 1), r):
                assert decode_path(encode_set(s, m, (0, 0))) == frozenset(s)


@given(st.integers(0, 14).flatmap(lambda m: st.tuples(st.just(m), st.sets(st.integers(1, max(m, 1))))))
def test_encode_decode_round_trip_random(mo):
    m, s = mo
    s = {i for i in s if i <= m}
    assert decode_path(encode_set(s, m, (3, 5))) == frozenset(s)


def test_vertices_goldens():
    assert LatticePath((2, 0), "HV").vertices() == ((2, 0), (3, 0), (3, 1))
    assert LatticePath((0, 2), "").vertices() == ((0, 2),)
    assert EX9_BOTTOM.vertices() == (
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
    with pytest.raises(ValueError):
        PathTriple(EX9_BOTTOM, EX9_MIDDLE, LatticePath(TOP_START, "VV"))
    with pytest.raises(ValueError):
        PathTriple(EX9_MIDDLE, EX9_BOTTOM, EX9_TOP)
    assert EX9_TRIPLE.n == 9


def test_is_nonintersecting():
    assert is_nonintersecting(EX9_TRIPLE)
    vertical = PathTriple(
        LatticePath(BOTTOM_START, "VVV"),
        LatticePath(MIDDLE_START, "VVV"),
        LatticePath(TOP_START, "VVV"),
    )
    assert is_nonintersecting(vertical)
    crossing = PathTriple(
        LatticePath(BOTTOM_START, "V"),
        LatticePath(MIDDLE_START, "H"),
        LatticePath(TOP_START, "V"),
    )
    # both bottom and middle visit (2, 1)
    assert not is_nonintersecting(crossing)
    balanced_crossing = PathTriple(
        LatticePath(BOTTOM_START, "HV"),
        LatticePath(MIDDLE_START, "VH"),
        LatticePath(TOP_START, "HV"),
    )
    # middle and top both visit (1, 2), with one horizontal step each
    assert not is_nonintersecting(balanced_crossing)
    with pytest.raises(ValueError, match="vertex-disjoint"):
        tlp_parameters(balanced_crossing)


def test_is_nonintersecting_matches_vertex_oracle():
    for m in range(0, 6):
        for t in all_triples(m):
            assert is_nonintersecting(t) == is_nonintersecting_by_vertices(t), t


def test_tlp_parameters_requires_equal_h_counts():
    t = PathTriple(
        LatticePath(BOTTOM_START, "HV"),
        LatticePath(MIDDLE_START, "VV"),
        LatticePath(TOP_START, "VV"),
    )
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
    assert only[0].bottom.steps == only[0].middle.steps == only[0].top.steps == "H"

    empty = list(enumerate_tlp(1, 0))
    assert len(empty) == 1
    assert empty[0].bottom.steps == ""

    assert sum(1 for _ in enumerate_tlp(3, 1)) == 4


def test_enumerate_tlp_matches_brute_force_and_is_sorted():
    for n in range(1, 6):
        for k in range(n):
            got = [(t.bottom.steps, t.middle.steps, t.top.steps) for t in enumerate_tlp(n, k)]
            assert got == sorted(got)
            assert len(set(got)) == len(got)
            assert got == sorted(brute_tlp(n, k))


def test_enumerate_tlp_members_satisfy_invariants():
    for n in range(1, 6):
        for k in range(n):
            for t in enumerate_tlp(n, k):
                assert tlp_parameters(t) == (n, k)
                assert (t.bottom.end, t.middle.end, t.top.end) == expected_endpoints(n, k)


def test_enumerate_tlp_counts_match_formula_up_to_nine():
    from baxlab.qseries import baxter_number, tlp_count_formula

    for n in range(1, 10):
        total = 0
        for k in range(n):
            count = sum(1 for _ in enumerate_tlp(n, k))
            assert count == tlp_count_formula(n, k), (n, k)
            total += count
        assert total == baxter_number(n)
