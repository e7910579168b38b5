"""Tests of the benchmark's own oracles, input generator and tally.

    python3 -m pytest baxbench -q

Each oracle is checked against known small values and shown to reject a
deliberately wrong answer.  Nothing here imports baxlab.
"""
import json
import random
from itertools import permutations, product

import oracles
from workloads import BigPerm, PolySweep, VerifyAll, random_baxter

BAXTER = [1, 2, 6, 22, 92, 422, 2074, 10754]


def test_baxter_numbers_and_summands():
    assert [oracles.baxter_number(n) for n in range(1, 9)] == BAXTER
    # the k-th summands of n = 4: 1 + 10 + 10 + 1 triples
    assert [oracles.tlp_summand(4, k) for k in range(4)] == [1, 10, 10, 1]
    assert oracles.baxter_number(8) != 10753


def test_catalan_and_history_counts():
    assert [oracles.catalan(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]
    assert [oracles.history_count(m) for m in range(4)] == [1, 2, 6, 24]


def test_pattern_definition_counts_baxter_permutations():
    for n in range(1, 8):
        count = sum(oracles.is_baxter_by_definition(p) for p in permutations(range(1, n + 1)))
        assert count == BAXTER[n - 1]
    assert not oracles.is_baxter_by_definition((2, 4, 1, 3))
    assert not oracles.is_baxter_by_definition((3, 1, 4, 2))
    assert oracles.is_baxter_by_definition((2, 3, 5, 4, 1, 9, 7, 8, 6))


def test_descent_sets():
    s = oracles.descent_sets((2, 3, 5, 4, 1, 9, 7, 8, 6))
    assert s["des"] == {3, 4, 6, 8}
    assert s["dt"] == {5, 4, 9, 8}
    assert s["db"] == {4, 1, 7, 6}
    # the inverse is (5, 1, 2, 4, 3, 9, 7, 8, 6)
    assert s["ides"] == {1, 4, 6, 8}
    assert s["idt"] == {5, 4, 9, 8}
    assert s["idb"] == {1, 3, 7, 6}
    assert s["des"] != {3, 4, 6}


def test_triple_sets_of_the_readme_example():
    # baxlab's README: gamma((2,3,5,4,1,9,7,8,6)).bottom.steps == 'HVHVVHHV'
    bottom, middle, top = oracles.triple_sets((2, 3, 5, 4, 1, 9, 7, 8, 6))["gamma"]
    assert bottom == oracles.h_positions("HVHVVHHV")
    assert middle == {3, 4, 6, 8}
    assert top == {3, 4, 7, 8}


def test_prefix_count_disjointness_matches_vertex_sets():
    def vertices(start, steps):
        x, y = start
        out = {(x, y)}
        for c in steps:
            x, y = (x + 1, y) if c == "H" else (x, y + 1)
            out.add((x, y))
        return out

    words = ["".join(w) for w in product("HV", repeat=4)]
    for b in words:
        for m in words:
            for t in words:
                vb = vertices(oracles.STARTS["bottom"], b)
                vm = vertices(oracles.STARTS["middle"], m)
                vt = vertices(oracles.STARTS["top"], t)
                want = not (vb & vm or vb & vt or vm & vt)
                assert oracles.disjoint_by_prefix_counts(b, m, t) == want
    assert not oracles.disjoint_by_prefix_counts("VV", "HH", "VV")
    assert not oracles.disjoint_by_prefix_counts("HH", "H", "H")


def test_palindromy():
    assert oracles.is_palindromic({3: 1, 4: 2, 5: 1})
    assert oracles.is_palindromic({})
    assert not oracles.is_palindromic({3: 1, 4: 2, 5: 2})


def test_brute_lhs_of_size_three():
    # 6 Baxter permutations: t^des q^(imaj_B + maj + imaj_T)
    lhs = oracles.brute_lhs(3)
    assert sum(lhs.values()) == 6
    assert lhs[(0, 0)] == 1 and lhs[(2, 9)] == 1
    assert oracles.brute_lhs(2) == {(0, 0): 1, (1, 3): 1}


def test_rhs_errors_accepts_the_true_polynomial_and_rejects_wrong_ones():
    true_terms = [(a, b, c) for (a, b), c in sorted(oracles.brute_lhs(5).items())]
    assert oracles.rhs_errors(5, true_terms, oracles.brute_lhs(5)) == []
    # one coefficient moved to another q-degree: sums hold, palindromy breaks
    a, b, c = true_terms[3]
    moved = true_terms[:3] + [(a, b + 1, c)] + true_terms[4:]
    assert oracles.rhs_errors(5, moved, None)
    # one coefficient off by one: the value at t = q = 1 breaks
    bumped = true_terms[:-1] + [(true_terms[-1][0], true_terms[-1][1], true_terms[-1][2] + 1)]
    assert oracles.rhs_errors(5, bumped, None)
    # a palindromic slice with the right sums that is still not the brute sum
    assert oracles.rhs_errors(2, [(0, 0, 1), (1, 2, 1)], oracles.brute_lhs(2))


def test_random_baxter_is_baxter_and_reaches_every_permutation():
    rng = random.Random(7)
    seen = set()
    for _ in range(20000):
        p = random_baxter(6, rng)
        assert oracles.is_baxter_by_definition(p)
        seen.add(p)
    assert len(seen) == BAXTER[5]
    big = random_baxter(60, random.Random(1))
    assert sorted(big) == list(range(1, 61))
    assert random_baxter(60, random.Random(1)) == big


def _steps(positions, length):
    return "".join("H" if i in positions else "V" for i in range(1, length + 1))


def test_bigperm_check_accepts_oracle_output_and_rejects_corruptions():
    w = BigPerm(seed=3)
    p = w.pool[0]
    m = len(p) - 1
    good = {"laguerre": (json.dumps({"word": "U" * m, "weights": [1] * m}), json.dumps(list(p)))}
    for name, sets in oracles.triple_sets(p).items():
        obj = {part: {"start": list(oracles.STARTS[part]), "steps": _steps(s, m)}
               for part, s in zip(("bottom", "middle", "top"), sets)}
        good[name] = (json.dumps(obj), json.dumps(list(p)))
    assert w.check(0, good) == []
    # a wrong inverse
    swapped = list(p)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert w.check(0, {**good, "psi": (good["psi"][0], json.dumps(swapped))})
    # a top path that is one H step off
    obj = json.loads(good["gamma"][0])
    top = obj["top"]["steps"]
    obj["top"]["steps"] = ("V" if top[0] == "H" else "H") + top[1:]
    assert w.check(0, {**good, "gamma": (json.dumps(obj), good["gamma"][1])})


def _report(suite, checks):
    return json.dumps({"suite": suite, "n": 8, "passed": all(c[1] for c in checks),
                       "checks": [{"label": l, "passed": ok, "detail": d} for l, ok, d in checks]})


def test_verify_check_reads_level_sizes_against_the_oracle():
    w = VerifyAll(seed=1)
    good = [(f"baxter-count-n{m}", True, f"generator {b}, formula {b}, filter {b}")
            for m, b in enumerate(BAXTER, start=1)]
    assert w.check(4, (0, _report("counts", good))) == []
    assert w.round_errors() == []
    wrong = good[:-1] + [("baxter-count-n8", True, "generator 10753, formula 10753, filter 10753")]
    assert w.check(4, (0, _report("counts", wrong)))
    failing = good[:-1] + [("baxter-count-n8", False, "generator 10754, formula 10754")]
    assert w.check(4, (1, _report("counts", failing)))
    # a round whose reports never state the size of level 8
    w.round_errors()
    w.check(4, (0, _report("counts", good[:-1])))
    assert w.round_errors()


def test_poly_check_uses_the_brute_force_sum():
    w = PolySweep(seed=1)

    class Poly:
        def __init__(self, terms):
            self._terms = terms

        def terms(self):
            return self._terms

    true3 = [(a, b, c) for (a, b), c in sorted(oracles.brute_lhs(3).items())]
    assert w.check(2, Poly(true3)) == []
    assert w.check(2, Poly(true3[:-1]))


def test_a_check_that_raises_marks_the_run_wrong_instead_of_stopping_it():
    import run

    class Garbled(PolySweep):
        def check(self, index, output):
            return json.loads(output)  # not JSON: raises

    tally = run.Tally()
    tally.run_round(Garbled(seed=1), [lambda: "<html>", lambda: 1 / 0])
    assert (tally.attempted, tally.failed, len(tally.errors)) == (2, 1, 1)
    assert run.percentiles([]) == (0.0, 0.0)
    assert run.percentiles([0.5]) == (0.5, 0.5)
