"""The three workloads: their inputs, one round of operations, and the
checks of every output against the oracles.

A workload's round is a fixed list of operations.  ``run.py`` calls each one
with the clock running and then hands its output to ``check``, whose time
counts in no metric.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import re
from math import factorial

import oracles

VERIFY_N = 8
BIGPERM_N = 500
BIGPERM_POOL = 104
POLY_MAX_N = 27
BRUTE_MAX_N = 7
SUITES = ("bijection", "roundtrip", "lemma-encodings", "polynomial", "counts", "corollaries")


# ---------------------------------------------------------------------------
# seeded Baxter permutations, grown without baxlab

def random_baxter(n: int, rng: random.Random) -> tuple[int, ...]:
    """A Baxter permutation of size n grown by inserting 2, ..., n, each into
    a slot drawn uniformly from the allowed ones: just before a left-to-right
    maximum or just after a right-to-left maximum.

    The new maximum m, inserted at index x, ends every left-to-right maximum
    after x and every right-to-left maximum before it, so both index lists
    are updated in place of a rescan.
    """
    p = [1]
    lr = [0]  # indices of the left-to-right maxima, increasing
    rl = [0]  # indices of the right-to-left maxima, increasing
    for m in range(2, n + 1):
        slots = lr + [i + 1 for i in rl]
        x = rng.choice(slots)
        p.insert(x, m)
        lr = [i for i in lr if i < x] + [x]
        rl = [x] + [i + 1 for i in rl if i >= x]
    return tuple(p)


def baxter_pool(n: int, count: int, seed: int) -> list[tuple[int, ...]]:
    rng = random.Random(seed)
    return [random_baxter(n, rng) for _ in range(count)]


# ---------------------------------------------------------------------------

class Workload:
    name = ""
    entry_module = "baxlab"  # what a user of this workload imports
    min_rounds = 3  # so every operation is timed at least three times

    def probe_input(self) -> str:
        """Text the set-up probe loads through baxlab (one JSON value a line)."""
        return ""

    def load(self) -> None:
        """Load the inputs through baxlab, as the set-up probe times it."""

    def operations(self) -> list:
        """One round: a list of zero-argument callables."""
        raise NotImplementedError

    def check(self, index: int, output) -> list[str]:
        """Oracle errors for the output of operation ``index``."""
        raise NotImplementedError

    def round_errors(self) -> list[str]:
        """Errors only a whole round can show; called after each round."""
        return []


class VerifyAll(Workload):
    """The six suites of ``baxlab verify --suite all --n 8``, one per
    operation, each through the CLI with ``--jobs 1 --json``."""

    name = "verify-all-n8"
    entry_module = "baxlab.cli"

    # (label pattern, detail pattern, expected numbers for size m, whether
    # the numbers are the size of the Baxter level m)
    LEVEL_CHECKS = [
        (r"gamma-image-n(\d+)", r"exhausts all (\d+) triples", lambda m: [oracles.baxter_number(m)], True),
        (r"fv-roundtrip-n(\d+)", r"on all (\d+) permutations", lambda m: [factorial(m)], False),
        (r"history-roundtrip-len(\d+)", r"all (\d+) histories", lambda m: [oracles.history_count(m)], False),
        (r"gamma-prime-roundtrip-n(\d+)", r"returns all (\d+) Baxter", lambda m: [oracles.baxter_number(m)], True),
        (r"psi-roundtrip-n(\d+)", r"on all (\d+) Baxter", lambda m: [oracles.baxter_number(m)], True),
        (r"tlp-roundtrip-n(\d+)", r"all (\d+) triples round trip", lambda m: [oracles.baxter_number(m)], True),
        (r"psi-encodings-n(\d+)", r"on all (\d+) permutations", lambda m: [oracles.baxter_number(m)], True),
        (
            r"statistic-injectivity-n(\d+)",
            r"all (\d+) statistic triples",
            lambda m: [oracles.baxter_number(m)],
            True,
        ),
        (
            r"tq-rhs-n(\d+)",
            r"t=q=1 is (\d+), Baxter number is (\d+)",
            lambda m: [oracles.baxter_number(m)] * 2,
            True,
        ),
        (
            r"baxter-count-n(\d+)",
            r"generator (\d+), formula (\d+)",
            lambda m: [oracles.baxter_number(m)] * 2,
            True,
        ),
        (r"tlp-count-n(\d+)", r"all (\d+) triples accounted", lambda m: [oracles.baxter_number(m)], True),
        (
            r"summand-sum-n(\d+)",
            r"sum (\d+), Baxter number (\d+)",
            lambda m: [oracles.baxter_number(m)] * 2,
            True,
        ),
        (
            r"(?:alternating-count|alt-catalan-product)-n(\d+)",
            r"alternating (\d+), reverse (\d+), Catalan product (\d+)",
            lambda m: [oracles.catalan(m // 2) * oracles.catalan((m + 1) // 2)] * 3,
            False,
        ),
        (r"catalan-genocchi-n(\d+)", r": (\d+), Catalan (\d+)", lambda m: [oracles.catalan(m // 2)] * 2, False),
    ]

    def __init__(self, seed: int) -> None:
        self.levels_seen: set[int] = set()

    def load(self) -> None:
        from baxlab import cli

        self.cli = cli

    def operations(self) -> list:
        def suite(name):
            def op():
                out = io.StringIO()
                argv = ["verify", "--suite", name, "--n", str(VERIFY_N), "--jobs", "1", "--json"]
                with contextlib.redirect_stdout(out):
                    code = self.cli.main(argv)
                if code == 2:
                    raise RuntimeError(f"baxlab {' '.join(argv)} exited with 2")
                return code, out.getvalue()

            return op

        return [suite(name) for name in SUITES]

    def check(self, index: int, output) -> list[str]:
        code, text = output
        report = json.loads(text)
        errors = []
        if code != 0 or not report["passed"]:
            errors.append(f"suite {report['suite']} exited {code}")
        for c in report["checks"]:
            label, detail = c["label"], c["detail"]
            if not c["passed"]:
                errors.append(f"{label} failed: {detail}")
            for label_re, detail_re, expect, is_level in self.LEVEL_CHECKS:
                lm = re.fullmatch(label_re, label)
                if lm is None:
                    continue
                dm = re.search(detail_re, detail)
                m = int(lm.group(1))
                if dm is None or [int(g) for g in dm.groups()] != expect(m):
                    errors.append(f"{label}: {detail!r}, oracle says {expect(m)}")
                elif is_level:
                    self.levels_seen.add(m)
        return errors

    def round_errors(self) -> list[str]:
        missing = set(range(1, VERIFY_N + 1)) - self.levels_seen
        self.levels_seen = set()
        return [f"no check confirmed the Baxter level sizes for n in {sorted(missing)}"] if missing else []


class BigPerm(Workload):
    """Seeded Baxter permutations of size 500, each mapped by gamma,
    gamma_prime, psi and psi_fv to JSON and inverted back, as
    ``baxlab map`` followed by ``baxlab invert`` does."""

    name = "bigperm-n500"

    def __init__(self, seed: int) -> None:
        self.pool = baxter_pool(BIGPERM_N, BIGPERM_POOL, seed)
        self.expected = [oracles.triple_sets(p) for p in self.pool]

    def probe_input(self) -> str:
        return "".join(json.dumps(list(p)) + "\n" for p in self.pool)

    def load(self) -> None:
        from baxlab import bijections, jsonio, laguerre

        self.perms = [jsonio.perm_from_obj(json.loads(line)) for line in self.probe_input().splitlines()]
        self.modules = bijections, jsonio, laguerre

    def operations(self) -> list:
        bijections, jsonio, laguerre = self.modules
        maps = [
            ("gamma", "gamma_inverse"),
            ("gamma_prime", "gamma_prime_inverse"),
            ("psi", "psi_inverse"),
        ]

        # Functions are looked up on their modules at call time, so that a
        # traced run sees the wrappers it installed.
        def round_trip(p):
            def op():
                out = {}
                for forward, backward in maps:
                    text = json.dumps(jsonio.triple_to_obj(getattr(bijections, forward)(p)))
                    triple = jsonio.triple_from_obj(json.loads(text), strict=True)
                    back = getattr(bijections, backward)(triple)
                    out[forward] = (text, json.dumps(jsonio.perm_to_obj(back)))
                text = json.dumps(jsonio.history_to_obj(laguerre.psi_fv(p)))
                back = laguerre.psi_fv_inverse(jsonio.history_from_obj(json.loads(text)))
                out["laguerre"] = (text, json.dumps(jsonio.perm_to_obj(back)))
                return out

            return op

        return [round_trip(p) for p in self.perms]

    def check(self, index: int, output) -> list[str]:
        p = self.pool[index]
        errors = []
        for name, (text, back) in output.items():
            if tuple(json.loads(back)) != p:
                errors.append(f"{name} of permutation {index} does not round trip")
            if name == "laguerre":
                if len(json.loads(text)["word"]) != len(p) - 1:
                    errors.append(f"history of permutation {index} has the wrong length")
                continue
            t = json.loads(text)
            parts = ("bottom", "middle", "top")
            if any(t[part]["start"] != list(oracles.STARTS[part]) for part in parts):
                errors.append(f"{name} of permutation {index} starts in the wrong place")
            steps = [t[part]["steps"] for part in parts]
            if tuple(oracles.h_positions(s) for s in steps) != self.expected[index][name]:
                errors.append(f"{name} of permutation {index} does not decode to its descent sets")
            if not oracles.disjoint_by_prefix_counts(*steps):
                errors.append(f"{name} of permutation {index} is not a disjoint triple")
        return errors


class PolySweep(Workload):
    """``qseries.baxter_polynomial_rhs(n)`` for n = 1, ..., 27, the
    tabulation ``verify --suite polynomial`` performs; one n an operation."""

    name = "poly-sweep"

    def __init__(self, seed: int) -> None:
        self.brute = {n: oracles.brute_lhs(n) for n in range(1, BRUTE_MAX_N + 1)}

    def load(self) -> None:
        from baxlab import qseries

        self.qseries = qseries

    def operations(self) -> list:
        return [(lambda n=n: self.qseries.baxter_polynomial_rhs(n)) for n in range(1, POLY_MAX_N + 1)]

    def check(self, index: int, output) -> list[str]:
        n = index + 1
        return oracles.rhs_errors(n, output.terms(), self.brute.get(n))


WORKLOADS = {w.name: w for w in (VerifyAll, BigPerm, PolySweep)}
