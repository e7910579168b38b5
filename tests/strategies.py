"""Hypothesis strategies shared by several test modules."""
from hypothesis import strategies as st

from baxlab.perm import insertion_slots


@st.composite
def large_permutations(draw):
    """A Baxter permutation grown by random insertions, then left as it is,
    spoiled by one transposition, or replaced by a uniform permutation."""
    n = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["baxter", "swapped", "uniform"]))
    if kind == "uniform":
        return tuple(draw(st.permutations(range(1, n + 1))))
    p = (1,)
    for m in range(2, n + 1):
        slots = insertion_slots(p)
        pos = slots[draw(st.integers(0, len(slots) - 1))]
        p = p[: pos - 1] + (m,) + p[pos - 1 :]
    if kind == "swapped":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        q = list(p)
        q[i], q[j] = q[j], q[i]
        p = tuple(q)
    return p
