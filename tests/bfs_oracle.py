"""The breadth-first Baxter generator that the depth-first ``iter_baxter``
replaced, kept as a test oracle for its output order."""
from baxlab.perm import Perm, insertion_slots


def generate_baxter_bfs(n: int) -> list[Perm]:
    """Grow every level whole: the new maximum m goes into every allowed slot
    of every permutation of the previous level, parents in order, slots left
    to right."""
    level: list[Perm] = [(1,)]
    for m in range(2, n + 1):
        level = [s[: pos - 1] + (m,) + s[pos - 1 :] for s in level for pos in insertion_slots(s)]
    return level
