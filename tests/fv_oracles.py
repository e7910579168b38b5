"""The quadratic cores that the placeholder tree and the sorted-prefix sweeps
replaced, kept as test oracles: the Françon-Viennot map and its inverse by
rescanning the word; also the letter classes read off a position table, as
``classify_letters`` once did, and the Baxter pattern definition itself as a
quadruple loop.  No oracle here calls another."""
from baxlab.laguerre import LaguerreHistory, LetterClass, MalformedHistoryError


def classify_letters_by_position(p):
    """Look up each letter's position and compare it with both neighbours."""
    n = len(p)
    pos = {v: i for i, v in enumerate(p)}
    out = []
    for i in range(1, n):
        k = pos[i]
        left = p[k - 1] if k >= 1 else 0
        right = p[k + 1] if k + 1 < n else 0
        if left > i and right > i:
            out.append(LetterClass.VALLEY)
        elif left < i and right < i:
            out.append(LetterClass.PEAK)
        elif left > i > right:
            out.append(LetterClass.DOUBLE_DESCENT)
        else:
            out.append(LetterClass.DOUBLE_ASCENT)
    return tuple(out)


def is_baxter_bruteforce(p):
    """Quadruple-loop transcription of the pattern definition: no earlier x
    and later y around an adjacent pair with 2-41-3 or 3-14-2 order.  O(n^4),
    so only for small n."""
    n = len(p)
    for j in range(n - 1):
        for i in range(j):
            for k in range(j + 2, n):
                if p[j + 1] < p[i] < p[k] < p[j]:
                    return False
                if p[j] < p[k] < p[i] < p[j + 1]:
                    return False
    return True


def psi_fv_by_scan(p):
    """Letter i is read off its two neighbours (0 past either end): U below
    both, D above both, B below the left one only, R below the right one
    only.  Weight i counts, by a scan of the prefix, the descent pairs left
    of i's position that straddle i in value."""
    n = len(p)
    pos = {v: i for i, v in enumerate(p)}  # 0-based positions
    word = []
    weights = []
    for i in range(1, n):
        k = pos[i]
        left = p[k - 1] if k >= 1 else 0
        right = p[k + 1] if k + 1 < n else 0
        if left > i and right > i:
            word.append("U")
        elif left < i and right < i:
            word.append("D")
        elif left > i > right:
            word.append("B")
        else:
            word.append("R")
        weights.append(1 + sum(1 for j in range(1, k) if p[j] < i < p[j - 1]))
    return LaguerreHistory("".join(word), tuple(weights))


def psi_fv_inverse_by_rescan(h):
    """Placeholder substitution on the word itself, listing its holes again
    at every step."""
    n = len(h) + 1
    word = [None]
    for i, (c, mu) in enumerate(zip(h.word, h.weights), start=1):
        holes = [idx for idx, v in enumerate(word) if v is None]
        if not 1 <= mu <= len(holes):
            raise MalformedHistoryError(
                f"step {i}: weight {mu} but only {len(holes)} placeholders"
            )
        at = holes[mu - 1]
        if c == "U":
            word[at : at + 1] = [None, i, None]
        elif c == "R":
            word[at : at + 1] = [i, None]
        elif c == "D":
            word[at : at + 1] = [i]
        else:
            word[at : at + 1] = [None, i]
    holes = [idx for idx, v in enumerate(word) if v is None]
    if len(holes) != 1:
        raise MalformedHistoryError(f"{len(holes)} placeholders remain at the end")
    word[holes[0]] = n
    return tuple(word)
