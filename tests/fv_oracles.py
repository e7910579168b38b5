"""The quadratic cores that the sorted-prefix sweeps and the placeholder tree
replaced, kept as test oracles: the Baxter test by prefix and suffix scans,
and the Françon-Viennot map and its inverse by rescanning the word; also the
letter classes read off a position table, as ``classify_letters`` once did,
and the Baxter pattern definition itself as a quadruple loop."""
from baxlab.laguerre import LaguerreHistory, LetterClass, MalformedHistoryError

_CLASS_TO_LETTER = {"valley": "U", "peak": "D", "double_descent": "B", "double_ascent": "R"}


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


def is_baxter_by_scan(p):
    """For each adjacent pair, scan the prefix for the most extreme letter
    in the pair's window and the suffix for a partner: O(n^2)."""
    n = len(p)
    for j in range(n - 1):
        a, b = p[j], p[j + 1]
        if a > b:
            # 2-41-3: some earlier x and later y with b < x < y < a
            best = None
            for i in range(j):
                if b < p[i] < a and (best is None or p[i] < best):
                    best = p[i]
            if best is not None and any(best < p[k] < a for k in range(j + 2, n)):
                return False
        else:
            # 3-14-2: some earlier x and later y with a < y < x < b
            best = None
            for i in range(j):
                if a < p[i] < b and (best is None or p[i] > best):
                    best = p[i]
            if best is not None and any(a < p[k] < best for k in range(j + 2, n)):
                return False
    return True


def psi_fv_by_scan(p):
    """Weight i counts, by a scan of the prefix, the descent pairs left of
    i's position that straddle i in value."""
    n = len(p)
    pos = {v: i for i, v in enumerate(p)}  # 0-based positions
    word = "".join(_CLASS_TO_LETTER[c.value] for c in classify_letters_by_position(p))
    weights = []
    for i in range(1, n):
        k = pos[i]
        weights.append(1 + sum(1 for j in range(1, k) if p[j] < i < p[j - 1]))
    return LaguerreHistory(word, tuple(weights))


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
