"""The bodies that the fused one-pass cores replaced, kept as test oracles:
descent sets built one generator at a time, each by its own helper here so
that no oracle calls the descent pass it checks, the Baxter sweep that bisects
again to insert, the Françon-Viennot map by the sorted-list sweep that the
bitset and Fenwick sweeps replaced, history validity against a height
profile, ``phi`` with its weight bounds held by a running placeholder count
and its middle path from H-prefix counts, the weights of ``phi_inverse`` from
H-prefix counts, the placeholder rebuild of ``psi_fv_inverse`` with its
placeholders listed left to right, the path-triple word check run word by
word, the permutation rule by sorting, the step-word walk that recursed
once per step, and the q-binomials and closed form built from dict-product
``QPoly`` arithmetic (:func:`poly_product`) with a checked long division.

No oracle here calls an oracle of ``fv_oracles``.  Within this file the
descent-set helpers build :func:`stat_profile_by_sets`, and the closed form
is built from :func:`q_binomial_by_division` rather than the library's
``q_binomial``, whose packed rows the closed-form core shares."""
import reprlib
from bisect import bisect_left, bisect_right, insort
from math import comb

from baxlab.bijections import MalformedMiddleError
from baxlab.laguerre import MalformedHistoryError, Validity, height_profile
from baxlab.paths import PathTriple, h_prefix
from baxlab.perm import InvalidPermutationError, StatProfile, inverse
from baxlab.qseries import QPoly, TQPoly, exact_div


def descent_positions(p):
    """Positions i in [n-1] with p_i > p_{i+1}."""
    return frozenset(i for i in range(1, len(p)) if p[i - 1] > p[i])


def descent_tops(p):
    """The larger value p_i of each descent."""
    return frozenset(p[i - 1] for i in range(1, len(p)) if p[i - 1] > p[i])


def descent_bottoms(p):
    """The smaller value p_{i+1} of each descent."""
    return frozenset(p[i] for i in range(1, len(p)) if p[i - 1] > p[i])


def stat_profile_by_sets(p):
    """Six descent sets, each built by its own generator."""
    n = len(p)
    q = inverse(p)
    des = descent_positions(p)
    dt = descent_tops(p)
    db = descent_bottoms(p)
    ides = descent_positions(q)
    idt = descent_tops(q)
    idb = descent_bottoms(q)
    dt_mod = frozenset(v - 1 for v in dt)
    idt_mod = frozenset(v - 1 for v in idt)
    dt_hat = frozenset((dt | {p[-1]}) - {n})
    return StatProfile(
        des_set=des,
        dt_set=dt,
        db_set=db,
        dt_mod_set=dt_mod,
        dt_hat_set=dt_hat,
        ides_set=ides,
        idt_set=idt,
        idb_set=idb,
        idt_mod_set=idt_mod,
        des=len(des),
        maj=sum(des),
        imaj_b=sum(idb),
        imaj_t=sum(idt_mod),
    )


def is_baxter_by_insort(p):
    """The sorted-prefix sweep, with a fresh bisection for every insertion."""
    seen = []
    for j in range(len(p) - 1):
        a, b = p[j], p[j + 1]
        if a > b:
            lo = bisect_right(seen, b)
            cnt = bisect_left(seen, a) - lo
            if cnt and a - seen[lo] > cnt:
                return False
        else:
            hi = bisect_left(seen, b)
            cnt = hi - bisect_right(seen, a)
            if cnt and seen[hi - 1] - a > cnt:
                return False
        insort(seen, a)
    return True


def psi_fv_by_sorted_lists(p):
    """(word, weights) of psi_fv by one sweep that keeps the tops and the
    bottoms of the descent pairs passed in two sorted lists: weight v is one
    plus the bottoms below v less the tops below v, two bisections, and each
    descent inserts into both lists, so the sweep is quadratic in bytes moved."""
    n = len(p)
    letter = [""] * (n + 1)
    weight = [0] * (n + 1)
    tops = []
    bottoms = []
    left = 0
    for v, right in zip(p, (*p[1:], 0)):
        at = bisect_left(bottoms, v)
        weight[v] = 1 + at - bisect_right(tops, v)
        if left > v:
            letter[v] = "BU"[right > v]
            insort(tops, left)
            bottoms.insert(at, v)
        else:
            letter[v] = "DR"[right > v]
        left = v
    return "".join(letter[1:n]), tuple(weight[1:n])


def validity_by_profile(word, weights):
    """Count the U and D steps, zip the weights with the height profile, then
    zip them again with their successors for the increment rules."""
    if word.count("U") != word.count("D") or not all(
        1 <= m <= hi for m, hi in zip(weights, height_profile(word))
    ):
        return Validity(False, False)
    for c, a, b in zip(word, weights, weights[1:]):
        if b - a not in ((0, 1) if c in "UB" else (0, -1)):
            return Validity(True, False)
    return Validity(True, True)


_BOTTOM_STEPS = str.maketrans("UBDR", "HHVV")
_TOP_STEPS = str.maketrans("DBUR", "HHVV")


def phi_by_prefix_counts(word, weights):
    """phi of a history: a running count of the placeholders, one at the
    start, one more after each U and one fewer after each D, bounds every
    weight and must end at one; then the middle path's H-prefix counts
    1 + h_bot(i) - mu_i, closed by h_mid = h_bot at the end."""
    holes = 1
    for i, (c, mu) in enumerate(zip(word, weights), start=1):
        if not 1 <= mu <= holes:
            raise MalformedHistoryError(f"step {i}: weight {mu} but only {holes} placeholders")
        holes += (c == "U") - (c == "D")
    if holes != 1:
        raise MalformedHistoryError(f"{holes} placeholders remain at the end")
    bottom = word.translate(_BOTTOM_STEPS)
    hb = h_prefix(bottom)
    hm = [1 + b - w for b, w in zip(hb, weights)]
    hm.append(hb[-1])
    steps = [b - a for a, b in zip(hm, hm[1:])]
    if not {0, 1}.issuperset(steps):
        i, d = next((i, d) for i, d in enumerate(steps) if d not in (0, 1))
        raise MalformedMiddleError(
            f"middle step {i + 1} would jump by ({d}, {1 - d}); "
            "weights do not satisfy the increment rules"
        )
    return PathTriple(bottom, "".join(["VH"[d] for d in steps]), word.translate(_TOP_STEPS))


_PAIR_TO_LETTER = {"VH": "U", "HV": "D", "VV": "R", "HH": "B"}


def phi_inverse_by_prefix_counts(bottom, middle, top):
    """(word, weights) of phi_inverse: weight i is 1 + h_bot(i) - h_mid(i)."""
    word = "".join(_PAIR_TO_LETTER[t + b] for t, b in zip(top, bottom))
    hb, hm = h_prefix(bottom), h_prefix(middle)
    return word, tuple([1 + b - mid for b, mid in zip(hb[:-1], hm)])


def psi_fv_inverse_by_left_holes(word, weights):
    """psi_fv_inverse of a history inside its bounds: the open placeholders
    listed left to right, so that the mu-th is holes[mu - 1]."""
    n = len(word) + 1
    after = [0] * (n + 1)
    holes = [0]
    for i, (c, mu) in enumerate(zip(word, weights), start=1):
        v = holes[mu - 1]
        after[i], after[v] = after[v], i
        if c == "U":
            holes.insert(mu, i)
        elif c == "R":
            holes[mu - 1] = i
        elif c == "D":
            del holes[mu - 1]
    v = holes[0]
    after[n], after[v] = after[v], n
    out = []
    v = 0
    for _ in range(n):
        v = after[v]
        out.append(v)
    return tuple(out)


def check_permutation_by_sorting(p):
    """The InvalidPermutationError the permutation rule raises for a list
    or tuple of ints p, or None, by the sorted definition: p is a
    permutation iff sorted(p) == [1, ..., len(p)].  A failure names the
    first entry out of range or repeated, as reprlib shows p."""
    if not p:
        return InvalidPermutationError("a permutation must have length >= 1")
    if sorted(p) == list(range(1, len(p) + 1)):
        return None
    seen = set()
    for bad, v in enumerate(p):
        if not 1 <= v <= len(p) or v in seen:
            break
        seen.add(v)
    shown = reprlib.repr(p)
    if "..." in shown:
        shown += f", entry {bad + 1} is {v}"
    return InvalidPermutationError(f"not a permutation of 1..{len(p)}: {shown}")


def check_words_one_by_one(bottom, middle, top):
    """The ValueError PathTriple raises for its words, or None."""
    for steps in (bottom, middle, top):
        if not isinstance(steps, str) or steps.strip("HV"):
            return ValueError(f"steps must be a word over 'HV': {reprlib.repr(steps)}")
    return None


def step_words_by_recursion(h_count, ceiling):
    length = len(ceiling) - 1
    word = []

    def extend(h):
        i = len(word)
        if i == length:
            yield "".join(word)
            return
        if h < h_count and h < ceiling[i + 1]:
            word.append("H")
            yield from extend(h + 1)
            word.pop()
        if length - i - 1 >= h_count - h:
            word.append("V")
            yield from extend(h)
            word.pop()

    yield from extend(0)


def poly_product(a, *rest):
    """The product of QPolys, term by term over dicts."""
    for b in rest:
        c = {}
        for d1, v1 in a.terms():
            for d2, v2 in b.terms():
                c[d1 + d2] = c.get(d1 + d2, 0) + v1 * v2
        a = QPoly(c)
    return a


def q_binomial_by_division(n, k):
    """Multiply a factor (1 - q^(n-k+i)) in and divide (1 - q^i) out, k times;
    every intermediate value is a q-binomial, so each division is exact."""
    if n < 0 or k < 0 or k > n:
        return QPoly()
    out = QPoly({0: 1})
    for i in range(1, k + 1):
        out = exact_div(poly_product(out, QPoly({0: 1, n - k + i: -1})), QPoly({0: 1, i: -1}))
    return out


def baxter_polynomial_rhs_by_products(n):
    """The closed form, one t-slice at a time, through QPoly products."""
    den = poly_product(q_binomial_by_division(n + 1, 1), q_binomial_by_division(n + 1, 2))
    out = {}
    for k in range(n):
        num = poly_product(
            QPoly({3 * comb(k + 1, 2): 1}),
            q_binomial_by_division(n + 1, k),
            q_binomial_by_division(n + 1, k + 1),
            q_binomial_by_division(n + 1, k + 2),
        )
        for d, c in exact_div(num, den).terms():
            out[(k, d)] = c
    return TQPoly(out)
