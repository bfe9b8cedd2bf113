"""Kashiwara operators on the flag module, two ways.

The combinatorial rule comes from the bracketing partition (unpaired
positions J plus matched pairs K_1..K_t of the i/(i+1)-valued positions);
the oracle recomputes the same operators from the sl_2-string decomposition
of a basis vector over Q(v), built from the one-pass divided powers
`tmodule.divided`, and needs n >= 2.  Their agreement is a core test.

The local-word lemma.  Let n >= 2, k_1 < ... < k_L the positions of
b^{-1}({i, i+1}) and w = (b(k_1) - i, ..., b(k_L) - i) in {0, 1}^L the
local word of (b, i).  Then the oracle on (b, i) is the oracle on (c, 1),
c = FlagSymbol(2, L, 1 + w) the canonical symbol of w, carried back along
t -> k_t.  Sketch: at n >= 2 a position class holds at most one position
valued i or i+1, so flipping k_t changes no other position and moves k_t
between b^{-1}(i) and b^{-1}(i+1) without moving any position into or out
of their union.  `tmodule.divided` reads a symbol only through these two
preimages and the order of their positions (its exponents count positions
beyond the flipped one), `string_decomposition` besides them only through
the i-weight #b^{-1}(i) - #b^{-1}(i+1), and `_reduce_mod_v` reads only
coefficients.  So every symbol reached from [b] keeps the union k_1..k_L,
t -> k_t carries the computation on [c] at 1 term by term onto the one on
[b] at i, and both images mod v follow.  For L = 0, e_i and f_i kill [b]
and both images are None.

The lemma extends to the crystal suite's string and uniqueness checks.
`angle_vector` reads a symbol only through `bracket` and `with_value` at
the local positions: `bracket` scans the values at k_1..k_L in order,
<b> rewrites the values at the unpaired positions J and the pairs only,
and its coefficients v^{n_A} (-v)^{#B} count positions of J by their
order.  So <b> at i is <c> at 1 carried back along t -> k_t, and so are
the Kashiwara operators and the divided powers.  The string relation
(`string_relation`) compares e_i <b> with [#J - l + 1] <e~_i b> and
f_i <b> with [l + 1] <f~_i b>; carrying back is injective on symbols (it
rewrites only the classes of k_1..k_L), so the relation holds at (b, i)
exactly when it holds at (c, 1).  For L = 0, <b> = [b], e_i and f_i kill
it and both operators return None, so it holds.  `all_bracketings` reads
the values at k_1..k_L only and returns positions, which t -> k_t carries
in order, so uniqueness (`bracketing_unique`) is decided on the word too;
the empty word has only the empty partition.

Memos.  `kashiwara_oracle` therefore decomposes once per local word
(`_local_oracle`): at (n, D, window) = (3, 3, 6) its 648 (symbol, residue)
pairs share 15 words, one of them empty, so it makes 14 decompositions.
`string_relation` and `bracketing_unique` decide their verdicts once per
local word in the same way (`_local_string_relation`, `_local_unique`),
with 15 entries each at that size.  `bracket` is memoized per (symbol,
residue) (`_bracket`), since the Kashiwara operators, epsilon and each
crystal case ask for the same partition again.  All are unbounded
`lru_cache`s on private helpers that live as long as the process; a
result is a pure function of its key and immutable (a tuple of words, a
bool, or a frozen `BracketingPartition`), so it is safe to share.  The
per-symbol oracle, one decomposition of [b] and no memo, and the
per-symbol string relation are kept in tests/oracles.py as the
references.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import tmodule
from .flag_comb import FlagSymbol
from .laurent import RationalScalar, quantum_binomial, quantum_integer
from .tmodule import ModuleVector, divided
from .vector import add_scaled

_R_MINUS_ONE = -RationalScalar.one()


@dataclass(frozen=True)
class BracketingPartition:
    residue: int
    unpaired: tuple   # J, sorted positions
    pairs: tuple      # ((k, l), ...) with k < l, sorted by k

    def epsilon(self) -> int:
        """Number of unpaired (i+1)-values: the l of the chain structure."""
        return self._split

    # filled in by bracket(); kept explicit to avoid recomputing p
    _split: int = 0


def bracket(p: FlagSymbol, i: int) -> BracketingPartition:
    """The unique partition (J, K_1..K_t) of p^{-1}({i, i+1}) such that

    1. each pair K_s = (k, l) has k < l, p(k) = i and p(l) = i + 1;
    2. no two consecutive positions of J hold i and then i + 1, so the
       (i+1)-values of J precede its i-values;
    3. no position of J lies between the two positions of a pair;
    4. no two pairs cross: k < k' < l < l' never holds for pairs (k, l)
       and (k', l').

    Stack matching: scanning positions left to right, a value i opens a
    bracket and a value i+1 closes the most recent open one; unmatched
    positions form J.  Its pairs nest or are disjoint, and the result
    satisfies the four conditions; `all_bracketings` enumerates every
    partition that does, for the uniqueness check.
    """
    tmodule._check_residue(p.n, i)
    return _bracket(p, i)


@lru_cache(maxsize=None)
def _bracket(p: FlagSymbol, i: int) -> BracketingPartition:
    positions = sorted(p.preimage(i) + p.preimage(i + 1))
    stack = []
    pairs = []
    unpaired_hi = []  # unmatched i+1 positions (all precede unmatched i's)
    for k in positions:
        if p(k) == i:
            stack.append(k)
        else:
            if stack:
                pairs.append((stack.pop(), k))
            else:
                unpaired_hi.append(k)
    J = tuple(unpaired_hi + stack)
    return BracketingPartition(i, J, tuple(sorted(pairs)),
                               _split=len(unpaired_hi))


def kashiwara_f(b: FlagSymbol, i: int):
    """f~_i: flip the leftmost unpaired i-value to i+1; None at string end."""
    part = bracket(b, i)
    lows = [k for k in part.unpaired if b(k) == i]
    if not lows:
        return None
    return b.with_value(min(lows), i + 1)


def kashiwara_e(b: FlagSymbol, i: int):
    """e~_i: flip the rightmost unpaired (i+1)-value to i; None at string end."""
    part = bracket(b, i)
    highs = [k for k in part.unpaired if b(k) == i + 1]
    if not highs:
        return None
    return b.with_value(max(highs), i)


# ---------------------------------------------------------------------------
# The sl_2-string oracle


def _iweight(terms: dict, i: int) -> int:
    p = next(iter(terms))
    return len(p.preimage(i)) - len(p.preimage(i + 1))


def string_decomposition(x: ModuleVector, i: int) -> list:
    """Write x = sum_k f_i^{(k)} u_k with e_i u_k = 0.

    Returns the list of (k, u_k) with u_k nonzero; the u_k have coefficients
    in the rational function field, as dicts {symbol: RationalScalar}.
    Each pass takes the top degree K, the largest k with e_i^(k) x != 0,
    searching down from the largest #p^{-1}(i+1), beyond which e_i^(k)
    vanishes term by term; u_K is e_i^(K) x over [m choose K], m its
    i-weight.  Needs n >= 2: at n = 1 every class holds both i and i+1,
    so e_i^k [p] != 0 for every k (its coefficients are sums of powers of
    v, which cannot cancel) and no finite string exists.
    """
    if x.n < 2:
        raise ValueError("the sl2-string oracle needs n >= 2")
    terms = {p: RationalScalar.from_laurent(c) for p, c in x.terms.items()}
    out = []
    while terms:
        k = max(len(p.preimage(i + 1)) for p in terms)
        while not (top := divided(i, k, terms, "e")):
            k -= 1
        # a correct pass leaves e_i^(K) x = 0, so K falls strictly; a pass
        # that does not lower it would repeat forever
        if out and k >= out[-1][0]:
            raise ArithmeticError(
                f"string decomposition along i={i} does not terminate: "
                f"top degrees K = {[kk for kk, _ in out] + [k]}")
        m_top = _iweight(top, i)
        binom = RationalScalar.from_laurent(quantum_binomial(m_top, k))
        u = {p: c / binom for p, c in top.items()}
        out.append((k, u))
        add_scaled(terms, divided(i, k, u, "f"), _R_MINUS_ONE)
    out.reverse()
    return out


def kashiwara_oracle(b: FlagSymbol, i: int) -> tuple:
    """(f~_i b, e~_i b) from one string decomposition of [b], each reduced
    mod v L_D; None where the string ends.  The decomposition is made once
    per local word of (b, i), on its canonical symbol (see the module
    docstring), and each image is written back onto b's positions."""
    if b.n < 2:
        raise ValueError("the sl2-string oracle needs n >= 2")
    positions, word = local_word(b, i)
    return tuple(None if image is None
                 else write_local_word(b, i, positions, image)
                 for image in _local_oracle(word))


def local_word(b: FlagSymbol, i: int) -> tuple:
    """(positions, word): the sorted positions of b^{-1}({i, i+1}) and the
    values b(k) - i in {0, 1} there."""
    positions = sorted(b.preimage(i) + b.preimage(i + 1))
    return positions, tuple(b(k) - i for k in positions)


def local_symbol(word: tuple) -> FlagSymbol:
    """The canonical symbol of a nonempty local word: n = 2, values
    1 + word at positions 1..len(word), read at i = 1."""
    return FlagSymbol(2, len(word), tuple(1 + a for a in word))


def write_local_word(b: FlagSymbol, i: int, positions, word: tuple) -> FlagSymbol:
    """b with the value i + word[t] at positions[t]."""
    for k, a in zip(positions, word):
        if b(k) != i + a:
            b = b.with_value(k, i + a)
    return b


@lru_cache(maxsize=None)
def _local_oracle(word: tuple) -> tuple:
    """The oracle's two images on the canonical symbol of a local word, as
    words; (None, None) for the empty word, whose [b] is its own string.
    Memoized per word for the life of the process: the result is a pure
    function of the word and a tuple of tuples, safe to share."""
    if not word:
        return None, None
    parts = string_decomposition(ModuleVector.basis(local_symbol(word)), 1)
    images = (_reduce_mod_v(parts, 1, shift) for shift in (1, -1))
    return tuple(None if q is None else tuple(a - 1 for a in q.values)
                 for q in images)


def _reduce_mod_v(parts: list, i: int, shift: int):
    """sum_k f_i^{(k + shift)} u_k as a crystal class mod v, or None."""
    out = {}
    for k, u in parts:
        if k + shift >= 0:
            add_scaled(out, divided(i, k + shift, u, "f"))
    # the crystal lattice is the span over rational functions regular at
    # v = 0; reduce by evaluating each coefficient at v = 0
    consts = {}
    for p, c in out.items():
        val = _value_at_zero(c)
        if val:
            consts[p] = val
    if not consts:
        return None
    if len(consts) == 1:
        (p, a), = consts.items()
        if a == 1:
            return p
    raise ArithmeticError(f"not a crystal class mod v: {consts}")


def _value_at_zero(c: RationalScalar):
    """Evaluate at v = 0; raises if the coefficient has a pole there."""
    from fractions import Fraction
    num, den = c.num, c.den
    if den.constant_term() == 0:
        raise ArithmeticError("denominator vanishes at v = 0")
    if num.is_zero():
        return Fraction(0)
    if num.min_exp < 0:
        raise ArithmeticError("oracle output left the crystal lattice")
    return Fraction(num.constant_term(), den.constant_term())


# ---------------------------------------------------------------------------
# Per-word verdicts of the crystal suite: the string relation and the
# uniqueness of the bracketing partition (brute force)


def string_relation(b: FlagSymbol, i: int) -> bool:
    """Whether e_i <b> = [#J - l + 1] <e~_i b> and f_i <b> = [l + 1] <f~_i b>
    (J the unpaired positions, l = epsilon, <x> = 0 for x = None); decided
    once per local word of (b, i) (see the module docstring)."""
    tmodule._check_residue(b.n, i)
    return _local_string_relation(local_word(b, i)[1])


@lru_cache(maxsize=None)
def _local_string_relation(word: tuple) -> bool:
    """The string relation on the canonical symbol of a local word at 1;
    True for the empty word.  Memoized per word for the life of the
    process."""
    if not word:
        return True
    c = local_symbol(word)
    part = bracket(c, 1)
    nJ, l = len(part.unpaired), part.epsilon()
    av = tmodule.angle_vector(c, 1)
    down = kashiwara_e(c, 1)
    expect_e = (ModuleVector.zero(c.n, c.D) if down is None
                else tmodule.angle_vector(down, 1).scale(quantum_integer(nJ - l + 1)))
    up = kashiwara_f(c, 1)
    expect_f = (ModuleVector.zero(c.n, c.D) if up is None
                else tmodule.angle_vector(up, 1).scale(quantum_integer(l + 1)))
    return tmodule.apply_e(1, av) == expect_e and tmodule.apply_f(1, av) == expect_f


def bracketing_unique(b: FlagSymbol, i: int) -> bool:
    """Whether `bracket` is the only partition `all_bracketings` finds;
    decided once per local word of (b, i)."""
    tmodule._check_residue(b.n, i)
    return _local_unique(local_word(b, i)[1])


@lru_cache(maxsize=None)
def _local_unique(word: tuple) -> bool:
    """Uniqueness on the canonical symbol of a local word at 1; True for
    the empty word.  Memoized per word for the life of the process."""
    if not word:
        return True
    c = local_symbol(word)
    part = bracket(c, 1)
    return all_bracketings(c, 1) == [(part.unpaired, part.pairs)]


def all_bracketings(p: FlagSymbol, i: int) -> list:
    """Every partition (J, pairs) of p^{-1}({i, i+1}) satisfying the four
    conditions listed at `bracket`, by brute force."""
    positions = sorted(p.preimage(i) + p.preimage(i + 1))
    results = []

    def rec(remaining, J, pairs):
        if not remaining:
            Jt = tuple(sorted(J))
            if _valid_J(p, i, Jt, pairs):
                results.append((Jt, tuple(sorted(pairs))))
            return
        k, rest = remaining[0], remaining[1:]
        rec(rest, J + [k], pairs)
        if p(k) == i:
            for idx, l in enumerate(rest):
                if p(l) == i + 1:
                    rec(rest[:idx] + rest[idx + 1:], J, pairs + [(k, l)])

    rec(positions, [], [])
    return sorted(set(results))


def _valid_J(p, i, J, pairs) -> bool:
    """Conditions 2-4 of `bracket` (the search builds only pairs that meet
    condition 1)."""
    for k, l in zip(J, J[1:]):
        if (p(k), p(l)) == (i, i + 1):
            return False
    for k, l in pairs:
        if (any(k <= j <= l for j in J)
                or any(k < k2 < l < l2 for k2, l2 in pairs)):
            return False
    return True


# ---------------------------------------------------------------------------
# Crystal graph


def crystal_graph(n: int, D: int, lo: int, hi: int) -> dict:
    """Edges b ->_i f~_i(b) over all symbols with window values in [lo, hi].

    Returns {"vertices": [...], "edges": [(b, i, b')], "boundary": [...]}
    where boundary lists edges whose target leaves the window.
    """
    from . import flag_comb
    vertices = flag_comb.enumerate_flag_symbols(n, D, lo, hi)
    vset = set(vertices)
    edges, boundary = [], []
    for b in vertices:
        for i in range(n):
            b2 = kashiwara_f(b, i)
            if b2 is None:
                continue
            if b2 in vset:
                edges.append((b, i, b2))
            else:
                boundary.append((b, i, b2))
    return {"vertices": vertices, "edges": edges, "boundary": boundary}


def graph_to_dot(graph: dict) -> str:
    lines = ["digraph crystal {"]
    for p in graph["vertices"]:
        lines.append(f'  "{list(p.values)}";')
    for b, i, b2 in graph["edges"]:
        lines.append(f'  "{list(b.values)}" -> "{list(b2.values)}" [label="{i}"];')
    for b, i, b2 in graph["boundary"]:
        lines.append(f'  "{list(b.values)}" -> "{list(b2.values)}" '
                     f'[label="{i}", style=dashed];')
    lines.append("}")
    return "\n".join(lines)


def graph_to_json(graph: dict) -> dict:
    return {
        "vertices": [list(p.values) for p in graph["vertices"]],
        "edges": [{"from": list(b.values), "residue": i, "to": list(b2.values)}
                  for b, i, b2 in graph["edges"]],
        "boundary": [{"from": list(b.values), "residue": i, "to": list(b2.values)}
                     for b, i, b2 in graph["boundary"]],
    }
