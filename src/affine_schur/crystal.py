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

The lemma extends to the bracketing rule and to every check of the
crystal suite.  `bracket` scans the values at k_1..k_L in order and
returns positions, so the partition of (b, i) is that of (c, 1) carried
along t -> k_t.  f~_i and e~_i flip one unpaired position, so f~_i b and
e~_i b are f~_1 c and e~_1 c written back onto b (the value i + w'_t at
k_t, w' their word), and None exactly when these are.  Writing back is
injective: at n >= 2 it rewrites one position of each class of k_1..k_L
and nothing else, so different words give different symbols.  Hence the
oracle agrees with the rule on (b, i) exactly when it does on (c, 1).
The inverse check carries back too: f~_i b has the local positions of b and the word of f~_1 c, so
e~_i f~_i b = b exactly when e~_1 f~_1 c = c, and likewise for f~ e~.
`angle_vector` reads a symbol only through `bracket` and `with_value` at
the local positions: <b> rewrites the values at the unpaired positions J
and the pairs only, and its coefficients v^{n_A} (-v)^{#B} count
positions of J by their order.  So <b> at i is <c> at 1 carried back,
and so are the divided powers.  The string relation compares e_i <b> with
[#J - l + 1] <e~_i b> and f_i <b> with [l + 1] <f~_i b>; both sides carry
back term by term, injectively, so it holds at (b, i) exactly when it
holds at (c, 1).  `all_bracketings` reads the values at k_1..k_L only and
returns positions, which t -> k_t carries in order, so the uniqueness of
the bracketing is decided on the word too.  For L = 0, e_i and f_i kill
<b> = [b], both operators and both oracle images are None, and the empty
partition is the only one, so every check passes.

Memos.  `word_verdicts` decides the suite's four checks on (c, 1) once per
local word: how many of f~ and e~ the oracle confirms, how many of
e~ f~ c = c and f~ e~ c = c fail, the string relation and uniqueness.  It
is the one place the lemma is applied: `kashiwara_oracle` decomposes [b]
itself, so tests/test_crystal.py checks the lemma on the oracle, and the
per-symbol suite of tests/oracles.py, which calls the oracle on every
symbol at every residue, is a reference that does not assume it.  The
suite counts the symbols of each word at each residue and weights each
verdict by that count, so its reports equal those of the per-symbol
loops.  At (n, D, window) = (3, 3, 6) the 648 (symbol, residue) pairs
share 15 words, one of them empty, so the suite makes 14 oracle calls.
`word_verdicts` is an unbounded `lru_cache` that lives as long as the
process.  A local word has at most one letter per position class, so a
run at D puts at most 2^(D+1) - 1 words in it.  A key is a tuple of 0s
and 1s and a value is an immutable `WordVerdicts`, a pure function of the
key, so the memo is safe to share.  `kashiwara_oracle` and `bracket` keep
no memo: the suite reaches the oracle only through `word_verdicts`, once
per word, and a repeated `bracket` call rescans at most 2D positions.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from . import flag_comb, tmodule
from .flag_comb import FlagSymbol
from .laurent import RationalScalar, quantum_binomial, quantum_integer
from .tmodule import ModuleVector, divided
from .vector import add_scaled

_R_MINUS_ONE = -RationalScalar.one()


class BracketingPartition(NamedTuple):
    unpaired: tuple   # J, sorted positions
    pairs: tuple      # ((k, l), ...) with k < l, sorted by k
    epsilon: int      # unpaired (i+1)-values: the l of the chain structure


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
    return BracketingPartition(J, tuple(sorted(pairs)), len(unpaired_hi))


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
    mod v L_D; None where the string ends.  Needs n >= 2."""
    parts = string_decomposition(ModuleVector.basis(b), i)
    return tuple(_reduce_mod_v(parts, i, shift) for shift in (1, -1))


def local_word(b: FlagSymbol, i: int) -> tuple:
    """(positions, word): the sorted positions of b^{-1}({i, i+1}) and the
    values b(k) - i in {0, 1} there."""
    positions = sorted(b.preimage(i) + b.preimage(i + 1))
    return positions, tuple(b(k) - i for k in positions)


def local_symbol(word: tuple) -> FlagSymbol:
    """The canonical symbol of a nonempty local word: n = 2, values
    1 + word at positions 1..len(word), read at i = 1."""
    return FlagSymbol.make(2, len(word), [1 + a for a in word])


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
        num0, den0 = _value_at_zero(c)
        if num0:
            consts[p] = (num0, den0)
    if not consts:
        return None
    if len(consts) == 1:
        (p, (num0, den0)), = consts.items()
        if num0 == den0:
            return p
    values = {p: f"{a}/{d}" for p, (a, d) in consts.items()}
    raise ArithmeticError(f"not a crystal class mod v: {values}")


def _value_at_zero(c: RationalScalar) -> tuple:
    """(a, d) with c(0) = a / d and d != 0, from the constant terms of the
    numerator and the denominator; raises if c has a pole at v = 0."""
    num, den = c.num, c.den
    if den.constant_term() == 0:
        raise ArithmeticError("denominator vanishes at v = 0")
    if not num.is_zero() and num.min_exp < 0:
        raise ArithmeticError("oracle output left the crystal lattice")
    return num.constant_term(), den.constant_term()


# ---------------------------------------------------------------------------
# The crystal suite's checks, decided once per local word


class WordVerdicts(NamedTuple):
    """The crystal suite's four checks on the canonical symbol c of a local
    word at residue 1: of f~_1 c and e~_1 c, how many the sl2-string oracle
    gives (0-2); of e~ f~ c = c and f~ e~ c = c, where defined, how many
    fail (0-2); whether the string relation holds; and whether `bracket` is
    the only partition `all_bracketings` finds."""
    oracle_agree: int
    inverse_failures: int
    strings: bool
    unique: bool


@lru_cache(maxsize=None)
def word_verdicts(word: tuple) -> WordVerdicts:
    """The four checks on (local_symbol(word), 1); on the empty word every
    check passes.  Memoized per word for the life of the process (see the
    module docstring)."""
    if not word:
        return WordVerdicts(2, 0, True, True)
    c = local_symbol(word)
    part = bracket(c, 1)
    up, down = kashiwara_f(c, 1), kashiwara_e(c, 1)
    oracle_up, oracle_down = kashiwara_oracle(c, 1)
    inverse_failures = ((up is not None and kashiwara_e(up, 1) != c)
                        + (down is not None and kashiwara_f(down, 1) != c))
    # the string relation: e_1 <c> = [#J - l + 1] <e~_1 c> and
    # f_1 <c> = [l + 1] <f~_1 c>, J the unpaired positions, l = epsilon and
    # <None> = 0
    nJ, l = len(part.unpaired), part.epsilon
    av = tmodule.angle_vector(c, 1)
    expect_e = (ModuleVector.zero(c.n, c.D) if down is None
                else tmodule.angle_vector(down, 1).scale(quantum_integer(nJ - l + 1)))
    expect_f = (ModuleVector.zero(c.n, c.D) if up is None
                else tmodule.angle_vector(up, 1).scale(quantum_integer(l + 1)))
    return WordVerdicts(
        oracle_agree=(oracle_up == up) + (oracle_down == down),
        inverse_failures=inverse_failures,
        strings=(tmodule.apply_e(1, av) == expect_e
                 and tmodule.apply_f(1, av) == expect_f),
        unique=all_bracketings(c, 1) == [(part.unpaired, part.pairs)])


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
