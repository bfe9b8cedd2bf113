"""The affine Hecke algebra H_D of type GL_D in the T_w basis.

Products, inverses, the bar involution, and the double-coset sums
underlying the Schur algebra.  The quadratic relation is
(T_i + 1)(T_i - v^-2) = 0 throughout.

`HeckeElement` is a `vector.SparseVector` over permutations, and every sum
here goes through `vector.add_scaled`.  `collapse` is the one way from a
finer coset basis to a coarser one: `tmodule.from_hecke_block` uses it from
the T_w basis to flag symbols (left S_lambda cosets), for the Schur
algebra's action on the flag module, and `schur.from_column` from left
cosets to matrices (double cosets), for the Schur product and tau.

Parabolic bar.  Write P_lam for the sum of T_u over the Young subgroup
S_lam and T_q = P_lam T_{w_q} for the left-coset sum of a symbol q in the
orbit of lam, w_q the minimal coset rep.  The quadratic relation gives
P_lam T_i = v^-2 P_lam for every generator s_i of S_lam, hence

    bar(P_lam) = v^{2 l(w_lam)} P_lam,                  w_lam longest in S_lam,
    P_lam T_u = v^{-2 (l(u) - l(w_q))} T_q,             q = (lam)u,

the second because u = u' w_q with u' in S_lam and lengths adding.  So
bar(P_lam h) = v^{2 l(w_lam)} P_lam bar(h) needs bar(h) alone, and
`bar_parabolic` returns it on the T_q.  Its one caller is the flag
module's per-symbol tau memo, `tmodule._tau_terms`, which bars a single
minimal coset rep; tau on the Schur algebra sums entries of that memo
(`schur._tau_terms`) and bars nothing itself.  So both bases bar
only minimal coset representatives (Deodhar, J. Algebra 111, 1987).

Memos.  `bar` keeps bar(T_w) for every w it has met, in the module-level
dict `_BAR_T`, keyed by the permutation w (its rank included) and held for
the life of the process.  Each entry is a pair of equal-length tuples,
(u_1, u_2, ...) and (coefficient_1, coefficient_2, ...), with no tuple per
term.  It is filled one letter at a time from the entry of w s_i, s_i a
right descent.  The entry is a pure function of w because the quadratic
relation is fixed in this module and nowhere else, and entries are
immutable, so the memo is safe to share between callers and threads (two
threads that miss at once store equal values).  Permutations and
coefficients stored in it are interned through `_INTERN`, so repeated ones
are held once.

`bar_parabolic` reads each term T_u of bar(h) through `_left_coset`, an
unbounded `lru_cache` keyed by (lam, u) that lives as long as the process.
Its entry is the pair (q, e) of the left-coset symbol q = (lam)u and the
exponent e of the module docstring's identity, a pure function of the key,
and immutable, so the memo is safe to share between callers and threads.
After `run-suite canonical --n 2 --D 3 --window 5 --band 2` it holds 399
entries for 1574 terms; after `run-suite transfer --n 4 --D 1 --band 1
--word-len 2`, 5678.
"""

from __future__ import annotations

from functools import lru_cache

from . import affine_weyl, flag_comb
from .affine_weyl import AffinePermutation
from .laurent import LaurentScalar, ONE
from .vector import SparseVector, add_scaled

# The relation every product here obeys, as the module docstring states it;
# `canonical.CanonicalCache` stamps its files with it.
QUADRATIC_RELATION = "(T_i + 1)(T_i - v^-2) = 0"

_Q_LOW = LaurentScalar({-2: 1, 0: -1})   # v^-2 - 1
_VM2 = LaurentScalar({-2: 1})            # v^-2
_VP2 = LaurentScalar({2: 1})             # v^2
_VP2_M1 = LaurentScalar({2: 1, 0: -1})   # v^2 - 1


class HeckeElement(SparseVector):
    """A finite A-linear combination of T_w, w in the affine symmetric group."""

    __slots__ = ("rank",)

    def __init__(self, rank: int, terms: dict):
        self.rank = rank
        super().__init__(terms)

    def _shape(self) -> tuple:
        return (self.rank,)

    @staticmethod
    def unit(rank: int) -> "HeckeElement":
        return HeckeElement(rank, {affine_weyl.identity(rank): ONE})

    @staticmethod
    def t(w: AffinePermutation) -> "HeckeElement":
        return HeckeElement(w.rank, {w: ONE})

    def __repr__(self):
        if not self.terms:
            return "HeckeElement(0)"
        bits = [f"({c})*T[{list(w.window)}]"
                for w, c in sorted(self.terms.items(),
                                   key=lambda t: (t[0].length(), t[0].window))]
        return " + ".join(bits)


@lru_cache(maxsize=None)
def _tw_times_simple(w: AffinePermutation, i: int):
    """T_w * T_{s_i} as a tuple of (permutation, coeff) pairs."""
    ws = w * affine_weyl.simple(w.rank, i)
    if not w.has_right_descent(i):
        return ((ws, ONE),)
    return ((w, _Q_LOW), (ws, _VM2))


def mul_by_simple(h: HeckeElement, i: int) -> HeckeElement:
    """h * T_{s_i}."""
    D = h.rank
    out = {}
    for w, c in h.terms.items():
        add_scaled(out, _tw_times_simple(w, i), c)
    return HeckeElement(D, out)


def mul_by_rotation(h: HeckeElement, k: int) -> HeckeElement:
    """h * T_{rho^k}; rotations have length zero."""
    D = h.rank
    rho = affine_weyl.rotation(D, k)
    return HeckeElement(D, {w * rho: c for w, c in h.terms.items()})


def mul(h1: HeckeElement, h2: HeckeElement) -> HeckeElement:
    """The algebra product, via reduced words of the right factor."""
    if h1.rank != h2.rank:
        raise ValueError("rank mismatch")
    D = h1.rank
    if len(h2.terms) == 1 and h2 == HeckeElement.unit(D):
        # h1 T_e = h1, copied with no scalar product
        return HeckeElement(D, dict(h1.terms))
    out = {}
    for w, c in h2.terms.items():
        k, word = w.reduced_word()
        piece = mul_by_rotation(h1, k) if k else h1
        for i in word:
            piece = mul_by_simple(piece, i)
        add_scaled(out, piece.terms, c)
    return HeckeElement(D, out)


def mul_by_simple_inverse(h: HeckeElement, i: int) -> HeckeElement:
    """h * T_{s_i}^{-1}; T_s^{-1} = v^2 T_s + (v^2 - 1)."""
    out = {w: _VP2 * c for w, c in mul_by_simple(h, i).terms.items()}
    return HeckeElement(h.rank, add_scaled(out, h.terms, _VP2_M1))


def inverse_of_Tw(w: AffinePermutation) -> HeckeElement:
    """T_w^{-1} by inverting each letter of a reduced word."""
    D = w.rank
    k, word = w.reduced_word()
    h = HeckeElement.unit(D)
    for i in reversed(word):
        h = mul_by_simple_inverse(h, i)
    return mul_by_rotation(h, -k)


# w -> bar(T_w) as ((u, ...), (coeff, ...)); see the module docstring
_BAR_T: dict = {}
_INTERN: dict = {}


def _intern(x):
    return _INTERN.setdefault(x, x)


def _bar_t(w: AffinePermutation) -> tuple:
    """bar(T_w), memoized: bar(T_{rho^k}) = T_{rho^k}, and
    bar(T_w) = bar(T_{w s_i}) T_{s_i}^{-1} for the smallest right descent i."""
    got = _BAR_T.get(w)
    if got is not None:
        return got
    D = w.rank
    # walk down one letter at a time to a memoized or length-zero element
    path = []
    while got is None:
        if w.rotation_power() is not None:
            w = _intern(w)
            got = ((w,), (ONE,))
            _BAR_T[w] = got
            break
        i = next(j for j in range(D) if w.has_right_descent(j))
        path.append((w, i))
        w = w * affine_weyl.simple(D, i)
        got = _BAR_T.get(w)
    for w, i in reversed(path):
        h = mul_by_simple_inverse(HeckeElement(D, dict(zip(*got))), i)
        got = (tuple(map(_intern, h.terms)), tuple(map(_intern, h.terms.values())))
        _BAR_T[_intern(w)] = got
    return got


def bar(h: HeckeElement) -> HeckeElement:
    """The bar involution: v -> v^-1 and T_w -> T_{w^-1}^{-1}.

    Bar is a ring homomorphism twisted on scalars, so bar(h) is the sum of
    bar(c) bar(T_w) over the terms c T_w of h, with bar(T_w) from the memo.
    """
    out = {}
    for w, c in h.terms.items():
        add_scaled(out, zip(*_bar_t(w)), c.bar())
    return HeckeElement(h.rank, out)


# ---------------------------------------------------------------------------
# Double-coset sums and the coset collapse


def double_coset_sum(lam: flag_comb.FlagSymbol, mu: flag_comb.FlagSymbol,
                     s: flag_comb.PeriodicMatrix, c: LaurentScalar = ONE) -> HeckeElement:
    """c T_s, T_s the sum of T_w over the double coset S_lam w S_mu attached
    to s."""
    if s.row_weight() != lam.weight() or s.col_weight() != mu.weight():
        raise ValueError("s is not in the (lam, mu) block")
    D = s.D
    rep = flag_comb.double_coset_min_rep(s)
    elems = affine_weyl.double_coset_elements(D, lam.values, rep, mu.values)
    return HeckeElement(D, dict.fromkeys(elems, c))


def collapse(terms: dict, coset, stat) -> dict:
    """The coordinates {x: c} of sum of c_k T_k over terms {k: c_k} in a
    coarser coset basis [x] = v^{stat(x)} T_x, T_x the sum of the T_k over
    the finer labels k (permutations or left cosets) inside the coset of x:
    the inverse of expanding into coset sums.

    coset(k) returns the label x of the coset that holds k and all of that
    coset's finer labels.  Raises ArithmeticError when the coefficients are
    not constant on a coset, that is when the sum is not in the span of the
    T_x.
    """
    remaining = dict(terms)
    out = {}
    while remaining:
        k = next(iter(remaining))
        c = remaining[k]
        x, elems = coset(k)
        for u in elems:
            c2 = remaining.pop(u, None)
            if c2 is None or c2 != c:
                raise ArithmeticError(f"coefficients not constant on the coset of {x}")
        out[x] = c.shift(-stat(x))
    return out


def bar_parabolic(lam: flag_comb.FlagSymbol, h: HeckeElement) -> dict:
    """bar(P_lam h) as coordinates {q: c} on the left-coset sums T_q, from
    bar(h) alone (the identities in the module docstring): a term c T_u of
    bar(h) adds v^e c to T_q, (q, e) read from the memo `_left_coset`."""
    def coords():
        for u, c in bar(h).terms.items():
            q, e = _left_coset(lam, u)
            yield q, c.shift(e)

    return add_scaled({}, coords())


@lru_cache(maxsize=None)
def _left_coset(lam: flag_comb.FlagSymbol, u: AffinePermutation) -> tuple:
    """(q, e) for a term T_u in `bar_parabolic`: the left coset q = (lam)u
    and e = 2 (l(w_lam) - (l(u) - l(w_q))), where l(w_lam) - (l(u) - l(w_q))
    counts the pairs of positions a < b in one block of lam with
    u^-1(a) < u^-1(b)."""
    vals, inv = lam.values, u.inverse().window
    e = sum(1 for a in range(lam.D) for b in range(a + 1, lam.D)
            if vals[a] == vals[b] and inv[a] < inv[b])
    return lam.act(u), 2 * e


# ---------------------------------------------------------------------------
# The commuting lattice X_1, ..., X_D
#
# X_1 is a seed element and X_{i+1} := v^2 T_i X_i T_i, which makes the
# relation T_i X_i T_i = v^-2 X_{i+1} hold by construction.  The seed is
# pinned by requiring the remaining lattice relations (commutativity and
# disjoint commutation with the T_i); see the presentation test suite.


@lru_cache(maxsize=None)
def x_element(D: int, j: int) -> HeckeElement:
    """The lattice element X_j, j in [1, D]."""
    if not 1 <= j <= D:
        raise ValueError(f"X-index {j} out of range [1, {D}]")
    if j == 1:
        # inverse of the translation by the first fundamental coweight
        t1 = affine_weyl.translation(D, [1] + [0] * (D - 1))
        return inverse_of_Tw(t1)
    h = mul(HeckeElement.t(affine_weyl.simple(D, j - 1)), x_element(D, j - 1))
    return mul_by_simple(h, j - 1).scale(_VP2)


@lru_cache(maxsize=None)
def x_inverse(D: int, j: int) -> HeckeElement:
    """X_j^{-1}: X_1^{-1} = T_{t_1} and X_{i+1}^{-1} = v^{-2} T_i^{-1} X_i^{-1} T_i^{-1}."""
    if not 1 <= j <= D:
        raise ValueError(f"X-index {j} out of range [1, {D}]")
    if j == 1:
        t1 = affine_weyl.translation(D, [1] + [0] * (D - 1))
        return HeckeElement.t(t1)
    h = mul(inverse_of_Tw(affine_weyl.simple(D, j - 1)), x_inverse(D, j - 1))
    return mul_by_simple_inverse(h, j - 1).scale(_VM2)
