"""The affine Hecke algebra H_D of type GL_D in the T_w basis.

Products, inverses, the bar involution, and the finite coset and double-coset
sums underlying the flag module and the Schur algebra.  The quadratic
relation is (T_i + 1)(T_i - v^-2) = 0 throughout.

Memo.  `bar` keeps bar(T_w) for every w it has met, in the module-level
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
"""

from __future__ import annotations

from functools import lru_cache

from . import affine_weyl, flag_comb
from .affine_weyl import AffinePermutation
from .laurent import LaurentScalar, ONE

_Q_LOW = LaurentScalar({-2: 1, 0: -1})   # v^-2 - 1
_VM2 = LaurentScalar({-2: 1})            # v^-2
_VP2 = LaurentScalar({2: 1})             # v^2
_VP2_M1 = LaurentScalar({2: 1, 0: -1})   # v^2 - 1


class HeckeElement:
    """A finite A-linear combination of T_w, w in the affine symmetric group."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: dict):
        self.rank = rank
        self.terms = {w: c for w, c in terms.items() if not c.is_zero()}

    @staticmethod
    def zero(rank: int) -> "HeckeElement":
        return HeckeElement(rank, {})

    @staticmethod
    def unit(rank: int) -> "HeckeElement":
        return HeckeElement(rank, {affine_weyl.identity(rank): ONE})

    @staticmethod
    def t(w: AffinePermutation) -> "HeckeElement":
        return HeckeElement(w.rank, {w: ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, w: AffinePermutation) -> LaurentScalar:
        return self.terms.get(w, LaurentScalar.zero())

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w)
            out[w] = c if s is None else s + c
        return HeckeElement(self.rank, out)

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self + other.scale(LaurentScalar.const(-1))

    def scale(self, c: LaurentScalar) -> "HeckeElement":
        return HeckeElement(self.rank, {w: c * x for w, x in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, HeckeElement)
                and self.rank == other.rank and self.terms == other.terms)

    def __hash__(self):
        return hash((self.rank, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "HeckeElement(0)"
        bits = [f"({c})*T[{list(w.window)}]"
                for w, c in sorted(self.terms.items(),
                                   key=lambda t: (t[0].length(), t[0].window))]
        return " + ".join(bits)

    def __mul__(self, other: "HeckeElement") -> "HeckeElement":
        return mul(self, other)


@lru_cache(maxsize=None)
def _tw_times_simple(rank: int, window: tuple, i: int):
    """T_w * T_{s_i} as a list of (window, coeff)."""
    w = AffinePermutation(rank, window)
    ws = w * affine_weyl.simple(rank, i)
    if not w.has_right_descent(i):
        return ((ws.window, ONE),)
    return ((window, _Q_LOW), (ws.window, _VM2))


def mul_by_simple(h: HeckeElement, i: int, side: str = "right") -> HeckeElement:
    """h * T_{s_i} (side='right') or T_{s_i} * h (side='left')."""
    D = h.rank
    out = {}
    for w, c in h.terms.items():
        if side == "right":
            pairs = _tw_times_simple(D, w.window, i)
        elif side == "left":
            # T_{s_i} T_w = (T_{w^-1} T_{s_i})^anti; use descent of w^-1
            winv = w.inverse()
            pairs = tuple((AffinePermutation(D, u).inverse().window, c2)
                          for u, c2 in _tw_times_simple(D, winv.window, i))
        else:
            raise ValueError(f"bad side {side!r}")
        for uwin, c2 in pairs:
            u = AffinePermutation(D, uwin)
            s = out.get(u)
            prod = c * c2
            out[u] = prod if s is None else s + prod
    return HeckeElement(D, out)


def mul_by_rotation(h: HeckeElement, k: int, side: str = "right") -> HeckeElement:
    """h * T_{rho^k} or T_{rho^k} * h; rotations have length zero."""
    D = h.rank
    rho = affine_weyl.rotation(D, k)
    if side == "right":
        return HeckeElement(D, {w * rho: c for w, c in h.terms.items()})
    if side == "left":
        return HeckeElement(D, {rho * w: c for w, c in h.terms.items()})
    raise ValueError(f"bad side {side!r}")


def mul(h1: HeckeElement, h2: HeckeElement) -> HeckeElement:
    """The algebra product, via reduced words of the right factor."""
    if h1.rank != h2.rank:
        raise ValueError("rank mismatch")
    D = h1.rank
    out = {}
    for w, c in h2.terms.items():
        k, word = w.reduced_word()
        piece = mul_by_rotation(h1, k) if k else h1
        for i in word:
            piece = mul_by_simple(piece, i)
        _accumulate(out, piece.terms.items(), c)
    return HeckeElement(D, out)


def _accumulate(out: dict, terms, c: LaurentScalar):
    """out += c * terms, in place; zero sums are dropped by the caller."""
    for u, d in terms:
        s = out.get(u)
        out[u] = c * d if s is None else s + c * d


def mul_by_simple_inverse(h: HeckeElement, i: int, side: str = "right") -> HeckeElement:
    """h * T_{s_i}^{-1} (or on the left); T_s^{-1} = v^2 T_s + (v^2 - 1)."""
    return mul_by_simple(h, i, side).scale(_VP2) + h.scale(_VP2_M1)


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
        _accumulate(out, zip(*_bar_t(w)), c.bar())
    return HeckeElement(h.rank, out)


# ---------------------------------------------------------------------------
# Coset sums


def coset_sum(lam: flag_comb.FlagSymbol, p: flag_comb.FlagSymbol) -> HeckeElement:
    """T_p = sum of T_w over the left coset S_lam w_p, w_p the minimal rep."""
    if p.dominant_rep() != lam:
        raise ValueError("p is not in the orbit of lam")
    D = p.D
    wp = p.min_coset_rep()
    terms = {u * wp: ONE
             for u in affine_weyl.young_subgroup_elements(D, lam.values)}
    return HeckeElement(D, terms)


def double_coset_sum(lam: flag_comb.FlagSymbol, mu: flag_comb.FlagSymbol,
                     s: flag_comb.PeriodicMatrix) -> HeckeElement:
    """T_s = sum of T_w over the double coset S_lam w S_mu attached to s."""
    if s.row_weight() != lam.weight() or s.col_weight() != mu.weight():
        raise ValueError("s is not in the (lam, mu) block")
    D = s.D
    rep = flag_comb.double_coset_min_rep(s, lam, mu)
    elems = affine_weyl.double_coset_elements(D, lam.values, rep, mu.values)
    return HeckeElement(D, {w: ONE for w in elems})


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
    prev = x_element(D, j - 1)
    h = mul_by_simple(prev, j - 1, side="left")
    h = mul_by_simple(h, j - 1, side="right")
    return h.scale(_VP2)


@lru_cache(maxsize=None)
def x_inverse(D: int, j: int) -> HeckeElement:
    """X_j^{-1}: X_1^{-1} = T_{t_1} and X_{i+1}^{-1} = v^{-2} T_i^{-1} X_i^{-1} T_i^{-1}."""
    if not 1 <= j <= D:
        raise ValueError(f"X-index {j} out of range [1, {D}]")
    if j == 1:
        t1 = affine_weyl.translation(D, [1] + [0] * (D - 1))
        return HeckeElement.t(t1)
    prev = x_inverse(D, j - 1)
    h = mul_by_simple_inverse(prev, j - 1, side="left")
    h = mul_by_simple_inverse(h, j - 1, side="right")
    return h.scale(_VM2)
