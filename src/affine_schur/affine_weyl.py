"""The extended affine symmetric group of type GL_D.

Elements are bijections w: Z -> Z with w(i + D) = w(i) + D, stored by the
window (w(1), ..., w(D)).  The group splits as <rho> x Coxeter part, where
rho is the length-zero rotation i -> i + 1 and the Coxeter part is generated
by the simple reflections s_0, ..., s_{D-1} (indices mod D).

Products compose inside-first on the right, so that the right action on
flag symbols, (p)w (k) = p(w(k)), satisfies ((p)w)w' = (p)(ww').

Memos.  Young subgroups and double cosets are built, not searched for (see
the section below), once per process:
`young_subgroup_elements` is memoized per (D, lambda) and
`double_coset_elements` per (D, lambda, rep, mu), each in an unbounded
`lru_cache` on a private helper that lives as long as the process.  Both
are pure functions of their key, and they return tuples of immutable
permutations, so a cached result is safe to hand to every caller and to
share between threads.  The public functions stay the module-level names
that callers look up, so that a caller can rebind or wrap them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby, permutations, product


@dataclass(frozen=True, slots=True)
class AffinePermutation:
    rank: int
    window: tuple
    # hash((rank, window)), the dataclass hash, computed on first use: the
    # Hecke products and the bar memo key dicts by permutations and would
    # otherwise rehash the window on every lookup
    _hash: int | None = field(default=None, init=False, compare=False,
                              repr=False)

    def __post_init__(self):
        D = self.rank
        if len(self.window) != D:
            raise ValueError("window length must equal rank")
        if len({w % D for w in self.window}) != D:
            raise ValueError("window entries must be distinct mod D")

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.rank, self.window))
            object.__setattr__(self, "_hash", h)
        return h

    def __call__(self, k: int) -> int:
        q, r = divmod(k - 1, self.rank)
        return self.window[r] + q * self.rank

    def __mul__(self, other: "AffinePermutation") -> "AffinePermutation":
        """(self * other)(k) = self(other(k)):  other acts first."""
        D = self.rank
        if D != other.rank:
            raise ValueError("rank mismatch")
        win = self.window
        out = []
        for o in other.window:
            q, r = divmod(o - 1, D)
            out.append(win[r] + q * D)
        return _trusted(D, tuple(out))

    def inverse(self) -> "AffinePermutation":
        D = self.rank
        inv = [0] * D
        for j, wj in enumerate(self.window, start=1):
            q, r = divmod(wj - 1, D)
            inv[r] = j - q * D
        return _trusted(D, tuple(inv))

    # -- length and descents -----------------------------------------------

    def length(self) -> int:
        """Number of inversions (i, j), i in [1, D], i < j, w(i) > w(j), in
        closed form by Shi's formula: the sum over 1 <= i < j <= D of
        |floor((w(j) - w(i)) / D)| (J.-Y. Shi, The Kazhdan-Lusztig cells in
        certain affine Weyl groups, LNM 1179, 1986; Bjorner-Brenti,
        Combinatorics of Coxeter Groups, Section 8.3).  The term of a pair
        i < j counts the inversions between the position classes of i and j
        mod D; one class has none, as w is increasing on it."""
        D, win, total = self.rank, self.window, 0
        for i, wi in enumerate(win):
            for wj in win[i + 1:]:
                q = (wj - wi) // D
                total += q if q >= 0 else -q
        return total

    def has_right_descent(self, i: int) -> bool:
        """True iff length(w s_i) < length(w), i a residue mod D."""
        i = i % self.rank
        if i == 0:
            return self(0) > self(1)
        return self(i) > self(i + 1)

    def rotation_power(self):
        """k if self == rho^k, else None."""
        k = self.window[0] - 1
        if all(w == j + k for j, w in enumerate(self.window, start=1)):
            return k
        return None

    def reduced_word(self):
        """Factor w = rho^k s_{i_1} ... s_{i_l} with l = length(w).

        Returns (k, [i_1, ..., i_l]).
        """
        w, word = self, []
        while True:
            k = w.rotation_power()
            if k is not None:
                word.reverse()
                return k, word
            for i in range(self.rank):
                if w.has_right_descent(i):
                    word.append(i)
                    w = w * simple(self.rank, i)
                    break
            else:  # pragma: no cover - impossible for valid elements
                raise AssertionError("non-rotation element without descent")

    def __repr__(self):
        return f"AffinePermutation(D={self.rank}, {list(self.window)})"


_SET_RANK = AffinePermutation.rank.__set__
_SET_WINDOW = AffinePermutation.window.__set__
_SET_HASH = AffinePermutation._hash.__set__


def _trusted(rank: int, window: tuple) -> AffinePermutation:
    """An AffinePermutation built without `__post_init__`'s validation, for
    windows that are valid by construction (products and inverses of valid
    permutations)."""
    out = object.__new__(AffinePermutation)
    _SET_RANK(out, rank)
    _SET_WINDOW(out, window)
    _SET_HASH(out, None)
    return out


def identity(D: int) -> AffinePermutation:
    return AffinePermutation(D, tuple(range(1, D + 1)))


@lru_cache(maxsize=None)
def simple(D: int, i: int) -> AffinePermutation:
    """The simple reflection s_i swapping the residue classes of i and i+1."""
    i = i % D
    win = list(range(1, D + 1))
    if i == 0:
        win[0], win[D - 1] = 0, D + 1
        if D == 1:
            raise ValueError("no simple reflections for D=1")
    else:
        win[i - 1], win[i] = i + 1, i
    return AffinePermutation(D, tuple(win))


def rotation(D: int, k: int = 1) -> AffinePermutation:
    """rho^k, where rho(i) = i + 1; a length-zero element."""
    return AffinePermutation(D, tuple(range(1 + k, D + 1 + k)))


def translation(D: int, mu) -> AffinePermutation:
    """The translation element with window (1 + D*mu_1, ..., D + D*mu_D)."""
    if len(mu) != D:
        raise ValueError("translation vector length must equal rank")
    return AffinePermutation(D, tuple(j + D * m for j, m in enumerate(mu, start=1)))


def from_word(D: int, rot: int, word) -> AffinePermutation:
    w = rotation(D, rot)
    for i in word:
        w = w * simple(D, i)
    return w


# ---------------------------------------------------------------------------
# Young subgroups and coset representatives.
#
# A dominant symbol is a weakly increasing window (l_1 <= ... <= l_D) with
# values in [1, n]; its blocks of equal values are intervals of positions in
# [1, D], and its Young subgroup S_lambda is the product of the permutation
# groups of the blocks.  S_lambda rep S_mu is the union of the left cosets
# S_lambda (rep y), y in S_mu.  The minimal coset and double-coset
# representatives are read off flag symbols (`min_coset_rep`,
# `flag_comb.double_coset_min_rep`).


def young_subgroup_elements(D: int, dominant_window) -> tuple:
    """All elements of S_lambda (finite), sorted by (length, window)."""
    return _young_subgroup_elements(D, tuple(dominant_window))


@lru_cache(maxsize=None)
def _young_subgroup_elements(D: int, dominant_window: tuple) -> tuple:
    """Every window that permutes each block within itself: the blocks are
    consecutive, so a window is the concatenation of one permutation of
    each block."""
    blocks = [tuple(b) for _, b in groupby(range(1, D + 1),
                                           key=lambda j: dominant_window[j - 1])]
    elems = [_trusted(D, sum(perms, ()))
             for perms in product(*map(permutations, blocks))]
    return tuple(sorted(elems, key=lambda w: (w.length(), w.window)))


def min_coset_rep(n: int, dominant_window, target_window) -> AffinePermutation:
    """The minimal-length w with (lambda)w = p, for p in the orbit of lambda.

    lambda is dominant, so its periodic extension is weakly increasing on Z
    and each value class is an interval of positions.
    """
    D = len(dominant_window)
    if len(target_window) != D:
        raise ValueError("rank mismatch")
    # base-value blocks of lambda (positions in [1, D] sharing a value)
    blocks = {}
    for j, val in enumerate(dominant_window, start=1):
        blocks.setdefault(val, []).append(j)
    window = [None] * D
    for base, block in blocks.items():
        # window positions k demanding a value base + m*n, pulled back by m*D;
        # assigning them to the block in increasing order makes w^{-1}
        # increasing on the block, which characterizes the minimal coset rep
        pulled = []
        for k, val in enumerate(target_window, start=1):
            if (val - base) % n == 0:
                m = (val - base) // n
                pulled.append((k - m * D, k, m))
        if len(pulled) != len(block):
            raise ValueError("target is not in the orbit of the dominant symbol")
        pulled.sort()
        for j, (_, k, m) in zip(block, pulled):
            window[k - 1] = j + m * D
    return AffinePermutation(D, tuple(window))


def double_coset_elements(D: int, lam_window, rep: AffinePermutation, mu_window) -> tuple:
    """All elements of S_lambda rep S_mu, sorted by (length, window)."""
    return _double_coset_elements(D, tuple(lam_window), rep, tuple(mu_window))


@lru_cache(maxsize=None)
def _double_coset_elements(D: int, lam_window: tuple, rep: AffinePermutation,
                           mu_window: tuple) -> tuple:
    """The union of the left cosets S_lambda (rep y) over y in S_mu; a y
    with rep y already in the union adds a coset that is there, so each
    left coset is multiplied out once."""
    young = _young_subgroup_elements(D, lam_window)
    elems = set()
    for y in _young_subgroup_elements(D, mu_window):
        x = rep * y
        if x not in elems:
            elems.update(u * x for u in young)
    return tuple(sorted(elems, key=lambda w: (w.length(), w.window)))
