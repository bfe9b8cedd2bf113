"""Periodic flag symbols, periodic matrices, and their statistics.

A flag symbol p is a function Z -> Z with p(j + D) = p(j) + n, stored by its
window (p(1), ..., p(D)).  A periodic matrix s is an N-valued Z x Z matrix
with s_{i+n, j+n} = s_{ij} and total mass D over any fundamental strip; it is
stored on the strip with row index in [1, n].

Order.  Labels are ordered: symbols compare by (n, D, window) and matrices
by (n, D, entries), and the cached fields below take no part.  Within one
(n, D), symbols sort by window and matrices by their sorted cells.  Every
report that lists labels sorts them in this order, and the canonical
solver breaks ties of the grade by it.

Memos.  Labels are interned: `FlagSymbol.make` and `PeriodicMatrix.make`
return one shared object per key, (n, D, window) for symbols and (n, D,
sorted normalized cells) for matrices, from the tables `_SYMBOLS` and
`_MATRICES`, which live as long as the process.  Each object computes its
hash, dominant representative, minimal coset rep and statistic (x_stat or
y_stat) once, on first use, in fields that take no part in equality, so an
equal label built directly with the constructor still compares and hashes
the same.  Sharing is safe because a label is frozen and each cached value
is a pure function of its key (an immutable symbol, permutation or int); a
key enters a table only after the constructor validated it, and a table is
filled by `setdefault`, so two threads that build one label get one object.
In `run-suite canonical --n 2 --D 3 --window 5 --band 2` the tables hold 261
symbols and 220 matrices, and x_stat is counted once per symbol.

`block_of`, `symbol_of_matrix` and `left_cosets` are each memoized per
matrix in an unbounded `lru_cache` that lives as long as the process.  Each
is a pure function of the matrix (the block is fixed by its row and column
weights, the symbol by the matrix and its column symbol, and the cosets by
the matrix and its block) and returns a frozen value or a tuple of them, so
the memos are safe to share between callers and threads.  The symbol memo
holds one entry per matrix met: 220 after the canonical suite above, and
4636 after `run-suite transfer --n 4 --D 1 --band 1 --word-len 2`.
`double_coset_min_rep` has no memo of its own: it reads the min rep cached
on the memoized symbol, so a repeated call builds nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

from . import affine_weyl
from .affine_weyl import AffinePermutation

# the intern tables of `FlagSymbol.make` and `PeriodicMatrix.make`: normalized
# key -> the one shared label (see "Memos" above)
_SYMBOLS: dict = {}
_MATRICES: dict = {}


@dataclass(frozen=True, slots=True, order=True)
class FlagSymbol:
    n: int
    D: int
    values: tuple
    # derived data, computed on first use (see "Memos" above): the canonical
    # solver, the coset collapse and the stalk readout ask for it again and
    # again
    _hash: int | None = field(default=None, init=False, compare=False,
                              repr=False)
    _x_stat: int | None = field(default=None, init=False, compare=False,
                                repr=False)
    _dominant: "FlagSymbol | None" = field(default=None, init=False,
                                           compare=False, repr=False)
    _min_rep: AffinePermutation | None = field(default=None, init=False,
                                               compare=False, repr=False)

    def __post_init__(self):
        if len(self.values) != self.D:
            raise ValueError("window length must equal D")
        if self.n < 1 or self.D < 1:
            raise ValueError("n and D must be positive")

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.n, self.D, self.values))
            object.__setattr__(self, "_hash", h)
        return h

    @staticmethod
    def make(n: int, D: int, values) -> "FlagSymbol":
        """The shared symbol with this window, built and validated on the
        first call for its key."""
        values = tuple(values)
        key = (n, D, values)
        p = _SYMBOLS.get(key)
        if p is None:
            p = _SYMBOLS.setdefault(key, FlagSymbol(n, D, values))
        return p

    def __call__(self, j: int) -> int:
        q, r = divmod(j - 1, self.D)
        return self.values[r] + q * self.n

    def weight(self) -> tuple:
        """The n-tuple of value multiplicities (entries sum to D)."""
        wt = [0] * self.n
        for v in self.values:
            wt[(v - 1) % self.n] += 1
        return tuple(wt)

    def preimage(self, value: int) -> list:
        """All positions j in Z with p(j) = value (sorted, finite)."""
        out = []
        for j, vj in enumerate(self.values, start=1):
            diff = value - vj
            if diff % self.n == 0:
                out.append(j + (diff // self.n) * self.D)
        out.sort()
        return out

    def dominant_rep(self) -> "FlagSymbol":
        """The unique dominant symbol in the orbit (sorted residue values),
        cached on self."""
        lam = self._dominant
        if lam is None:
            vals = sorted(((v - 1) % self.n) + 1 for v in self.values)
            lam = FlagSymbol.make(self.n, self.D, vals)
            object.__setattr__(self, "_dominant", lam)
        return lam

    def act(self, w: AffinePermutation) -> "FlagSymbol":
        """Right action (p)w with (p)w (k) = p(w(k))."""
        n, D, vals = self.n, self.D, self.values
        if w.rank != D:
            raise ValueError("rank mismatch")
        out = []
        for wk in w.window:
            q, r = divmod(wk - 1, D)
            out.append(vals[r] + q * n)
        return FlagSymbol.make(n, D, out)

    def with_value(self, position: int, value: int) -> "FlagSymbol":
        """Replace the value at the given position (periodic: changes the
        whole position class mod D)."""
        q, r = divmod(position - 1, self.D)
        vals = list(self.values)
        vals[r] = value - q * self.n
        return FlagSymbol.make(self.n, self.D, vals)

    def min_coset_rep(self) -> AffinePermutation:
        """Minimal w with (lambda)w = p, lambda the dominant representative,
        cached on self."""
        w = self._min_rep
        if w is None:
            w = affine_weyl.min_coset_rep(self.n, self.dominant_rep().values,
                                          self.values)
            object.__setattr__(self, "_min_rep", w)
        return w

    def __repr__(self):
        return f"FlagSymbol(n={self.n}, D={self.D}, {list(self.values)})"

    def to_text(self) -> str:
        return f"n={self.n};D={self.D};[{','.join(str(v) for v in self.values)}]"

    @staticmethod
    def from_text(text: str) -> "FlagSymbol":
        parts = text.split(";")
        if len(parts) != 3 or not parts[0].startswith("n=") or not parts[1].startswith("D="):
            raise ValueError(f"bad flag symbol text {text!r}")
        body = parts[2]
        return FlagSymbol.make(int(parts[0][2:]), int(parts[1][2:]),
                               [int(x) for x in body.strip("[]").split(",")])


def dominant_from_weight(n: int, D: int, weight) -> FlagSymbol:
    """Inverse of FlagSymbol.weight on dominant symbols."""
    if len(weight) != n or sum(weight) != D or any(m < 0 for m in weight):
        raise ValueError("weight must be a nonnegative n-tuple summing to D")
    vals = []
    for i, m in enumerate(weight, start=1):
        vals.extend([i] * m)
    return FlagSymbol.make(n, D, vals)


def weights(n: int, D: int):
    """Every weight in N^n summing to D, in lexicographic order."""
    if n == 1:
        yield (D,)
        return
    for a in range(D + 1):
        for rest in weights(n - 1, D - a):
            yield (a,) + rest


def residue_classes(n: int, i: int) -> tuple:
    """The 0-based weight indices ((i - 1) mod n, i mod n) of the value
    classes between which residue i moves: e_i turns a value i + 1 into i,
    raising the first and lowering the second, and f_i does the reverse."""
    return (i - 1) % n, i % n


def all_dominant(n: int, D: int) -> list:
    """All dominant symbols in C_D, one per weight, in the order of
    `weights`."""
    return [dominant_from_weight(n, D, wt) for wt in weights(n, D)]


def x_stat(p: FlagSymbol) -> int:
    """#{(k, l) | p(k) in [1, n], k < l, p(k) >= p(l)}, cached on p."""
    x = p._x_stat
    if x is None:
        x = _count_x_stat(p)
        object.__setattr__(p, "_x_stat", x)
    return x


def _count_x_stat(p: FlagSymbol) -> int:
    """x_stat(p), counted afresh."""
    n, D = p.n, p.D
    total = 0
    for j in range(1, D + 1):
        # the unique shift placing p at position class j into [1, n]
        m = -((p.values[j - 1] - 1) // n)
        k = j + m * D
        pk = p(k)
        for j2 in range(1, D + 1):
            v2 = p.values[j2 - 1]
            # l = j2 + m2*D, need l > k and p(l) = v2 + m2*n <= pk
            lo = (k - j2) // D + 1
            hi = (pk - v2) // n
            if hi >= lo:
                total += hi - lo + 1
    return total


@dataclass(frozen=True, slots=True, order=True)
class PeriodicMatrix:
    n: int
    D: int
    entries: tuple  # sorted tuple of ((i, j), value), i in [1, n], value > 0
    # hash((n, D, entries)), the dataclass hash, computed on first use: the
    # span and the Schur products key dicts by matrices and would otherwise
    # rehash the entries tuple on every lookup
    _hash: int | None = field(default=None, init=False, compare=False,
                              repr=False)
    _y_stat: int | None = field(default=None, init=False, compare=False,
                                repr=False)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.n, self.D, self.entries))
            object.__setattr__(self, "_hash", h)
        return h

    @staticmethod
    def make(n: int, D: int, entries) -> "PeriodicMatrix":
        """The shared matrix of any {(i, j): value} mapping or iterable of
        ((i, j), value) cells; rows are normalized to [1, n].  The mass is
        checked on the first call for the normalized key."""
        norm = {}
        items = entries.items() if isinstance(entries, dict) else entries
        for (i, j), val in items:
            if val < 0:
                raise ValueError("matrix entries must be nonnegative")
            if val == 0:
                continue
            m = -((i - 1) // n)
            key = (i + m * n, j + m * n)
            norm[key] = norm.get(key, 0) + val
        key = (n, D, tuple(sorted(norm.items())))
        mat = _MATRICES.get(key)
        if mat is None:
            mat = PeriodicMatrix(*key)
            if mat.total() != D:
                raise ValueError(f"total mass {mat.total()} != D={D}")
            mat = _MATRICES.setdefault(key, mat)
        return mat

    def lookup(self, i: int, j: int) -> int:
        m = -((i - 1) // self.n)
        return dict(self.entries).get((i + m * self.n, j + m * self.n), 0)

    def entry_dict(self) -> dict:
        return dict(self.entries)

    def total(self) -> int:
        return sum(v for _, v in self.entries)

    def row_weight(self) -> tuple:
        wt = [0] * self.n
        for (i, _), val in self.entries:
            wt[i - 1] += val
        return tuple(wt)

    def col_weight(self) -> tuple:
        wt = [0] * self.n
        for (_, j), val in self.entries:
            wt[(j - 1) % self.n] += val
        return tuple(wt)

    def transpose(self) -> "PeriodicMatrix":
        return PeriodicMatrix.make(self.n, self.D,
                                   {(j, i): v for (i, j), v in self.entries})

    def __repr__(self):
        cells = ", ".join(f"({i},{j})->{v}" for (i, j), v in self.entries)
        return f"PeriodicMatrix(n={self.n}, D={self.D}, {{{cells}}})"

    def to_json(self) -> dict:
        return {"n": self.n, "D": self.D,
                "entries": [[i, j, v] for (i, j), v in self.entries]}


def y_stat(s: PeriodicMatrix) -> int:
    """Sum of s_ij s_kl over {(i, j, k, l) | i >= k, j < l, i in [1, n]},
    cached on s."""
    y = s._y_stat
    if y is None:
        y = _count_y_stat(s)
        object.__setattr__(s, "_y_stat", y)
    return y


def _count_y_stat(s: PeriodicMatrix) -> int:
    """y_stat(s), counted afresh."""
    n = s.n
    total = 0
    for (i, j), a in s.entries:  # i in [1, n]
        for (k0, l0), b in s.entries:
            # (k, l) = (k0 + m*n, l0 + m*n); need k <= i and l > j
            hi = (i - k0) // n
            lo = (j - l0) // n + 1
            if hi >= lo:
                total += a * b * (hi - lo + 1)
    return total


def matrix_of_pair(p: FlagSymbol, q: FlagSymbol) -> PeriodicMatrix:
    """The relative-position matrix: s_ij = #{k | p(k) = i, q(k) = j}."""
    if (p.n, p.D) != (q.n, q.D):
        raise ValueError("rank mismatch")
    counts = {}
    for i in range(1, p.n + 1):
        for k in p.preimage(i):
            key = (i, q(k))
            counts[key] = counts.get(key, 0) + 1
    return PeriodicMatrix.make(p.n, p.D, counts)


def delta_matrix(wt) -> PeriodicMatrix:
    """The diagonal matrix of a weight, 1_wt: entry (i, i) = wt_i."""
    return PeriodicMatrix.make(len(wt), sum(wt),
                               {(i, i): m for i, m in enumerate(wt, start=1)})


def generator_matrices(wt, i: int, k: int):
    """The pair (e-matrix, f-matrix) of the divided powers e_i^(k) 1_wt and
    f_i^(k) at a weight wt and a residue i in [0, n-1], n = len(wt):
    delta(wt) - k E_rr + k E_{r,r+1} and its transpose, r the row of the
    class that e_i raises.  Each divided power is the characteristic
    function of one orbit, so its image is this one basis element.

    Returns (None, None) when wt_r < k.
    """
    n = len(wt)
    if not 0 <= i < n:
        raise ValueError(f"residue {i} out of range [0, {n - 1}]")
    row = residue_classes(n, i)[0] + 1  # literal row index in [1, n]
    if wt[row - 1] < k:
        return None, None
    cells = {(r, r): m for r, m in enumerate(wt, start=1)}
    cells[(row, row)] -= k
    cells[(row, row + 1)] = cells.get((row, row + 1), 0) + k
    e_mat = PeriodicMatrix.make(n, sum(wt), cells)
    return e_mat, e_mat.transpose()


def is_aperiodic(s: PeriodicMatrix) -> bool:
    """True iff every nonzero diagonal offset has a vanishing entry."""
    offsets = {j - i for (i, j), _ in s.entries if j != i}
    for off in offsets:
        if all(s.lookup(i, i + off) > 0 for i in range(1, s.n + 1)):
            return False
    return True


def order_hint(t: PeriodicMatrix, s: PeriodicMatrix) -> str:
    """Diagnostic for the closure order: 'equal', 'definitely-not-leq' when
    some diagonal entry t_ii < s_ii, or 'consistent'.

    The diagonal test is a heuristic, not a criterion: it is not sufficient
    for t below s, and in the affine case it is not necessary either, since
    tau([s]) can have a lower term t with t_ii < s_ii (tests/test_flag_comb.py
    gives one at n = 2, D = 3)."""
    if (t.n, t.D) != (s.n, s.D):
        raise ValueError("shape mismatch")
    if t.row_weight() != s.row_weight() or t.col_weight() != s.col_weight():
        raise ValueError("row/column weights differ")
    if t == s:
        return "equal"
    if any(t.lookup(i, i) < s.lookup(i, i) for i in range(1, t.n + 1)):
        return "definitely-not-leq"
    return "consistent"


@lru_cache(maxsize=None)
def block_of(s: PeriodicMatrix) -> tuple:
    """The block (lam, mu) of [s]: the dominant symbols of its row and
    column weights."""
    return (dominant_from_weight(s.n, s.D, s.row_weight()),
            dominant_from_weight(s.n, s.D, s.col_weight()))


@lru_cache(maxsize=None)
def symbol_of_matrix(s: PeriodicMatrix) -> FlagSymbol:
    """A flag symbol p with matrix_of_pair(p, mu) = s, mu the column symbol
    of s, built canonically; memoized per matrix."""
    n, D = s.n, s.D
    mu = block_of(s)[1]
    window = [None] * D
    for j0 in range(1, n + 1):
        block = mu.preimage(j0)  # consecutive positions in [1, D] with mu-value j0
        # literal rows of column j0: stored entry (i, j) contributes at row
        # i + m*n where j + m*n = j0
        rows = []
        for (i, j), cnt in s.entries:
            if (j0 - j) % n == 0:
                m = (j0 - j) // n
                rows.extend([i + m * n] * cnt)
        rows.sort()
        for k, val in zip(block, rows, strict=True):
            window[k - 1] = val
    return FlagSymbol.make(n, D, window)


def double_coset_min_rep(s: PeriodicMatrix) -> AffinePermutation:
    """The minimal element of the double coset S_lam w S_mu attached to s,
    (lam, mu) its block, certified by matrix_of_pair((lam)w, mu) = s.

    It is w = p.min_coset_rep(), p = symbol_of_matrix(s), which is minimal
    in S_lam w S_mu:
    - p is weakly increasing on every mu-block, because its rows are sorted;
    - w is minimal in S_lam w by construction;
    - for adjacent k, k+1 in one mu-block, if p(k) < p(k+1), then
      w(k) < w(k+1), because lam is weakly increasing on Z; if
      p(k) = p(k+1), `min_coset_rep` assigns the two positions in
      increasing order;
    - so w has no right descent in S_mu, and w is the minimal element of
      S_lam w S_mu.
    """
    return symbol_of_matrix(s).min_coset_rep()


@lru_cache(maxsize=None)
def left_cosets(s: PeriodicMatrix) -> tuple:
    """The left S_lam-cosets inside the double coset of s, (lam, mu) its
    block, as pairs (q, w_q) of the symbol q = (lam)w_q and the minimal rep
    w_q, sorted by (length, window) of w_q; T_s = P_lam * sum of T_{w_q}
    with lengths adding.

    The symbols are the S_mu-orbit of p = symbol_of_matrix(s), so the
    double coset is never enumerated.  Memoized per matrix for the life of
    the process: the result is a pure function of the key and a tuple of
    immutable values.
    """
    p = symbol_of_matrix(s)
    mu = block_of(s)[1]
    orbit = {p.act(u) for u in affine_weyl.young_subgroup_elements(s.D, mu.values)}
    pairs = [(q, q.min_coset_rep()) for q in orbit]
    pairs.sort(key=lambda t: (t[1].length(), t[1].window))
    return tuple(pairs)


def enumerate_flag_symbols(n: int, D: int, lo: int, hi: int) -> list:
    """All flag symbols with window values in [lo, hi], in lexicographic
    order of the window."""
    return [FlagSymbol.make(n, D, w) for w in product(range(lo, hi + 1), repeat=D)]
