"""The affine q-Schur algebra S_D in the [s] basis.

Elements are flat combinations {matrix: scalar}, a `vector.SparseVector`;
their grouping into (lam, mu) blocks is derived (`SchurElement.blocks`) from
`flag_comb.block_of`, and every sum goes through `vector.add_scaled`.
Multiplication reads the product back from the action on the flag module
(one source of truth, no structure-constant tables): an element of column
nu is fixed by its value on the dominant [nu], so a*[t] for t of column nu
is `from_column(nu, a*column_vector(t))`.  Also: the generator images of
the quantum-algebra homomorphism, monomial evaluation, the sign character
at D = n, and the block twist psi.  A divided power e_i^(k) or f_i^(k) at a
weight is the characteristic function of one orbit, as in the
Beilinson-Lusztig-MacPherson construction, so its image is the single
basis element of `flag_comb.generator_matrices`, and monomial evaluation
multiplies by each letter once (`_mul_gen`): one `schur_mul` by the sum of
these elements at the weights of the element it extends.  The sign
character needs no Hecke algebra: on its one block [s] is a single
v^{y_s} T_w, and `epsilon_degrees` reads its value off the matrix.

The column map.  An element z of column nu (its terms in blocks (lam, nu))
is fixed by its value z*[nu] = v^{x_nu} z on the dominant [nu].
`column_vector(s)` gives [s]*[nu] = v^{x_nu + y_s} T_s with no Hecke
product, T_s being the sum of the left-coset sums T_q = v^{-x_q} [q] over
the left S_lam-cosets q inside the double coset of s
(`flag_comb.left_cosets`).  `from_column` goes back: `hecke.collapse`
gathers z's coordinates v^{x_r - x_nu} c_r on the T_r into double cosets
[t] = v^{y_t} T_t, and raises ArithmeticError if a left coset of some
double coset is missing or carries another coefficient.  `schur_mul` reads
products back through it, and `canonical.canonical_schur` reads b_s.

Action on the flag module.  `act_on_module` is the sum of c_s c_p [s]*[p]
over the terms c_s [s] of the Schur element and c_p [p] of the module
vector, p in the column orbit of s.  Each basis product [s]*[p] goes
through the Hecke realization once, the double-coset sum of s times
T_{w_p} collapsed onto symbols by `tmodule.from_hecke_block`; this is the
only Hecke product of the Schur algebra, and `_act_basis` the only place
that expands a matrix into its double-coset sum.

Tau on the labels.  Tau is bar on the module and v^{-2 x_mu} bar on a
(lam, mu) block, so tau(x*m) = tau(x)*tau(m), and tau([mu]) = [mu] as
bar(P_mu) = v^{2 x_mu} P_mu.  So tau([s]) has the value
tau(column_vector(s)) on [mu], a sum of entries of the module's per-symbol
memo `tmodule._tau_terms` (`_tau_terms`), and it bars nothing itself.

Memos.  tau([s]) is memoized per matrix s in `_tau_terms`, beside the
module's `tmodule._tau_terms`, and [s]*[p] per pair (s, p) in
`_act_basis`, each an unbounded `lru_cache` that lives as long as the
process.  An entry is a pure function of its key and the quadratic
relation, which `hecke` fixes and nothing else changes, and a tuple of
frozen values, so the memos are safe to share between callers,
`canonical.BarSystem`s and threads.  In `run-suite canonical --n 2 --D 3
--window 5 --band 2` the suite's tau check of each b_s fills `_tau_terms`
(220 matrices) and adds no symbol to the module memo.  `schur_mul` fills
`_act_basis` with the pairs of a term of its left factor and a left coset
of a term of its right factor; in `run-suite transfer --n 2 --D 1 --band 1
--word-len 3` it ends with 92 entries (116 hits).  The lower terms of a
canonical b_s are other matrices of the same band, and the canonical suite
acts on dominant vectors [mu] only, so it expands each double coset once,
not once for every b_s that contains it.  `from_column` reads the double
coset of each coordinate r from `_double_coset`, an unbounded `lru_cache`
keyed by (r, nu) that lives as long as the process, whose entry is the
matrix t of the pair (r, nu) and the symbols of the left cosets inside its
double coset; it too is a pure function of its key and a tuple of frozen
values, so it is as safe to share.  It holds 400 entries after the
canonical suite above (920 lookups), and 5721 after `run-suite transfer
--n 4 --D 1 --band 1 --word-len 2`.
"""

from __future__ import annotations

from functools import lru_cache

from . import flag_comb, hecke, tmodule
from .flag_comb import FlagSymbol, PeriodicMatrix, block_of, x_stat, y_stat
from .hecke import HeckeElement
from .laurent import LaurentScalar, ONE
from .vector import SparseVector, add_scaled


class SchurElement(SparseVector):
    """A finite A-linear combination of basis elements [s]."""

    __slots__ = ("n", "D")

    def __init__(self, n: int, D: int, terms: dict):
        self.n = n
        self.D = D
        super().__init__(terms)

    def _shape(self) -> tuple:
        return (self.n, self.D)

    @staticmethod
    def basis(s: PeriodicMatrix) -> "SchurElement":
        return SchurElement(s.n, s.D, {s: ONE})

    def blocks(self) -> dict:
        """The terms grouped by block: {(lam, mu): {s: scalar}}."""
        out = {}
        for s, c in self.terms.items():
            out.setdefault(block_of(s), {})[s] = c
        return out

    def _sorted_blocks(self) -> list:
        return sorted(self.blocks().items())

    def __repr__(self):
        if not self.terms:
            return "SchurElement(0)"
        bits = []
        for _, terms in self._sorted_blocks():
            for s, c in sorted(terms.items()):
                bits.append(f"({c})*[{dict(s.entries)}]")
        return " + ".join(bits)

    def to_json(self) -> dict:
        out = []
        for (lam, mu), terms in self._sorted_blocks():
            out.append({"lambda": list(lam.values), "mu": list(mu.values),
                        "terms": [{"matrix": [[i, j, v] for (i, j), v in s.entries],
                                   "coeff": c.to_json()}
                                  for s, c in sorted(terms.items())]})
        return {"n": self.n, "D": self.D, "blocks": out}

    @staticmethod
    def from_json(obj: dict) -> "SchurElement":
        n, D = obj["n"], obj["D"]
        return SchurElement(n, D, add_scaled({}, (
            (PeriodicMatrix.make(n, D, {(i, j): v for i, j, v in t["matrix"]}),
             LaurentScalar.from_json(t["coeff"]))
            for blk in obj["blocks"] for t in blk["terms"])))


# ---------------------------------------------------------------------------
# Multiplication through the Hecke realization


def schur_mul(a: SchurElement, b: SchurElement) -> SchurElement:
    """The product through the column map: for t in column nu, a*[t] is the
    z of column nu with z*[nu] = a*([t]*[nu]), so each term c_t [t] of b
    adds c_t from_column(nu, a*column_vector(t)), the action summed from
    the memo `_act_basis`."""
    if (a.n, a.D) != (b.n, b.D):
        raise ValueError("shape mismatch")
    out = {}
    for t, c in b.terms.items():
        img = act_on_module(a, column_vector(t))
        add_scaled(out, from_column(block_of(t)[1], img.terms), c)
    return SchurElement(a.n, a.D, out)


def column_vector(s: PeriodicMatrix) -> tmodule.ModuleVector:
    """[s]*[mu], mu the column symbol of s, with no Hecke product: the sum
    of v^{x_mu + y_s - x_q} [q] over `flag_comb.left_cosets(s)`."""
    top = x_stat(block_of(s)[1]) + y_stat(s)
    return tmodule.ModuleVector(s.n, s.D, {
        q: LaurentScalar.monomial(1, top - x_stat(q))
        for q, _ in flag_comb.left_cosets(s)})


def from_column(nu: FlagSymbol, coords: dict) -> dict:
    """The terms {t: c} of the z in column nu with z*[nu] = sum of c_r [r]
    over coords {r: c_r}; the row symbol of each t is read from r."""
    xnu = x_stat(nu)
    return hecke.collapse({r: c.shift(x_stat(r) - xnu) for r, c in coords.items()},
                          lambda r: _double_coset(r, nu), y_stat)


@lru_cache(maxsize=None)
def _double_coset(r: FlagSymbol, nu: FlagSymbol) -> tuple:
    """(t, qs) for a left coset r in `from_column`: the matrix t of the pair
    (r, nu) and the symbols qs of the left cosets inside its double coset."""
    t = flag_comb.matrix_of_pair(r, nu)
    return t, tuple(q for q, _ in flag_comb.left_cosets(t))


def act_on_module(x: SchurElement, vec) -> "tmodule.ModuleVector":
    """The left action on the flag module, sum of c_s c_p [s]*[p] over the
    terms c_s [s] of x and c_p [p] of vec with p in the column orbit mu of
    s; each [s]*[p] comes from the memo `_act_basis`."""
    vec_blocks = {}
    for p, c in vec.terms.items():
        vec_blocks.setdefault(p.dominant_rep(), []).append((p, c))
    out = {}
    for s, c in x.terms.items():
        for p, cp in vec_blocks.get(block_of(s)[1], ()):
            add_scaled(out, _act_basis(s, p), c * cp)
    return tmodule.ModuleVector(x.n, x.D, out)


@lru_cache(maxsize=None)
def _act_basis(s: PeriodicMatrix, p: FlagSymbol) -> tuple:
    """[s]*[p] as a tuple of (symbol, coeff) pairs, computed once per pair
    through the Hecke realization, p in the orbit of the column symbol mu
    of s.

    [p] = v^{x_p} T_mu T_{w_p}, w_p the minimal coset rep, and [s] in
    H_{lam,mu}, v^{y_s} times the sum of T_w over its double coset, sends
    T_mu T_{w_p} to [s] T_{w_p}; the image is collapsed back onto
    lam-labels."""
    lam, mu = block_of(s)
    block = hecke.double_coset_sum(lam, mu, s, LaurentScalar.v(y_stat(s)))
    h = hecke.mul(block, HeckeElement.t(p.min_coset_rep()))
    xp = x_stat(p)
    return tuple((q, c.shift(xp))
                 for q, c in tmodule.from_hecke_block(lam, h).terms.items())


# ---------------------------------------------------------------------------
# Generator images of the quantum-algebra homomorphism


def _of_rank(n: int, D: int, wt) -> bool:
    """Whether the weight wt sums to D; one that does must be a nonnegative
    n-tuple (ValueError otherwise)."""
    if sum(wt) != D:
        return False
    if len(wt) != n or min(wt) < 0:
        raise ValueError("weight must be a nonnegative n-tuple summing to D")
    return True


def phi_idempotent(n: int, D: int, mu) -> SchurElement:
    """Image of the weight idempotent: [delta mu] if sum(mu) = D, else 0."""
    if not _of_rank(n, D, mu):
        return SchurElement.zero(n, D)
    return SchurElement.basis(flag_comb.delta_matrix(mu))


def phi_e(n: int, D: int, i: int, lam_weight, k: int = 1) -> SchurElement:
    """Image of a_{lam} e_i^(k): the displaced diagonal matrix, or 0."""
    if not _of_rank(n, D, lam_weight):
        return SchurElement.zero(n, D)
    e_mat, _ = flag_comb.generator_matrices(lam_weight, i, k)
    if e_mat is None:
        return SchurElement.zero(n, D)
    return SchurElement.basis(e_mat)


# ---------------------------------------------------------------------------
# Monomials of the modified quantum algebra
#
# A letter is ("a", weight) | ("e", i, k) | ("f", i, k) with k the divided
# power.  Evaluation is anchored at the first "a" letter, extending leftward
# by left multiplication and rightward by right multiplication; each
# letter's weights are read off the terms it multiplies.


class UdotMonomial:
    __slots__ = ("n", "letters")

    def __init__(self, n: int, letters):
        self.n = n
        self.letters = tuple(letters)
        for g in self.letters:
            if g[0] == "a":
                if len(g[1]) != n or any(m < 0 for m in g[1]):
                    raise ValueError(f"bad weight letter {g}")
            elif g[0] in ("e", "f"):
                if not (0 <= g[1] < n) or g[2] < 0:
                    raise ValueError(f"bad Chevalley letter {g}")
            else:
                raise ValueError(f"unknown letter {g}")

    def __repr__(self):
        bits = []
        for g in self.letters:
            if g[0] == "a":
                bits.append(f"a{list(g[1])}")
            else:
                sup = f"^({g[2]})" if g[2] != 1 else ""
                bits.append(f"{g[0]}_{g[1]}{sup}")
        return " ".join(bits) if bits else "(empty)"

    def __eq__(self, other):
        return (isinstance(other, UdotMonomial)
                and self.n == other.n and self.letters == other.letters)

    def __hash__(self):
        return hash((self.n, self.letters))


def _wshift(n: int, kind: str, i: int, k: int) -> tuple:
    """Left-weight minus right-weight of e_i^(k) (or f, negated)."""
    w = [0] * n
    sign = 1 if kind == "e" else -1
    up, down = flag_comb.residue_classes(n, i)
    w[up] += sign * k
    w[down] -= sign * k
    return tuple(w)


def _mul_gen(x: SchurElement, kind: str, i: int, k: int,
             left: bool) -> SchurElement:
    """Left (left=True) or right multiplication by e_i^(k) or f_i^(k): one
    `schur_mul` by the sum of the generator's basis matrices at the weights
    of x on the side it touches.  Each is read from
    `flag_comb.generator_matrices` at its e-matrix's row weight, the left
    weight of e_i^(k) and the right weight of f_i^(k): x's own weight, or
    that weight raised by e_i^(k) when e acts on the left or f on the
    right.  At n = 1 the two value classes of the residue coincide and
    e_0 e_0 is not divisible by [2], so k >= 2 raises ArithmeticError, as
    `tmodule.divided` does."""
    if k >= 2 and x.n == 1 and not x.is_zero():
        raise ArithmeticError(f"divided power of order {k} needs n >= 2")
    raise_wt = (kind == "e") == left
    shift = _wshift(x.n, "e", i, k)
    gens = {}
    for wt in dict.fromkeys(s.row_weight() if left else s.col_weight()
                            for s in x.terms):
        if raise_wt:
            wt = tuple(a + b for a, b in zip(wt, shift))
            if min(wt) < 0:
                continue
        e_mat, f_mat = flag_comb.generator_matrices(wt, i, k)
        g = e_mat if kind == "e" else f_mat
        if g is not None:
            gens[g] = ONE
    g = SchurElement(x.n, x.D, gens)
    return schur_mul(g, x) if left else schur_mul(x, g)


def phi_monomial(m: UdotMonomial, D: int) -> SchurElement:
    """Evaluate the homomorphism on a word, anchored at its weight letters."""
    n = m.n
    anchors = [j for j, g in enumerate(m.letters) if g[0] == "a"]
    if not anchors:
        raise ValueError("monomial has no weight letter to anchor at")
    j = anchors[0]
    x = phi_idempotent(n, D, m.letters[j][1])
    # extend to the left, where no letter is a weight letter
    for g in reversed(m.letters[:j]):
        if x.is_zero():
            return x
        x = _mul_gen(x, g[0], g[1], g[2], left=True)
    # extend to the right
    for g in m.letters[j + 1:]:
        if x.is_zero():
            return x
        if g[0] == "a":
            x = schur_mul(x, phi_idempotent(n, D, g[1]))
        else:
            x = _mul_gen(x, g[0], g[1], g[2], left=False)
    return x


# ---------------------------------------------------------------------------
# The involution tau on Schur elements


def tau_schur(x: SchurElement) -> SchurElement:
    out = {}
    for s, c in x.terms.items():
        add_scaled(out, _tau_terms(s), c.bar())
    return SchurElement(x.n, x.D, out)


@lru_cache(maxsize=None)
def _tau_terms(s: PeriodicMatrix) -> tuple:
    """tau([s]) as a tuple of (matrix, coeff) pairs, computed once per s:
    the z of column mu with z*[mu] = tau(column_vector(s))."""
    return tuple(from_column(block_of(s)[1],
                             tmodule.tau(column_vector(s)).terms).items())


# ---------------------------------------------------------------------------
# The sign character at D = n and the block twist


def epsilon_degrees(x: SchurElement) -> dict:
    """The sign character graded by rotation degree: {k: a_k}, so that the
    character with T_{s_i} -> -1 and the rotation rho -> rho_value sends x
    to sum_k a_k rho_value^k (`transfer.evaluate_collapse`).

    It lives on the block lam = mu = (1, ..., n) and is zero elsewhere.
    There the Young subgroups are trivial, so [s] = v^{y_s} T_w for the one
    w = rho^k s_{i_1} ... s_{i_l} of its double coset, and T_w goes to
    (-1)^l.  Read off the matrix, [s] goes to (-v)^{y_s} in degree
    k = -offset_sum(s) / n.  Every degree that occurs in the block is a
    key, even when its a_k sums to zero, so an evaluation rejects the same
    rho as a sum over the T_w would."""
    n = x.n
    if x.D != n:
        raise ValueError("the sign character lives at D = n")
    std = (1,) * n
    degrees = {}
    for s, c in x.terms.items():
        if s.row_weight() == s.col_weight() == std:
            k, y = -offset_sum(s) // n, y_stat(s)
            a = c.shift(y) if y % 2 == 0 else -c.shift(y)
            degrees[k] = degrees[k] + a if k in degrees else a
    return degrees


def psi_twist(x: SchurElement, sign: int = 1) -> SchurElement:
    """Blockwise scalar v^{sign * (sum window(lam) - sum window(mu))}."""
    terms = {}
    for s, c in x.terms.items():
        lam, mu = block_of(s)
        terms[s] = c.shift(sign * (sum(lam.values) - sum(mu.values)))
    return SchurElement(x.n, x.D, terms)


def offset_sum(s: PeriodicMatrix) -> int:
    """Total column displacement sum_{ij} (j - i) s_ij over one strip;
    additive under multiplication of basis elements."""
    return sum((j - i) * val for (i, j), val in s.entries)


def offset_twist(x: SchurElement, sign: int = 1) -> SchurElement:
    """The diagonal twist [s] -> v^{sign * offset_sum(s)} [s]; this is the
    per-symbol-pair reading of the blockwise scalar v^{sum(lam_i - mu_i)}."""
    return SchurElement(x.n, x.D,
                        {s: c.shift(sign * offset_sum(s)) for s, c in x.terms.items()})
