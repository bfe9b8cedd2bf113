"""The periodic flag module T_D = sum_lambda T_lambda H_D.

Vectors are written in the renormalized basis [p] = v^{x_p} T_p.  The module
carries a left action of the modified quantum algebra through the residue
operators e_i, f_i, and the antilinear involution tau.

`ModuleVector` is a `vector.SparseVector` over flag symbols and every sum
here goes through `vector.add_scaled`.  An element of a block T_lambda H_D
in the T_w basis, such as the image of a Schur basis element on a basis
vector (`schur._act_basis`), comes back to symbols through the one coset
collapse, `hecke.collapse` over left S_lambda cosets with the shift
v^{-x_p} (`from_hecke_block`).

Divided powers.  `divided` computes e_i^(k) and f_i^(k) in one pass, on a
dict over either scalar ring (it needs only `shift` and `add_scaled`); the
Chevalley operators are its k = 1 case and the crystal oracle runs it over
Q(v).  For f_i, let main = p^{-1}(i), other = p^{-1}(i+1) and, for s in
main, b(s) = #{l in main, l < s} - #{l in other, l < s}; then

    f_i^(k) [p] = sum over S in main, |S| = k, of
                  v^{sum_{s in S} b(s) - k(k-1)/2} [p_S],

p_S flipping every position of S to i+1.  e_i^(k) is the same with main =
p^{-1}(i+1), other = p^{-1}(i), "l > s" for "l < s" and flips to i.  This
needs n >= 2, where a flip changes the value class of no other position.

Tau.  [p] = v^{x_p} P_lambda T_{w_p}, w_p the minimal coset rep, so
tau([p]) = v^{-x_p} bar(P_lambda T_{w_p}) comes from `hecke.bar_parabolic`,
which bars T_{w_p} alone; `_tau_terms` is the one caller of that bar.  `tau`
is the antilinear sum of these images.  They are memoized in `_tau_terms`,
an unbounded `lru_cache` keyed by the symbol p (its n and D included) that
lives as long as the process.  The canonical-basis solver on the flag
module reads the same memo, and so does tau on the Schur algebra
(`schur._tau_terms`), which sums the entries of the left cosets
inside a double coset instead of barring again.  An entry is a pure
function of p and the quadratic relation, which `hecke` fixes and nothing
else changes, and it is a tuple of (symbol, scalar) pairs of frozen values,
so the memo is safe to share between callers and threads.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from . import affine_weyl, hecke
from .flag_comb import FlagSymbol, x_stat
from .hecke import HeckeElement
from .laurent import LaurentScalar, ONE
from .vector import SparseVector, add_scaled


class ModuleVector(SparseVector):
    """A finite A-linear combination of basis vectors [p], p a flag symbol."""

    __slots__ = ("n", "D")

    def __init__(self, n: int, D: int, terms: dict):
        self.n = n
        self.D = D
        super().__init__(terms)
        for p in self.terms:
            if (p.n, p.D) != (n, D):
                raise ValueError("symbol shape mismatch")

    def _shape(self) -> tuple:
        return (self.n, self.D)

    @staticmethod
    def basis(p: FlagSymbol) -> "ModuleVector":
        return ModuleVector(p.n, p.D, {p: ONE})

    def __repr__(self):
        if not self.terms:
            return "ModuleVector(0)"
        bits = [f"({c})*[{list(p.values)}]" for p, c in sorted(self.terms.items())]
        return " + ".join(bits)

    def to_json(self) -> dict:
        return {"n": self.n, "D": self.D,
                "terms": [{"p": list(p.values), "coeff": c.to_json()}
                          for p, c in sorted(self.terms.items())]}

    @staticmethod
    def from_json(obj: dict) -> "ModuleVector":
        n, D = obj["n"], obj["D"]
        return ModuleVector(n, D, add_scaled({}, (
            (FlagSymbol.make(n, D, t["p"]), LaurentScalar.from_json(t["coeff"]))
            for t in obj["terms"])))


# ---------------------------------------------------------------------------
# Chevalley operators (residues i in [0, n-1], literal values i and i+1)


def _check_residue(n: int, i: int):
    if not 0 <= i < n:
        raise ValueError(f"residue {i} out of range [0, {n - 1}]")


def divided(i: int, k: int, terms: dict, which: str) -> dict:
    """The divided power e_i^(k) (which = "e") or f_i^(k) ("f") on a vector
    {symbol: scalar}, summed over the k-subsets S of flipped positions with
    no product and no division.

    A single flip of s carries v^(b(s)): b(s) is the number of positions
    beyond s holding the moving value minus the number holding the value it
    becomes, where beyond means right of s for e and left of s for f.  In
    the k-fold product, each earlier flip beyond s has moved from the first
    count to the second and lowers the exponent of s by 2, so an order of S
    with inv such inversions carries v^(sum b - 2 inv).  Summed over the k!
    orders this is v^(sum b) v^(-k(k-1)/2) [k]!, and the [k]! of the divided
    power cancels.

    The argument needs n >= 2: at n = 1 every class holds both values, a
    flip moves the neighbouring positions of its class between main and
    other, and k >= 2 raises ArithmeticError on a nonzero vector.
    """
    if which not in ("e", "f"):
        raise ValueError(f"unknown Chevalley operator {which!r}")
    if k < 0:
        raise ValueError("negative divided power")
    if k >= 2 and terms and next(iter(terms)).n == 1:
        raise ArithmeticError(f"divided power of order {k} needs n >= 2")
    half = k * (k - 1) // 2

    def moved():
        for p, c in terms.items():
            lo, up = p.preimage(i), p.preimage(i + 1)
            if which == "e":
                main, other, value, beyond = up, lo, i, int.__gt__
            else:
                main, other, value, beyond = lo, up, i + 1, int.__lt__
            flips = [(s, sum(1 for l in main if beyond(l, s))
                      - sum(1 for l in other if beyond(l, s))) for s in main]
            for S in combinations(flips, k):
                q = p
                for s, _ in S:
                    q = q.with_value(s, value)
                yield q, c.shift(sum(b for _, b in S) - half)

    return add_scaled({}, moved())


def apply_e(i: int, x: ModuleVector) -> ModuleVector:
    """e_i: turns one value i+1 into i."""
    _check_residue(x.n, i)
    return ModuleVector(x.n, x.D, divided(i, 1, x.terms, "e"))


def apply_f(i: int, x: ModuleVector) -> ModuleVector:
    """f_i: turns one value i into i+1."""
    _check_residue(x.n, i)
    return ModuleVector(x.n, x.D, divided(i, 1, x.terms, "f"))


def apply_divided(i: int, k: int, x: ModuleVector, which: str = "f") -> ModuleVector:
    """The divided power e_i^(k) or f_i^(k)."""
    _check_residue(x.n, i)
    return ModuleVector(x.n, x.D, divided(i, k, x.terms, which))


def apply_idempotent(mu, x: ModuleVector) -> ModuleVector:
    """Projection onto the weight-mu component."""
    mu = tuple(mu)
    return ModuleVector(x.n, x.D,
                        {p: c for p, c in x.terms.items() if p.weight() == mu})


def apply_word(letters, x: ModuleVector) -> ModuleVector:
    """A word of `schur.UdotMonomial` letters, ("a", mu) or (kind, i, k),
    applied to x, rightmost letter first."""
    for g in reversed(letters):
        if g[0] == "a":
            x = apply_idempotent(g[1], x)
        else:
            x = apply_divided(g[1], g[2], x, g[0])
    return x


# ---------------------------------------------------------------------------
# Back from the Hecke realization


def from_hecke_block(lam: FlagSymbol, h: HeckeElement) -> ModuleVector:
    """Re-collapse an element of T_lambda H_D into the [p] basis.

    The coefficients must be constant on left S_lambda cosets; a violation
    means the input was not in the submodule and is a bug upstream.
    """
    young = affine_weyl.young_subgroup_elements(lam.D, lam.values)
    terms = hecke.collapse(h.terms, lambda w: (lam.act(w), [u * w for u in young]),
                           x_stat)
    return ModuleVector(lam.n, lam.D, terms)


def tau(x: ModuleVector) -> ModuleVector:
    """The antilinear involution with tau([p]) = bar([p]), summed from the
    per-symbol memo."""
    out = {}
    for p, c in x.terms.items():
        add_scaled(out, _tau_terms(p), c.bar())
    return ModuleVector(x.n, x.D, out)


@lru_cache(maxsize=None)
def _tau_terms(p: FlagSymbol) -> tuple:
    """tau([p]) as a tuple of (symbol, coeff) pairs, computed once per p:
    [p] = v^{x_p} P_lam T_{w_p}, so tau([p]) = v^{-x_p} bar(P_lam T_{w_p}),
    and [q] = v^{x_q} T_q."""
    lam = p.dominant_rep()
    coords = hecke.bar_parabolic(lam, HeckeElement.t(p.min_coset_rep()))
    xp = x_stat(p)
    return tuple((q, c.shift(-xp - x_stat(q))) for q, c in coords.items())


# ---------------------------------------------------------------------------
# The <p> vectors of the crystal-chain construction


def angle_vector(p: FlagSymbol, i: int) -> ModuleVector:
    """<p> = sum over (A, B) of v^{n_A} (-v)^{#B} [p_{A,B}]."""
    from . import crystal  # local import; crystal depends on this module

    _check_residue(p.n, i)
    part = crystal.bracket(p, i)
    J = part.unpaired
    t = len(part.pairs)
    target = sum(1 for k in J if p(k) == i + 1)

    def summands():
        for A in combinations(J, target):
            aset = set(A)
            n_A = sum(1 for k in A for l in J if l not in aset and k > l)
            base = p
            for k in J:
                base = base.with_value(k, i + 1 if k in aset else i)
            for B in _all_subsets(range(t)):
                q = base
                for s in B:
                    k, l = part.pairs[s]
                    q = q.with_value(k, i + 1).with_value(l, i)
                for s in range(t):
                    if s not in B:
                        k, l = part.pairs[s]
                        q = q.with_value(k, i).with_value(l, i + 1)
                yield q, LaurentScalar.monomial(1 if len(B) % 2 == 0 else -1,
                                                n_A + len(B))

    return ModuleVector(p.n, p.D, add_scaled({}, summands()))


def _all_subsets(items):
    items = list(items)
    for r in range(len(items) + 1):
        yield from (set(c) for c in combinations(items, r))
