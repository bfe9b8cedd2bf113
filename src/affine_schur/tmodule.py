"""The periodic flag module T_D = sum_lambda T_lambda H_D.

Vectors are written in the renormalized basis [p] = v^{x_p} T_p.  The module
carries a right Hecke action, a left action of the modified quantum algebra
through the residue operators e_i, f_i, and the antilinear involution tau.
"""

from __future__ import annotations

from . import affine_weyl, flag_comb, hecke
from .flag_comb import FlagSymbol, x_stat
from .hecke import HeckeElement
from .laurent import (LaurentScalar, ONE, divide_exact, quantum_factorial,
                      quantum_integer)


class ModuleVector:
    """A finite A-linear combination of basis vectors [p], p a flag symbol."""

    __slots__ = ("n", "D", "terms")

    def __init__(self, n: int, D: int, terms: dict):
        self.n = n
        self.D = D
        self.terms = {p: c for p, c in terms.items() if not c.is_zero()}
        for p in self.terms:
            if (p.n, p.D) != (n, D):
                raise ValueError("symbol shape mismatch")

    @staticmethod
    def zero(n: int, D: int) -> "ModuleVector":
        return ModuleVector(n, D, {})

    @staticmethod
    def basis(p: FlagSymbol) -> "ModuleVector":
        return ModuleVector(p.n, p.D, {p: ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, p: FlagSymbol) -> LaurentScalar:
        return self.terms.get(p, LaurentScalar.zero())

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        if (self.n, self.D) != (other.n, other.D):
            raise ValueError("shape mismatch")
        out = dict(self.terms)
        for p, c in other.terms.items():
            s = out.get(p)
            out[p] = c if s is None else s + c
        return ModuleVector(self.n, self.D, out)

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        return self + other.scale(LaurentScalar.const(-1))

    def scale(self, c: LaurentScalar) -> "ModuleVector":
        return ModuleVector(self.n, self.D, {p: c * x for p, x in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, ModuleVector) and (self.n, self.D) == (other.n, other.D)
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, self.D, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "ModuleVector(0)"
        bits = [f"({c})*[{list(p.values)}]"
                for p, c in sorted(self.terms.items(), key=lambda t: t[0].values)]
        return " + ".join(bits)

    def weights(self) -> set:
        return {p.weight() for p in self.terms}

    def to_json(self) -> dict:
        return {"n": self.n, "D": self.D,
                "terms": [{"p": list(p.values), "coeff": c.to_json()}
                          for p, c in sorted(self.terms.items(), key=lambda t: t[0].values)]}

    @staticmethod
    def from_json(obj: dict) -> "ModuleVector":
        n, D = obj["n"], obj["D"]
        terms = {}
        for t in obj["terms"]:
            p = FlagSymbol(n, D, tuple(t["p"]))
            terms[p] = terms.get(p, LaurentScalar.zero()) + LaurentScalar.from_json(t["coeff"])
        return ModuleVector(n, D, terms)


# ---------------------------------------------------------------------------
# Chevalley operators (residues i in [0, n-1], literal values i and i+1)


def _check_residue(n: int, i: int):
    if not 0 <= i < n:
        raise ValueError(f"residue {i} out of range [0, {n - 1}]")


def apply_e(i: int, x: ModuleVector) -> ModuleVector:
    _check_residue(x.n, i)
    out = ModuleVector.zero(x.n, x.D)
    for p, c in x.terms.items():
        up = p.preimage(i + 1)
        lo = p.preimage(i)
        for k in up:
            exp = (sum(1 for l in up if l > k) - sum(1 for l in lo if l > k))
            q = p.with_value(k, i)
            out = out + ModuleVector(x.n, x.D, {q: c.shift(exp)})
    return out


def apply_f(i: int, x: ModuleVector) -> ModuleVector:
    _check_residue(x.n, i)
    out = ModuleVector.zero(x.n, x.D)
    for p, c in x.terms.items():
        lo = p.preimage(i)
        up = p.preimage(i + 1)
        for k in lo:
            exp = (sum(1 for l in lo if l < k) - sum(1 for l in up if l < k))
            q = p.with_value(k, i + 1)
            out = out + ModuleVector(x.n, x.D, {q: c.shift(exp)})
    return out


def apply_divided(i: int, k: int, x: ModuleVector, which: str = "f") -> ModuleVector:
    """The divided power e_i^(k) or f_i^(k): k-fold action, exact division by [k]!."""
    if k < 0:
        raise ValueError("negative divided power")
    op = {"e": apply_e, "f": apply_f}[which]
    for _ in range(k):
        x = op(i, x)
    fact = quantum_factorial(k)
    return ModuleVector(x.n, x.D,
                        {p: divide_exact(c, fact) for p, c in x.terms.items()})


def apply_idempotent(mu, x: ModuleVector) -> ModuleVector:
    """Projection onto the weight-mu component."""
    mu = tuple(mu)
    return ModuleVector(x.n, x.D,
                        {p: c for p, c in x.terms.items() if p.weight() == mu})


def weight_of_e(n: int, i: int) -> tuple:
    """The weight shift of e_i: +omega_i - omega_{i+1} (indices mod n)."""
    w = [0] * n
    w[(i - 1) % n] += 1
    w[i % n] -= 1
    return tuple(w)


# ---------------------------------------------------------------------------
# Hecke realization and the right action


def to_hecke_blocks(x: ModuleVector) -> dict:
    """Expand into the T_w basis, one Hecke element per dominant block."""
    blocks = {}
    for p, c in x.terms.items():
        lam = p.dominant_rep()
        h = hecke.coset_sum(lam, p).scale(c.shift(x_stat(p)))
        blocks[lam] = blocks.get(lam, HeckeElement.zero(x.D)) + h
    return {lam: h for lam, h in blocks.items() if not h.is_zero()}


def from_hecke_block(lam: FlagSymbol, h: HeckeElement) -> ModuleVector:
    """Re-collapse an element of T_lambda H_D into the [p] basis.

    The coefficients must be constant on left S_lambda cosets; a violation
    means the input was not in the submodule and is a bug upstream.
    """
    n, D = lam.n, lam.D
    remaining = dict(h.terms)
    out = {}
    while remaining:
        w = next(iter(remaining))
        p = lam.act(w)
        c = remaining[w]
        for u in affine_weyl.young_subgroup_elements(D, lam.values):
            uw = u * w
            c2 = remaining.pop(uw, None)
            if c2 is None or c2 != c:
                raise ArithmeticError("coefficients not constant on the coset")
        out[p] = c.shift(-x_stat(p))
    return ModuleVector(n, D, out)


def from_hecke_blocks(blocks: dict, n: int, D: int) -> ModuleVector:
    out = ModuleVector.zero(n, D)
    for lam, h in blocks.items():
        out = out + from_hecke_block(lam, h)
    return out


def right_hecke(x: ModuleVector, h: HeckeElement) -> ModuleVector:
    """The right Hecke action, computed in the T_w basis blockwise."""
    if h.rank != x.D:
        raise ValueError("rank mismatch")
    out = ModuleVector.zero(x.n, x.D)
    for lam, block in to_hecke_blocks(x).items():
        out = out + from_hecke_block(lam, hecke.mul(block, h))
    return out


def right_simple(x: ModuleVector, j: int) -> ModuleVector:
    """Fast path for x * T_{s_j} using the coset length bookkeeping."""
    sj = affine_weyl.simple(x.D, j)
    out = ModuleVector.zero(x.n, x.D)
    vm2 = LaurentScalar({-2: 1})
    vm2_m1 = LaurentScalar({-2: 1, 0: -1})
    for p, c in x.terms.items():
        q = p.act(sj)
        if q == p:
            out = out + ModuleVector(x.n, x.D, {p: c * vm2})
            continue
        wp = p.min_coset_rep()
        shift = x_stat(p) - x_stat(q)
        if (wp * sj).length() > wp.length():
            out = out + ModuleVector(x.n, x.D, {q: c.shift(shift)})
        else:
            out = out + ModuleVector(x.n, x.D,
                                     {p: c * vm2_m1, q: (c * vm2).shift(shift)})
    return out


def tau(x: ModuleVector) -> ModuleVector:
    """The antilinear involution with tau([p]) = bar([p]), blockwise."""
    out = ModuleVector.zero(x.n, x.D)
    for lam, block in to_hecke_blocks(x).items():
        out = out + from_hecke_block(lam, hecke.bar(block))
    return out


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
    out = ModuleVector.zero(p.n, p.D)
    for A in _subsets_of_size(J, target):
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
            coeff = LaurentScalar.monomial(1 if len(B) % 2 == 0 else -1,
                                           n_A + len(B))
            out = out + ModuleVector(p.n, p.D, {q: coeff})
    return out


def _subsets_of_size(items, size):
    from itertools import combinations
    return combinations(items, size)


def _all_subsets(items):
    from itertools import combinations
    items = list(items)
    for r in range(len(items) + 1):
        yield from (set(c) for c in combinations(items, r))


# ---------------------------------------------------------------------------
# Commutator probe: determines the scalar of [e_i, f_i] on a weight space


def commutator_form(n: int, D: int, i: int, mu) -> "int | None":
    """The integer m with [e_i, f_i] = [m] on the weight-mu component,
    or None if the action is not scalar there."""
    lam = flag_comb.dominant_from_weight(n, D, mu)
    m_seen = None
    # probe on every symbol of weight mu within one period window
    from itertools import permutations
    symbols = {FlagSymbol(n, D, perm) for perm in permutations(lam.values)}
    for p in symbols:
        x = ModuleVector.basis(p)
        diff = apply_e(i, apply_f(i, x)) - apply_f(i, apply_e(i, x))
        if diff.is_zero():
            c = LaurentScalar.zero()
        else:
            if set(diff.terms) != {p}:
                return None
            c = diff.terms[p]
        m = _as_quantum_integer(c)
        if m is None:
            return None
        if m_seen is None:
            m_seen = m
        elif m_seen != m:
            return None
    return m_seen


def _as_quantum_integer(c: LaurentScalar) -> "int | None":
    """m with c = [m] under the convention [-m] = -[m], [0] = 0.

    [m] has coefficient 1 at the exponents -(m-1), -(m-3), ..., m-1, so m
    is fixed by the number of terms and the sign of the top coefficient.
    """
    if c.is_zero():
        return 0
    m = len(c.items())
    m *= c.coeff(m - 1)
    return m if m and c == quantum_integer(m) else None
