"""The affine q-Schur algebra S_D in the [s] basis.

Elements are block maps (lam, mu) -> {matrix: scalar}; multiplication acts
through the Hecke realization (one source of truth, no structure-constant
tables).  Also: the generator images of the quantum-algebra homomorphism,
monomial evaluation, the sign character at D = n, and the block twist psi.
"""

from __future__ import annotations

from functools import lru_cache

from . import affine_weyl, canonical, flag_comb, hecke
from .canonical import hecke_to_matrix_terms
from .flag_comb import FlagSymbol, PeriodicMatrix, x_stat, y_stat
from .hecke import HeckeElement
from .laurent import LaurentScalar, ONE, divide_exact, quantum_factorial


class SchurElement:
    """A finite A-linear combination of basis elements [s], organized by
    (lam, mu) block."""

    __slots__ = ("n", "D", "blocks")

    def __init__(self, n: int, D: int, blocks: dict):
        self.n = n
        self.D = D
        clean = {}
        for (lam, mu), terms in blocks.items():
            t = {s: c for s, c in terms.items() if not c.is_zero()}
            for s in t:
                if s.row_weight() != lam.weight() or s.col_weight() != mu.weight():
                    raise ValueError("matrix outside its block")
            if t:
                clean[(lam, mu)] = t
        self.blocks = clean

    @staticmethod
    def zero(n: int, D: int) -> "SchurElement":
        return SchurElement(n, D, {})

    @staticmethod
    def basis(s: PeriodicMatrix) -> "SchurElement":
        lam, mu = canonical.block_of(s)
        return SchurElement(s.n, s.D, {(lam, mu): {s: ONE}})

    @staticmethod
    def from_terms(n: int, D: int, terms: dict) -> "SchurElement":
        blocks = {}
        for s, c in terms.items():
            key = canonical.block_of(s)
            blocks.setdefault(key, {})[s] = c
        return SchurElement(n, D, blocks)

    def is_zero(self) -> bool:
        return not self.blocks

    def terms(self) -> dict:
        out = {}
        for t in self.blocks.values():
            out.update(t)
        return out

    def coeff(self, s: PeriodicMatrix) -> LaurentScalar:
        key = canonical.block_of(s)
        return self.blocks.get(key, {}).get(s, LaurentScalar.zero())

    def __add__(self, other: "SchurElement") -> "SchurElement":
        if (self.n, self.D) != (other.n, other.D):
            raise ValueError("shape mismatch")
        blocks = {k: dict(v) for k, v in self.blocks.items()}
        for k, terms in other.blocks.items():
            tgt = blocks.setdefault(k, {})
            for s, c in terms.items():
                prev = tgt.get(s)
                tgt[s] = c if prev is None else prev + c
        return SchurElement(self.n, self.D, blocks)

    def __sub__(self, other: "SchurElement") -> "SchurElement":
        return self + other.scale(LaurentScalar.const(-1))

    def scale(self, c: LaurentScalar) -> "SchurElement":
        return SchurElement(self.n, self.D,
                            {k: {s: c * x for s, x in t.items()}
                             for k, t in self.blocks.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, SchurElement)
                and (self.n, self.D) == (other.n, other.D)
                and self.blocks == other.blocks)

    def __hash__(self):
        return hash((self.n, self.D,
                     frozenset((k, frozenset(t.items()))
                               for k, t in self.blocks.items())))

    def __repr__(self):
        if not self.blocks:
            return "SchurElement(0)"
        bits = []
        for (lam, mu), terms in sorted(self.blocks.items(),
                                       key=lambda kv: (kv[0][0].values, kv[0][1].values)):
            for s, c in sorted(terms.items(), key=lambda t: t[0].entries):
                bits.append(f"({c})*[{dict(s.entries)}]")
        return " + ".join(bits)

    def __mul__(self, other: "SchurElement") -> "SchurElement":
        return schur_mul(self, other)

    def to_json(self) -> dict:
        out = []
        for (lam, mu), terms in sorted(self.blocks.items(),
                                       key=lambda kv: (kv[0][0].values, kv[0][1].values)):
            out.append({"lambda": list(lam.values), "mu": list(mu.values),
                        "terms": [{"matrix": [[i, j, v] for (i, j), v in s.entries],
                                   "coeff": c.to_json()}
                                  for s, c in sorted(terms.items(), key=lambda t: t[0].entries)]})
        return {"n": self.n, "D": self.D, "blocks": out}

    @staticmethod
    def from_json(obj: dict) -> "SchurElement":
        n, D = obj["n"], obj["D"]
        terms = {}
        for blk in obj["blocks"]:
            for t in blk["terms"]:
                s = PeriodicMatrix.make(n, D, {(i, j): v for i, j, v in t["matrix"]})
                c = LaurentScalar.from_json(t["coeff"])
                terms[s] = terms.get(s, LaurentScalar.zero()) + c
        return SchurElement.from_terms(n, D, terms)


# ---------------------------------------------------------------------------
# Multiplication through the Hecke realization


def _block_to_hecke(terms: dict, lam: FlagSymbol, mu: FlagSymbol) -> HeckeElement:
    h = HeckeElement.zero(lam.D)
    for s, c in terms.items():
        h = h + hecke.double_coset_sum(lam, mu, s).scale(c.shift(y_stat(s)))
    return h


@lru_cache(maxsize=None)
def _left_coset_min_reps(s: PeriodicMatrix, mu: FlagSymbol, nu: FlagSymbol) -> tuple:
    """Minimal reps w' of the left S_mu-cosets inside the double coset of s,
    so that T_s = T_mu * sum_w' T_w' with lengths adding."""
    rep = flag_comb.double_coset_min_rep(s, mu, nu)
    elems = affine_weyl.double_coset_elements(s.D, mu.values, rep, nu.values)
    reps = {}
    for w in elems:
        p = mu.act(w)
        best = reps.get(p)
        if best is None or w.length() < best.length():
            reps[p] = w
    return tuple(reps.values())


def schur_mul(a: SchurElement, b: SchurElement) -> SchurElement:
    """Product via the endomorphism action: T_s in H_{lam,mu} sends
    T_mu h -> T_s h."""
    if (a.n, a.D) != (b.n, b.D):
        raise ValueError("shape mismatch")
    out = SchurElement.zero(a.n, a.D)
    for (lam, mu), aterms in a.blocks.items():
        ah = _block_to_hecke(aterms, lam, mu)
        for (mu2, nu), bterms in b.blocks.items():
            if mu2 != mu:
                continue
            for t, c in bterms.items():
                prod = HeckeElement.zero(a.D)
                for w in _left_coset_min_reps(t, mu, nu):
                    prod = prod + hecke.mul(ah, HeckeElement.t(w))
                prod = prod.scale(c.shift(y_stat(t)))
                collapsed = hecke_to_matrix_terms(lam, nu, prod)
                out = out + SchurElement.from_terms(a.n, a.D, collapsed)
    return out


def unit_on_weights(n: int, D: int, weights) -> SchurElement:
    """Sum of the idempotents [delta lam] over the given weights."""
    terms = {}
    for wt in weights:
        lam = flag_comb.dominant_from_weight(n, D, wt)
        terms[flag_comb.delta_matrix(lam)] = ONE
    return SchurElement.from_terms(n, D, terms)


def act_on_module(x: SchurElement, vec) -> "tmodule.ModuleVector":
    """The left action on the flag module: [s] in H_{lam,mu} maps the
    mu-block of vec through the Hecke realization."""
    from . import tmodule
    out = tmodule.ModuleVector.zero(x.n, x.D)
    vec_blocks = tmodule.to_hecke_blocks(vec)
    for (lam, mu), terms in x.blocks.items():
        h = vec_blocks.get(mu)
        if h is None:
            continue
        # write the mu-block as T_mu * h'; T_mu itself is v^{-x_mu}[mu],
        # so h' = v^{x_mu} (coefficient extraction below)
        # The block of vec is sum_w c_w T_w with coefficients constant on
        # left S_mu-cosets; acting by a in H_{lam,mu}: T_mu T_w0 -> a T_w0
        # for minimal reps w0.
        ah = _block_to_hecke(terms, lam, mu)
        reps = {}
        remaining = dict(h.terms)
        acc = HeckeElement.zero(x.D)
        while remaining:
            w = next(iter(remaining))
            p = mu.act(w)
            w0 = p.min_coset_rep()
            c = remaining[w]
            for u in affine_weyl.young_subgroup_elements(x.D, mu.values):
                c2 = remaining.pop(u * w0, None)
                if c2 is None or c2 != c:
                    raise ArithmeticError("vector not in the mu-block submodule")
            acc = acc + hecke.mul(ah, HeckeElement.t(w0)).scale(c)
        out = out + tmodule.from_hecke_block(lam, acc)
    return out


# ---------------------------------------------------------------------------
# Generator images of the quantum-algebra homomorphism


def phi_idempotent(n: int, D: int, mu) -> SchurElement:
    """Image of the weight idempotent: [delta lam] if sum(mu) = D, else 0."""
    if sum(mu) != D:
        return SchurElement.zero(n, D)
    lam = flag_comb.dominant_from_weight(n, D, mu)
    return SchurElement.basis(flag_comb.delta_matrix(lam))


def phi_e(n: int, D: int, i: int, lam_weight) -> SchurElement:
    """Image of a_{lam} e_i: the displaced diagonal matrix, or 0."""
    if sum(lam_weight) != D:
        return SchurElement.zero(n, D)
    lam = flag_comb.dominant_from_weight(n, D, lam_weight)
    e_mat, _ = flag_comb.generator_matrices(lam, i)
    if e_mat is None:
        return SchurElement.zero(n, D)
    return SchurElement.basis(e_mat)


def phi_f(n: int, D: int, i: int, lam_weight) -> SchurElement:
    """Image of f_i a_{lam}: the transpose displacement, or 0."""
    if sum(lam_weight) != D:
        return SchurElement.zero(n, D)
    lam = flag_comb.dominant_from_weight(n, D, lam_weight)
    _, f_mat = flag_comb.generator_matrices(lam, i)
    if f_mat is None:
        return SchurElement.zero(n, D)
    return SchurElement.basis(f_mat)


# ---------------------------------------------------------------------------
# Monomials of the modified quantum algebra
#
# A letter is ("a", weight) | ("e", i, k) | ("f", i, k) with k the divided
# power.  Evaluation is anchored at an "a" letter, extending leftward by
# left multiplication and rightward by right multiplication; weights are
# resolved blockwise from the neighbouring idempotent.


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
    w[(i - 1) % n] += sign * k
    w[i % n] -= sign * k
    return tuple(w)


def _mul_gen_left(x: SchurElement, kind: str, i: int, k: int) -> SchurElement:
    """Left multiplication by e_i^(k) or f_i^(k)."""
    out = SchurElement.zero(x.n, x.D)
    shift = _wshift(x.n, kind, i, 1)
    for (lam, mu), terms in x.blocks.items():
        piece = SchurElement(x.n, x.D, {(lam, mu): terms})
        for _ in range(k):
            left_wt = next(iter(piece.blocks))[0].weight() if piece.blocks else None
            if left_wt is None:
                break
            new_wt = tuple(a + b for a, b in zip(left_wt, shift))
            if any(m < 0 for m in new_wt):
                piece = SchurElement.zero(x.n, x.D)
                break
            if kind == "e":
                g = phi_e(x.n, x.D, i, new_wt)
            else:
                g = phi_f(x.n, x.D, i, left_wt)
            piece = schur_mul(g, piece)
        out = out + _divide(piece, quantum_factorial(k))
    return out


def _mul_gen_right(x: SchurElement, kind: str, i: int, k: int) -> SchurElement:
    """Right multiplication by e_i^(k) or f_i^(k)."""
    out = SchurElement.zero(x.n, x.D)
    shift = _wshift(x.n, kind, i, 1)
    for (lam, mu), terms in x.blocks.items():
        piece = SchurElement(x.n, x.D, {(lam, mu): terms})
        for _ in range(k):
            right_wt = next(iter(piece.blocks))[1].weight() if piece.blocks else None
            if right_wt is None:
                break
            if kind == "e":
                g = phi_e(x.n, x.D, i, right_wt)
            else:
                # the letter's a-weight is the new right weight
                new_wt = tuple(a - b for a, b in zip(right_wt, shift))
                if any(m < 0 for m in new_wt):
                    piece = SchurElement.zero(x.n, x.D)
                    break
                g = phi_f(x.n, x.D, i, new_wt)
            piece = schur_mul(piece, g)
        out = out + _divide(piece, quantum_factorial(k))
    return out


def _divide(x: SchurElement, d: LaurentScalar) -> SchurElement:
    if d.is_one():
        return x
    return SchurElement(x.n, x.D,
                        {k: {s: divide_exact(c, d) for s, c in t.items()}
                         for k, t in x.blocks.items()})


def phi_monomial(m: UdotMonomial, D: int) -> SchurElement:
    """Evaluate the homomorphism on a word, anchored at its weight letters."""
    n = m.n
    anchors = [j for j, g in enumerate(m.letters) if g[0] == "a"]
    if not anchors:
        raise ValueError("monomial has no weight letter to anchor at")
    j = anchors[0]
    x = phi_idempotent(n, D, m.letters[j][1])
    # extend to the left
    for g in reversed(m.letters[:j]):
        if x.is_zero():
            return x
        if g[0] == "a":
            x = schur_mul(phi_idempotent(n, D, g[1]), x)
        else:
            x = _mul_gen_left(x, g[0], g[1], g[2])
    # extend to the right
    for g in m.letters[j + 1:]:
        if x.is_zero():
            return x
        if g[0] == "a":
            x = schur_mul(x, phi_idempotent(n, D, g[1]))
        else:
            x = _mul_gen_right(x, g[0], g[1], g[2])
    return x


# ---------------------------------------------------------------------------
# The involution tau on Schur elements


def tau_schur(x: SchurElement) -> SchurElement:
    out = SchurElement.zero(x.n, x.D)
    for (lam, mu), terms in x.blocks.items():
        acc = {}
        for s, c in terms.items():
            cb = c.bar()
            for t, d in canonical._tau_schur_terms(s):
                prev = acc.get(t, LaurentScalar.zero()) + cb * d
                if prev.is_zero():
                    acc.pop(t, None)
                else:
                    acc[t] = prev
        out = out + SchurElement(x.n, x.D, {(lam, mu): acc})
    return out


# ---------------------------------------------------------------------------
# The sign character at D = n and the block twist


def epsilon_sign(x: SchurElement, rho_value: LaurentScalar = ONE) -> LaurentScalar:
    """The character on the block lam = mu = (1, ..., n); zero elsewhere.

    T_{s_i} -> -1 on that block; length-zero rotations go to rho_value
    (a calibration constant, a Laurent monomial)."""
    if x.D != x.n:
        raise ValueError("the sign character lives at D = n")
    std = FlagSymbol(x.n, x.n, tuple(range(1, x.n + 1)))
    total = LaurentScalar.zero()
    for (lam, mu), terms in x.blocks.items():
        if lam != std or mu != std:
            continue
        h = _block_to_hecke(terms, lam, mu)
        for w, c in h.terms.items():
            k, word = w.reduced_word()
            sign = LaurentScalar.const(-1 if len(word) % 2 else 1)
            total = total + c * sign * (rho_value ** k if k >= 0
                                        else _inv_monomial(rho_value) ** (-k))
    return total


def _inv_monomial(c: LaurentScalar) -> LaurentScalar:
    (e, a), = c.items()
    if a * a != 1:
        raise ArithmeticError("calibration constant must be invertible")
    return LaurentScalar({-e: a})


def psi_twist(x: SchurElement, sign: int = 1) -> SchurElement:
    """Blockwise scalar v^{sign * (sum window(lam) - sum window(mu))}."""
    blocks = {}
    for (lam, mu), terms in x.blocks.items():
        exp = sign * (sum(lam.values) - sum(mu.values))
        blocks[(lam, mu)] = {s: c.shift(exp) for s, c in terms.items()}
    return SchurElement(x.n, x.D, blocks)


def offset_sum(s: PeriodicMatrix) -> int:
    """Total column displacement sum_{ij} (j - i) s_ij over one strip;
    additive under multiplication of basis elements."""
    return sum((j - i) * val for (i, j), val in s.entries)


def offset_twist(x: SchurElement, sign: int = 1) -> SchurElement:
    """The diagonal twist [s] -> v^{sign * offset_sum(s)} [s]; this is the
    per-symbol-pair reading of the blockwise scalar v^{sum(lam_i - mu_i)}."""
    return SchurElement.from_terms(
        x.n, x.D,
        {s: c.shift(sign * offset_sum(s)) for s, c in x.terms().items()})
