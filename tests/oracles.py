"""Slow routes that more than one test file compares the package against.

Each was a function of the package until a faster route replaced it on
every path a command runs; here it serves only as a reference.
"""

from affine_schur import affine_weyl
from affine_schur.flag_comb import FlagSymbol, x_stat
from affine_schur.hecke import HeckeElement
from affine_schur.laurent import LaurentScalar, ONE
from affine_schur.schur import SchurElement, epsilon_degrees
from affine_schur.tmodule import ModuleVector
from affine_schur.vector import add_scaled


def coset_sum(lam: FlagSymbol, p: FlagSymbol) -> HeckeElement:
    """T_p = sum of T_w over the left coset S_lam w_p, w_p the minimal rep."""
    if p.dominant_rep() != lam:
        raise ValueError("p is not in the orbit of lam")
    D = p.D
    wp = p.min_coset_rep()
    terms = {u * wp: ONE
             for u in affine_weyl.young_subgroup_elements(D, lam.values)}
    return HeckeElement(D, terms)


def to_hecke_blocks(x: ModuleVector) -> dict:
    """Expand into the T_w basis, one Hecke element per dominant block:
    the inverse of `tmodule.from_hecke_block`."""
    blocks = {}
    for p, c in x.terms.items():
        lam = p.dominant_rep()
        add_scaled(blocks.setdefault(lam, {}), coset_sum(lam, p).terms,
                   c.shift(x_stat(p)))
    return {lam: HeckeElement(x.D, t) for lam, t in blocks.items() if t}


def epsilon_sign(x: SchurElement, rho_value: LaurentScalar = ONE) -> LaurentScalar:
    """The sign character on the block lam = mu = (1, ..., n); zero elsewhere.

    T_{s_i} -> -1 on that block; length-zero rotations go to rho_value
    (a calibration constant, a Laurent monomial).  Summed from
    `schur.epsilon_degrees`; the reference for `transfer.evaluate_collapse`.
    """
    total = LaurentScalar.zero()
    for k, a in epsilon_degrees(x).items():
        total = total + a * (rho_value ** k if k >= 0
                             else inv_monomial(rho_value) ** (-k))
    return total


def inv_monomial(c: LaurentScalar) -> LaurentScalar:
    (e, a), = c.items()
    if a * a != 1:
        raise ArithmeticError("calibration constant must be invertible")
    return LaurentScalar({-e: a})
