"""The q-Schur algebra: multiplication, the evaluation homomorphism."""

import random

from affine_schur import cli, canonical, flag_comb as fc, schur, tmodule, transfer
from affine_schur.flag_comb import FlagSymbol, PeriodicMatrix
from affine_schur.laurent import LaurentScalar, ONE
from affine_schur.schur import SchurElement, UdotMonomial


def test_unit_and_idempotents():
    one = schur.unit_on_weights(2, 2, [(1, 1), (2, 0), (0, 2)])
    e11 = schur.phi_idempotent(2, 2, (1, 1))
    assert schur.schur_mul(one, e11) == e11
    assert schur.schur_mul(e11, e11) == e11
    e20 = schur.phi_idempotent(2, 2, (2, 0))
    assert schur.schur_mul(e11, e20).is_zero()


def test_mul_associative_sampled():
    rng = random.Random(3)
    gens = [schur.phi_e(2, 3, i, lam.weight())
            for lam in fc.all_dominant(2, 3) for i in range(2)]
    gens += [schur.phi_f(2, 3, i, lam.weight())
             for lam in fc.all_dominant(2, 3) for i in range(2)]
    gens = [g for g in gens if not g.is_zero()]
    for _ in range(25):
        a, b, c = (rng.choice(gens) for _ in range(3))
        assert schur.schur_mul(schur.schur_mul(a, b), c) == \
            schur.schur_mul(a, schur.schur_mul(b, c))


def test_phi_generator_images():
    # the e-image is the delta matrix with one unit moved up
    lam = fc.dominant_from_weight(2, 2, (1, 1))
    x = schur.phi_e(2, 2, 1, (1, 1))
    (s, c), = x.terms.items()
    assert c == ONE
    assert s == PeriodicMatrix.make(2, 2, {(1, 2): 1, (2, 2): 1})


def test_phi_monomial_zero_off_rank():
    m = UdotMonomial(2, (("a", (1, 1)),))
    assert schur.phi_monomial(m, 4).is_zero()  # weight sums to 2, rank 4


def test_schur_suite():
    cfg = cli.RunConfig(n=2, D=2, word_len=3)
    cases = cli.suite_schur(cfg)
    assert cases and all(c["status"] == "pass" for c in cases), \
        [c for c in cases if c["status"] != "pass"]


def test_tau_schur_involution():
    lam = fc.dominant_from_weight(2, 2, (1, 1))
    for x in (schur.phi_e(2, 2, 0, (1, 1)), schur.phi_f(2, 2, 1, (2, 0))):
        if x.is_zero():
            continue
        assert schur.tau_schur(schur.tau_schur(x)) == x


def test_act_on_module_matches_formulas():
    # a_{(2,1)} e_1 has right weight (1, 2): act there
    mu = fc.dominant_from_weight(2, 3, (1, 2))
    x = schur.phi_e(2, 3, 1, (2, 1))
    via = schur.act_on_module(x, tmodule.ModuleVector.basis(mu))
    direct = tmodule.apply_e(1, tmodule.ModuleVector.basis(mu))
    assert not via.is_zero()
    assert via == direct


def test_epsilon_sign_character():
    # the unit of the standard block maps to 1, a simple T to -1 via [s]
    std = FlagSymbol(2, 2, (1, 2))
    d = fc.delta_matrix(std)
    assert schur.epsilon_sign(SchurElement.basis(d)) == ONE
    x = schur.phi_e(2, 2, 1, (1, 1))
    y = schur.phi_f(2, 2, 1, (1, 1))
    prod = schur.schur_mul(x, y)
    # e f on the standard block evaluates through the sign character
    val = schur.epsilon_sign(prod)
    assert val.bar() == val  # symmetric scalar


def test_offset_twist_multiplicative():
    # offset_sum is additive along products of basis elements
    a = schur.phi_e(2, 2, 1, (1, 1))
    b = schur.phi_f(2, 2, 1, (1, 1))
    (sa, _), = a.terms.items()
    (sb, _), = b.terms.items()
    for s, _ in schur.schur_mul(a, b).terms.items():
        assert schur.offset_sum(s) == schur.offset_sum(sa) + schur.offset_sum(sb)


def test_schur_json_roundtrip():
    x = schur.phi_e(2, 3, 0, (2, 1)) + schur.phi_idempotent(2, 3, (1, 2))
    assert SchurElement.from_json(x.to_json()) == x
