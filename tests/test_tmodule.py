"""The periodic flag module: action formulas, involution, relation suite."""

import pytest
from hypothesis import given, settings, strategies as st

from affine_schur import affine_weyl as aw, cli, flag_comb as fc, hecke, tmodule
from affine_schur.flag_comb import FlagSymbol
from affine_schur.laurent import LaurentScalar, ONE, quantum_integer
from affine_schur.tmodule import ModuleVector
from affine_schur.vector import add_scaled


def test_action_example():
    # e_1 on [1, 2] flips the single 2 down to 1 with no twist
    p = FlagSymbol(2, 2, (1, 2))
    out = tmodule.apply_e(1, ModuleVector.basis(p))
    assert out.terms == {FlagSymbol(2, 2, (1, 1)): ONE}
    # f_1 on [1, 1] has two targets with v-weights
    q = FlagSymbol(2, 2, (1, 1))
    out = tmodule.apply_f(1, ModuleVector.basis(q))
    assert set(out.terms) == {FlagSymbol(2, 2, (2, 1)), FlagSymbol(2, 2, (1, 2))}
    assert sorted(out.terms.values(), key=str) == sorted(
        [ONE, LaurentScalar.v(1)], key=str)


def test_wrap_residue_zero():
    # e_0 moves values across the period: weight (1, 1) -> (0, 2)
    p = FlagSymbol(2, 2, (1, 2))
    out = tmodule.apply_e(0, ModuleVector.basis(p))
    assert not out.is_zero()
    assert out.weights() == {(0, 2)}


def test_divided_powers():
    p = FlagSymbol(2, 3, (1, 1, 1))
    x = ModuleVector.basis(p)
    twice = tmodule.apply_f(1, tmodule.apply_f(1, x))
    div = tmodule.apply_divided(1, 2, x, "f")
    from affine_schur.laurent import quantum_factorial
    assert div.scale(quantum_factorial(2)) == twice


def test_module_relations_suite():
    for n, D in ((2, 2), (2, 3), (3, 2)):
        cfg = cli.RunConfig(n=n, D=D, window=2 * n)
        cases = list(cli._module_cases(cfg))
        assert cases and all(c["status"] == "pass" for c in cases), cases


def test_commutator_form_is_weight_difference():
    for n, D in ((2, 3), (3, 3)):
        for lam in fc.all_dominant(n, D):
            mu = lam.weight()
            for i in range(n):
                m = tmodule.commutator_form(n, D, i, mu)
                assert m == mu[(i - 1) % n] - mu[i % n]


def test_tau_involution():
    for vals in ((1, 2), (2, 1), (2, 2), (1, 4)):
        x = ModuleVector.basis(FlagSymbol(2, 2, vals))
        assert tmodule.tau(tmodule.tau(x)) == x


def tau_by_hecke_blocks(x: ModuleVector) -> ModuleVector:
    """The blockwise Hecke route that the per-symbol memo replaced: expand
    each dominant block into coset sums, bar the whole of it and collapse
    back onto symbols."""
    out = {}
    for lam, block in tmodule.to_hecke_blocks(x).items():
        add_scaled(out, tmodule.from_hecke_block(lam, hecke.bar(block)).terms)
    return ModuleVector(x.n, x.D, out)


@pytest.mark.parametrize("n, D", [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4)])
def test_tau_matches_hecke_block_route(n, D):
    for p in fc.enumerate_flag_symbols(n, D, 1, 2 * n):
        x = ModuleVector.basis(p)
        assert tmodule.tau(x) == tau_by_hecke_blocks(x)


_COMBO_SYMBOLS = {(n, D): fc.enumerate_flag_symbols(n, D, 0, n + 2)
                  for n, D in ((2, 2), (2, 3), (3, 3))}
_COEFFS = st.dictionaries(st.integers(-3, 3), st.integers(-3, 3),
                          min_size=1, max_size=3).map(LaurentScalar)


def _combination(draw, shape):
    syms = draw(st.lists(st.sampled_from(_COMBO_SYMBOLS[shape]), min_size=1,
                         max_size=4, unique=True))
    return ModuleVector(*shape, {p: draw(_COEFFS) for p in syms})


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_tau_antilinear_involution_on_combinations(data):
    shape = data.draw(st.sampled_from(sorted(_COMBO_SYMBOLS)))
    x, y = _combination(data.draw, shape), _combination(data.draw, shape)
    a, b = data.draw(_COEFFS), data.draw(_COEFFS)
    tau = tmodule.tau
    assert tau(x.scale(a) + y.scale(b)) == tau(x).scale(a.bar()) + tau(y).scale(b.bar())
    assert tau(tau(x)) == x
    assert tau(x) == tau_by_hecke_blocks(x)


def test_right_action_consistency():
    # the fast simple-reflection path matches the generic Hecke product
    for vals in ((1, 2, 2), (2, 1, 3), (1, 1, 2)):
        x = ModuleVector.basis(FlagSymbol(2, 3, vals))
        for j in range(3):
            h = hecke.HeckeElement.t(aw.simple(3, j))
            assert tmodule.right_simple(x, j) == tmodule.right_hecke(x, h)


def test_angle_vector_leading_term():
    # <p> is [p] plus terms in v Z[v]
    for vals in ((1, 2, 1), (2, 2, 1), (1, 1, 2)):
        p = FlagSymbol(2, 3, vals)
        for i in range(2):
            av = tmodule.angle_vector(p, i)
            assert av.coeff(p) == ONE
            for q, c in av.terms.items():
                if q != p:
                    assert c.in_v_times_z_of_v()


def test_json_roundtrip():
    x = tmodule.apply_f(1, ModuleVector.basis(FlagSymbol(2, 2, (1, 1))))
    assert ModuleVector.from_json(x.to_json()) == x


def test_as_quantum_integer_closed_form():
    assert tmodule._as_quantum_integer(quantum_integer(250)) == 250
    assert tmodule._as_quantum_integer(quantum_integer(-250)) == -250
    assert tmodule._as_quantum_integer(LaurentScalar.zero()) == 0
    for c in (LaurentScalar.const(2), LaurentScalar.v(2),
              LaurentScalar({1: 1, 0: 1, -1: 1}), LaurentScalar({1: 1, -1: -1}),
              quantum_integer(250) + LaurentScalar.v(251)):
        assert tmodule._as_quantum_integer(c) is None
