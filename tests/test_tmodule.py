"""The periodic flag module: action formulas, involution, relation suite."""

from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from affine_schur import cli, flag_comb as fc, hecke, tmodule
from affine_schur.flag_comb import FlagSymbol
from affine_schur.laurent import (LaurentScalar, ONE, RationalScalar,
                                  divide_exact, quantum_factorial,
                                  quantum_integer)
from affine_schur.tmodule import ModuleVector
from affine_schur.vector import add_scaled

from oracles import to_hecke_blocks


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
    assert {q.weight() for q in out.terms} == {(0, 2)}


def test_divided_powers():
    p = FlagSymbol(2, 3, (1, 1, 1))
    x = ModuleVector.basis(p)
    twice = tmodule.apply_f(1, tmodule.apply_f(1, x))
    div = tmodule.apply_divided(1, 2, x, "f")
    from affine_schur.laurent import quantum_factorial
    assert div.scale(quantum_factorial(2)) == twice


def chevalley_step(i, terms, which):
    """e_i or f_i on {symbol: scalar}, one flip at a time: the rule that
    `tmodule.divided` sums over k-subsets.  Moving the value at position k
    gives the weight v^(a - b): a positions beyond k hold the moving value
    and b hold the value it becomes, beyond meaning right of k for e and
    left of k for f."""
    def moved():
        for p, c in terms.items():
            lo, up = p.preimage(i), p.preimage(i + 1)
            if which == "e":
                main, other, value, beyond = up, lo, i, int.__gt__
            else:
                main, other, value, beyond = lo, up, i + 1, int.__lt__
            for k in main:
                exp = (sum(1 for l in main if beyond(l, k))
                       - sum(1 for l in other if beyond(l, k)))
                yield p.with_value(k, value), c.shift(exp)

    return add_scaled({}, moved())


def divided_by_chain(i, k, terms, which):
    """The k-fold chain of single steps, divided exactly by [k]!: the route
    that `tmodule.divided` replaced, kept as its oracle.  Over Z[v, v^-1]
    a non-exact division raises ArithmeticError."""
    for _ in range(k):
        terms = chevalley_step(i, terms, which)
    fact = quantum_factorial(k)
    rfact = RationalScalar.from_laurent(fact)
    return {p: divide_exact(c, fact) if isinstance(c, LaurentScalar) else c / rfact
            for p, c in terms.items()}


@pytest.mark.parametrize("n", [2, 3])
def test_divided_matches_chain_on_every_basis_vector(n):
    for D in range(1, 5):
        for p in fc.enumerate_flag_symbols(n, D, 1, 2 * n):
            for i in range(n):
                for which in ("e", "f"):
                    for k in range(5):
                        assert (tmodule.divided(i, k, {p: ONE}, which)
                                == divided_by_chain(i, k, {p: ONE}, which)), (p, i, k)


def test_divided_at_rank_one():
    # one flip agrees with the chain; from k = 2 on the subset formula does
    # not apply, and the chain's [k]! does not divide either
    for D in range(1, 5):
        for p in fc.enumerate_flag_symbols(1, D, 1, 2):
            for which in ("e", "f"):
                for k in (0, 1):
                    assert (tmodule.divided(0, k, {p: ONE}, which)
                            == divided_by_chain(0, k, {p: ONE}, which))
                for k in (2, 3):
                    with pytest.raises(ArithmeticError, match="needs n >= 2"):
                        tmodule.divided(0, k, {p: ONE}, which)
                    with pytest.raises(ArithmeticError, match="non-exact division"):
                        divided_by_chain(0, k, {p: ONE}, which)
    assert tmodule.divided(0, 2, {}, "f") == {}


_SIGNED = st.dictionaries(st.integers(-3, 3), st.integers(-3, 3).filter(bool),
                          min_size=1, max_size=3).map(LaurentScalar)
# D = 4 lets k = 4 flip a whole class
_DIVIDED_SYMBOLS = {(n, D): fc.enumerate_flag_symbols(n, D, 0, n + 2)
                    for n in (2, 3, 4) for D in (1, 2, 3, 4)}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_divided_matches_chain_on_combinations(data):
    n, D = data.draw(st.sampled_from(sorted(_DIVIDED_SYMBOLS)))
    rational = data.draw(st.booleans())
    syms = data.draw(st.lists(st.sampled_from(_DIVIDED_SYMBOLS[n, D]),
                              max_size=4, unique=True))
    coeff = (st.tuples(_SIGNED, _SIGNED).map(lambda t: RationalScalar(*t))
             if rational else _SIGNED)
    terms = {p: data.draw(coeff) for p in syms}
    i = data.draw(st.integers(0, n - 1))
    k = data.draw(st.integers(0, 4))
    which = data.draw(st.sampled_from(("e", "f")))
    assert tmodule.divided(i, k, terms, which) == divided_by_chain(i, k, terms, which)
    assert tmodule.divided(i, k, {}, which) == {}


def test_module_relations_suite():
    for n, D in ((2, 2), (2, 3), (3, 2)):
        cfg = cli.RunConfig(n=n, D=D, window=2 * n)
        cases = list(cli._module_cases(cfg))
        assert cases and all(c["status"] == "pass" for c in cases), cases


def commutator_form(n: int, D: int, i: int, mu) -> "int | None":
    """The integer m with [e_i, f_i] = [m] on the weight-mu component,
    or None if the action is not scalar there."""
    lam = fc.dominant_from_weight(n, D, mu)
    m_seen = None
    # probe on every symbol of weight mu within one period window
    symbols = {FlagSymbol(n, D, perm) for perm in permutations(lam.values)}
    for p in symbols:
        x = ModuleVector.basis(p)
        diff = tmodule.apply_e(i, tmodule.apply_f(i, x)) - tmodule.apply_f(i, tmodule.apply_e(i, x))
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


def test_commutator_form_is_weight_difference():
    for n, D in ((2, 3), (3, 3)):
        for lam in fc.all_dominant(n, D):
            mu = lam.weight()
            for i in range(n):
                m = commutator_form(n, D, i, mu)
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
    for lam, block in to_hecke_blocks(x).items():
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
    assert _as_quantum_integer(quantum_integer(250)) == 250
    assert _as_quantum_integer(quantum_integer(-250)) == -250
    assert _as_quantum_integer(LaurentScalar.zero()) == 0
    for c in (LaurentScalar.const(2), LaurentScalar.v(2),
              LaurentScalar({1: 1, 0: 1, -1: 1}), LaurentScalar({1: 1, -1: -1}),
              quantum_integer(250) + LaurentScalar.v(251)):
        assert _as_quantum_integer(c) is None
