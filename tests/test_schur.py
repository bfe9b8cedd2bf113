"""The q-Schur algebra: multiplication, the evaluation homomorphism."""

import random
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from affine_schur import cli, flag_comb as fc, schur, tmodule, transfer
from affine_schur.flag_comb import FlagSymbol, PeriodicMatrix
from affine_schur.laurent import LaurentScalar, ONE
from affine_schur.schur import SchurElement, UdotMonomial
from affine_schur.vector import add_scaled

from oracles import (act_on_module_by_blocks, block_to_hecke, epsilon_sign,
                     from_column_by_pairs, inv_monomial, mul_gen_by_blocks,
                     phi_f, phi_monomial_k_fold, schur_mul_by_hecke)


def unit_on_weights(n, D, weights):
    """Sum of the idempotents [delta lam] over the given weights."""
    return SchurElement(n, D, {fc.delta_matrix(wt): ONE for wt in weights})


def test_unit_and_idempotents():
    one = unit_on_weights(2, 2, [(1, 1), (2, 0), (0, 2)])
    e11 = schur.phi_idempotent(2, 2, (1, 1))
    assert schur.schur_mul(one, e11) == e11
    assert schur.schur_mul(e11, e11) == e11
    e20 = schur.phi_idempotent(2, 2, (2, 0))
    assert schur.schur_mul(e11, e20).is_zero()


def test_mul_associative_sampled():
    rng = random.Random(3)
    gens = [schur.phi_e(2, 3, i, lam.weight())
            for lam in fc.all_dominant(2, 3) for i in range(2)]
    gens += [phi_f(2, 3, i, lam.weight())
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


def _words_both_sides(n, D, max_len, max_k):
    """Every word of at most max_len Chevalley letters e_i^(k), f_i^(k),
    k <= max_k, with a weight letter of rank D first or last."""
    gens = [(kind, i, k) for kind in "ef" for i in range(n)
            for k in range(max_k + 1)]
    for wt in fc.weights(n, D):
        for length in range(max_len + 1):
            for word in product(gens, repeat=length):
                yield UdotMonomial(n, (("a", wt),) + word)
                if word:
                    yield UdotMonomial(n, word + (("a", wt),))


@pytest.mark.parametrize("n, D, max_k", [(2, 3, 3), (3, 2, 2)])
def test_divided_powers_match_k_fold_route_on_every_short_word(n, D, max_k):
    nonzero = 0
    for m in _words_both_sides(n, D, 2, max_k):
        x = schur.phi_monomial(m, D)
        assert x == phi_monomial_k_fold(m, D), m
        nonzero += not x.is_zero()
    assert nonzero


@st.composite
def divided_power_words(draw):
    """A word of up to three letters e_i^(k), f_i^(k), k <= 3, at n <= 4
    and D <= 4, its weight letter at any position, first and last
    included."""
    n = draw(st.integers(2, 4))
    D = draw(st.integers(1, 4))
    gens = draw(st.lists(st.tuples(st.sampled_from("ef"), st.integers(0, n - 1),
                                   st.integers(0, 3)), max_size=3))
    wt = draw(st.sampled_from(list(fc.weights(n, D))))
    at = draw(st.integers(0, len(gens)))
    return UdotMonomial(n, gens[:at] + [("a", wt)] + gens[at:]), D


@settings(max_examples=60, deadline=None)
@given(divided_power_words())
def test_divided_powers_match_k_fold_route_on_drawn_words(case):
    m, D = case
    assert schur.phi_monomial(m, D) == phi_monomial_k_fold(m, D)


def test_divided_powers_at_rank_one_raise_like_the_module():
    # k <= 1 agrees with the k-fold route; from k = 2 on the k-fold route's
    # [k]! does not divide, and the one-element route refuses
    for D in range(1, 4):
        for m in _words_both_sides(1, D, 1, 1):
            assert schur.phi_monomial(m, D) == phi_monomial_k_fold(m, D)
        for kind in "ef":
            for word in (((kind, 0, 2), ("a", (D,))), (("a", (D,)), (kind, 0, 2))):
                m = UdotMonomial(1, word)
                with pytest.raises(ArithmeticError, match="needs n >= 2"):
                    schur.phi_monomial(m, D)
                with pytest.raises(ArithmeticError, match="non-exact division"):
                    phi_monomial_k_fold(m, D)


def test_phi_monomial_zero_off_rank():
    m = UdotMonomial(2, (("a", (1, 1)),))
    assert schur.phi_monomial(m, 4).is_zero()  # weight sums to 2, rank 4


@pytest.mark.parametrize("wt", [(1, 1, 0), (3, -1), (-1, 3)])
def test_phi_images_reject_malformed_weights_of_the_rank(wt):
    # a weight that sums to the rank must be a nonnegative n-tuple
    for image in (lambda: schur.phi_idempotent(2, 2, wt),
                  lambda: schur.phi_e(2, 2, 1, wt),
                  lambda: phi_f(2, 2, 1, wt)):
        with pytest.raises(ValueError, match="nonnegative n-tuple"):
            image()


def test_schur_suite():
    cfg = cli.RunConfig(n=2, D=2, word_len=3)
    cases = cli.suite_schur(cfg)
    assert cases and all(c["status"] == "pass" for c in cases), \
        [c for c in cases if c["status"] != "pass"]


def test_tau_schur_involution():
    lam = fc.dominant_from_weight(2, 2, (1, 1))
    for x in (schur.phi_e(2, 2, 0, (1, 1)), phi_f(2, 2, 1, (2, 0))):
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


@lru_cache(maxsize=None)
def _band_one(n, D):
    return transfer.band_matrices(n, D, 1)


coeffs = st.dictionaries(st.integers(-3, 3), st.integers(-3, 3),
                         min_size=1, max_size=3).map(LaurentScalar).filter(bool)


@st.composite
def elements_and_vectors(draw):
    """A Schur element over several blocks and a module vector that meets
    the column orbits of its terms in symbols that are mostly not dominant,
    plus symbols of any weight; coefficients are drawn Laurent polynomials."""
    n = draw(st.integers(2, 3))
    D = draw(st.integers(1, 4))
    terms = draw(st.lists(st.tuples(st.sampled_from(_band_one(n, D)), coeffs),
                          min_size=1, max_size=4))
    syms = []
    for s, _ in terms:
        mu = fc.block_of(s)[1]
        vals = draw(st.permutations(mu.values))
        lifts = draw(st.lists(st.integers(-1, 1), min_size=D, max_size=D))
        syms.append(FlagSymbol(n, D, tuple(v + n * k for v, k in zip(vals, lifts))))
    syms += draw(st.lists(st.lists(st.integers(-1, 2 * n), min_size=D, max_size=D)
                          .map(lambda vals: FlagSymbol(n, D, tuple(vals))), max_size=2))
    vec = add_scaled({}, [(p, draw(coeffs)) for p in syms])
    return (SchurElement(n, D, add_scaled({}, terms)),
            tmodule.ModuleVector(n, D, vec))


@settings(max_examples=40, deadline=None)
@given(elements_and_vectors())
def test_act_on_module_matches_block_route(case):
    x, vec = case
    assert schur.act_on_module(x, vec) == act_on_module_by_blocks(x, vec)


@st.composite
def generator_products(draw):
    """x a combination of band-one basis matrices from several blocks at
    n = 2..4, D <= 4, and a letter e_i^(k) or f_i^(k), k <= 3, on either
    side; at D < 3 or with a zero weight entry, some blocks meet a
    generator that vanishes."""
    n = draw(st.integers(2, 4))
    D = draw(st.integers(1, 4))
    terms = draw(st.lists(st.tuples(st.sampled_from(_band_one(n, D)), coeffs),
                          min_size=1, max_size=5))
    return (SchurElement(n, D, add_scaled({}, terms)), draw(st.sampled_from("ef")),
            draw(st.integers(0, n - 1)), draw(st.integers(0, 3)),
            draw(st.booleans()))


# e_i^(2) and f_i^(2) vanish on one of the two blocks at each residue
_TWO_BLOCKS = SchurElement(2, 2, {fc.delta_matrix((2, 0)): ONE,
                                  fc.delta_matrix((0, 2)): ONE})


@settings(max_examples=80, deadline=None)
@given(generator_products())
@example((_TWO_BLOCKS, "e", 0, 2, True))
@example((_TWO_BLOCKS, "f", 1, 2, False))
def test_mul_gen_matches_block_route(case):
    x, kind, i, k, left = case
    assert schur._mul_gen(x, kind, i, k, left) == mul_gen_by_blocks(x, kind, i, k, left)


def test_mul_gen_on_a_vanishing_block():
    for kind, i, left in product("ef", range(2), (True, False)):
        x = schur._mul_gen(_TWO_BLOCKS, kind, i, 2, left)
        assert len(x.terms) == 1, (kind, i, left)
        assert schur._mul_gen(_TWO_BLOCKS, kind, i, 3, left).is_zero()


@st.composite
def drawn_band_matrices(draw):
    """A periodic matrix at n = 2..4, D <= 5 with its D units in cells
    (i, j), |j - i| <= 2."""
    n = draw(st.integers(2, 4))
    D = draw(st.integers(1, 5))
    band = draw(st.integers(0, 2))
    cells = {}
    for i, d in draw(st.lists(st.tuples(st.integers(1, n), st.integers(-band, band)),
                              min_size=D, max_size=D)):
        cells[(i, i + d)] = cells.get((i, i + d), 0) + 1
    return PeriodicMatrix.make(n, D, cells)


def _column_by_hecke(s):
    """[s]*[mu] by the Hecke route of the action memo, mu the column of s."""
    return dict(schur._act_basis(s, fc.block_of(s)[1]))


@settings(max_examples=60, deadline=None)
@given(drawn_band_matrices())
def test_column_vector_matches_hecke_action(s):
    assert schur.column_vector(s).terms == _column_by_hecke(s)


@settings(max_examples=60, deadline=None)
@given(st.lists(drawn_band_matrices(), min_size=1, max_size=4), st.data())
def test_from_column_matches_matrix_of_pair_route(mats, data):
    # z*[nu] for z a combination of the drawn matrices of the first one's
    # shape and column, and tau of one column vector, which spreads over
    # lower matrices
    s = mats[0]
    nu = fc.block_of(s)[1]
    z = {t: data.draw(coeffs) for t in mats
         if (t.n, t.D) == (s.n, s.D) and fc.block_of(t)[1] == nu}
    for coords in (schur.act_on_module(SchurElement(s.n, s.D, z),
                                       tmodule.ModuleVector.basis(nu)).terms,
                   tmodule.tau(schur.column_vector(s)).terms):
        assert schur.from_column(nu, coords) == from_column_by_pairs(nu, coords)
    assert schur.from_column(nu, schur.column_vector(s).terms) == {s: ONE}


@pytest.mark.parametrize("n, D, band", [(2, 3, 2), (3, 3, 1)])
def test_column_vector_matches_hecke_action_on_every_band_matrix(n, D, band):
    for s in transfer.band_matrices(n, D, band):
        assert schur.column_vector(s).terms == _column_by_hecke(s)


@st.composite
def schur_factor_pairs(draw):
    """a and b over several blocks with Laurent coefficients, at n = 2..3,
    D <= 3: most terms of a have the row weight of some term of b as their
    column weight, and a few meet no term of b."""
    n = draw(st.integers(2, 3))
    D = draw(st.integers(1, 3))
    pool = _band_one(n, D)
    b_terms = draw(st.lists(st.tuples(st.sampled_from(pool), coeffs),
                            min_size=1, max_size=3))
    rows = {t.row_weight() for t, _ in b_terms}
    fitting = [s for s in pool if s.col_weight() in rows]
    a_terms = draw(st.lists(st.tuples(st.sampled_from(fitting), coeffs),
                            min_size=1, max_size=4))
    a_terms += draw(st.lists(st.tuples(st.sampled_from(pool), coeffs), max_size=1))
    return (SchurElement(n, D, add_scaled({}, a_terms)),
            SchurElement(n, D, add_scaled({}, b_terms)))


@settings(max_examples=40, deadline=None)
@given(schur_factor_pairs())
def test_schur_mul_matches_hecke_route(pair):
    a, b = pair
    assert schur.schur_mul(a, b) == schur_mul_by_hecke(a, b)


def test_schur_suite_at_rank_three():
    """`run-suite schur --n 3 --D 3 --word-len 2`: every case is pinned."""
    cases = cli.suite_schur(cli.RunConfig(n=3, D=3, word_len=2, suite="schur"))
    assert {c["id"]: (c["status"], c["detail"]) for c in cases} == {
        "phi/action-consistency": ("pass", "4300/4300"),
        "phi/commutator":
            ("pass", "violations: []; scalar form [mu_i - mu_{i+1}]"),
        "phi/idempotents": ("pass", "violations: []"),
        "phi/serre": ("pass", "violations: []"),
        "phi/tau-equivariance":
            ("pass", "430 monomials, length <= 2; violations: []"),
        "phi/weight-shifts": ("pass", "violations: []"),
    }


def test_epsilon_sign_character():
    # the unit of the standard block maps to 1, a simple T to -1 via [s]
    d = fc.delta_matrix((1, 1))
    assert epsilon_sign(SchurElement.basis(d)) == ONE
    x = schur.phi_e(2, 2, 1, (1, 1))
    y = phi_f(2, 2, 1, (1, 1))
    prod = schur.schur_mul(x, y)
    # e f on the standard block evaluates through the sign character
    val = epsilon_sign(prod)
    assert val.bar() == val  # symmetric scalar


def epsilon_sign_per_term(x, rho_value):
    """The sign character as a direct sum over the T_w of the standard
    block, each term scaled by rho^k: the oracle for epsilon_degrees."""
    if x.D != x.n:
        raise ValueError("the sign character lives at D = n")
    std = FlagSymbol(x.n, x.n, tuple(range(1, x.n + 1)))
    total = LaurentScalar.zero()
    terms = x.blocks().get((std, std))
    if terms:
        h = block_to_hecke(terms, std, std)
        for w, c in h.terms.items():
            k, word = w.reduced_word()
            sign = LaurentScalar.const(-1 if len(word) % 2 else 1)
            total = total + c * sign * (rho_value ** k if k >= 0
                                        else inv_monomial(rho_value) ** (-k))
    return total


def epsilon_degrees_by_hecke(s):
    """epsilon_degrees on [s] through the Hecke algebra: the oracle for its
    closed form."""
    std = FlagSymbol(s.n, s.n, tuple(range(1, s.n + 1)))
    degrees = {}
    for w, c in block_to_hecke({s: ONE}, std, std).terms.items():
        k, word = w.reduced_word()
        c = -c if len(word) % 2 else c
        degrees[k] = degrees[k] + c if k in degrees else c
    return degrees


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_epsilon_degrees_closed_form_matches_hecke_route(n):
    std = [s for s in transfer.band_matrices(n, n, 3)
           if s.row_weight() == s.col_weight() == (1,) * n]
    assert len(std) == {1: 7, 2: 25, 3: 79, 4: 233}[n]
    for s in std:
        assert schur.epsilon_degrees(SchurElement.basis(s)) == \
            epsilon_degrees_by_hecke(s), s


def test_epsilon_degrees_keep_a_cancelled_degree():
    # two matrices of one rotation degree whose values cancel
    s, t = [s for s in _EPS_STD[2]
            if schur.epsilon_degrees(SchurElement.basis(s)).keys() == {1}][:2]
    (a,), (b,) = (schur.epsilon_degrees(SchurElement.basis(u)).values()
                  for u in (s, t))
    assert schur.epsilon_degrees(SchurElement(2, 2, {s: b, t: -a})) == \
        {1: LaurentScalar.zero()}


_EPS_POOL = {n: transfer.band_matrices(n, n, 2) for n in (2, 3)}
# the standard block lam = mu = (1, ..., n), where the character lives
_EPS_STD = {n: [s for s in _EPS_POOL[n]
                if s.row_weight() == s.col_weight() == (1,) * n]
            for n in (2, 3)}
_EPS_ROTATING = {n: [s for s in _EPS_STD[n]
                     if any(k != 0 for k in
                            schur.epsilon_degrees(SchurElement.basis(s)))]
                 for n in (2, 3)}
_coeffs = st.dictionaries(st.integers(-3, 3), st.integers(-3, 3),
                          max_size=3).map(LaurentScalar)


@st.composite
def sign_block_elements(draw):
    """Schur elements at D = n: terms of the standard block (some of them
    rotating, k != 0) and terms of other blocks."""
    n = draw(st.sampled_from((2, 3)))
    labels = draw(st.lists(st.one_of(st.sampled_from(_EPS_ROTATING[n]),
                                     st.sampled_from(_EPS_STD[n]),
                                     st.sampled_from(_EPS_POOL[n])),
                           min_size=1, max_size=6))
    terms = {}
    for s in labels:
        terms[s] = terms.get(s, LaurentScalar.zero()) + draw(_coeffs)
    return SchurElement(n, n, terms)


def test_rotating_pool_has_both_signs_of_k():
    for n in (2, 3):
        ks = {k for s in _EPS_ROTATING[n]
              for k in schur.epsilon_degrees(SchurElement.basis(s))}
        assert any(k > 0 for k in ks) and any(k < 0 for k in ks)


@settings(max_examples=60, deadline=None)
@given(sign_block_elements(), st.sampled_from((1, -1)), st.integers(-3, 3))
def test_epsilon_degrees_evaluate_to_sign(x, a, e):
    rho = LaurentScalar.monomial(a, e)
    degrees = schur.epsilon_degrees(x)
    graded = LaurentScalar.zero()
    for k, coeff in degrees.items():
        power = (rho ** k if k >= 0
                 else LaurentScalar.monomial(a, -e) ** (-k))
        graded = graded + coeff * power
    assert epsilon_sign(x, rho) == graded
    assert graded == epsilon_sign_per_term(x, rho)


_NOT_UNITS = (LaurentScalar.zero(), LaurentScalar.const(2),
              LaurentScalar({0: 1, 1: 1}), LaurentScalar.monomial(-3, 2),
              LaurentScalar({1: 1, -1: 1}))


@settings(max_examples=60, deadline=None)
@given(sign_block_elements(), st.sampled_from(_NOT_UNITS))
def test_epsilon_sign_rejects_non_units_as_before(x, rho):
    def outcome(f):
        try:
            return f(x, rho)
        except (ValueError, ArithmeticError) as err:
            return type(err), str(err)

    assert outcome(epsilon_sign) == outcome(epsilon_sign_per_term)


def test_epsilon_sign_rejects_non_unit_on_negative_rotation():
    x = SchurElement.basis(next(
        s for s in _EPS_ROTATING[2]
        if min(schur.epsilon_degrees(SchurElement.basis(s))) < 0))
    with pytest.raises(ArithmeticError):
        epsilon_sign(x, LaurentScalar.const(2))
    with pytest.raises(ValueError):
        epsilon_sign(x, LaurentScalar({0: 1, 1: 1}))


_MUL_POOL = {D: transfer.band_matrices(2, D, 2) for D in (1, 2, 3)}


@st.composite
def composable_basis_triples(draw):
    """[s1], [s2], [s3] at n = 2, D <= 3 with col(s1) = row(s2) and
    col(s2) = row(s3)."""
    pool = _MUL_POOL[draw(st.sampled_from((1, 2, 3)))]
    s1 = draw(st.sampled_from(pool))
    s2 = draw(st.sampled_from([s for s in pool
                               if s.row_weight() == s1.col_weight()]))
    s3 = draw(st.sampled_from([s for s in pool
                               if s.row_weight() == s2.col_weight()]))
    return tuple(SchurElement.basis(s) for s in (s1, s2, s3))


@settings(max_examples=40, deadline=None)
@given(composable_basis_triples())
def test_schur_mul_associative_on_basis_triples(triple):
    a, b, c = triple
    mul = schur.schur_mul
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


@st.composite
def schur_combinations(draw):
    """A Z[v, v^-1] combination of 1 to 4 basis matrices at n = 2, D <= 3."""
    D = draw(st.sampled_from((1, 2, 3)))
    mats = draw(st.lists(st.sampled_from(_MUL_POOL[D]), min_size=1,
                         max_size=4, unique=True))
    coeffs = st.dictionaries(st.integers(-3, 3), st.integers(-3, 3),
                             min_size=1, max_size=3).map(LaurentScalar)
    terms = {s: draw(coeffs) for s in mats}
    return SchurElement(2, D, {s: c for s, c in terms.items()
                               if not c.is_zero()})


@settings(max_examples=40, deadline=None)
@given(schur_combinations())
def test_tau_schur_involution_on_combinations(x):
    assert schur.tau_schur(schur.tau_schur(x)) == x


def test_offset_twist_multiplicative():
    # offset_sum is additive along products of basis elements
    a = schur.phi_e(2, 2, 1, (1, 1))
    b = phi_f(2, 2, 1, (1, 1))
    (sa, _), = a.terms.items()
    (sb, _), = b.terms.items()
    for s, _ in schur.schur_mul(a, b).terms.items():
        assert schur.offset_sum(s) == schur.offset_sum(sa) + schur.offset_sum(sb)


def test_schur_json_roundtrip():
    x = schur.phi_e(2, 3, 0, (2, 1)) + schur.phi_idempotent(2, 3, (1, 2))
    assert SchurElement.from_json(x.to_json()) == x
