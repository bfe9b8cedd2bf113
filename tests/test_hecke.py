"""Affine Hecke algebra: presentation, bar involution, coset sums."""

from hypothesis import given, settings, strategies as st

from affine_schur import affine_weyl as aw, flag_comb as fc, hecke, transfer
from affine_schur.hecke import HeckeElement
from affine_schur.laurent import LaurentScalar, ONE

from oracles import (bar_parabolic_per_term, coset_sum, mul_by_words,
                     young_generators)


def t(D, i):
    return HeckeElement.t(aw.simple(D, i))


def words(D, max_len=4):
    return st.lists(st.integers(1, D - 1), max_size=max_len)


def element_of(D, word):
    h = HeckeElement.unit(D)
    for i in word:
        h = hecke.mul(h, t(D, i))
    return h


def test_quadratic():
    D = 3
    vm2 = LaurentScalar.v(-2)
    for i in (1, 2):
        lhs = hecke.mul(t(D, i), t(D, i))
        rhs = t(D, i).scale(vm2 - ONE) + HeckeElement.unit(D).scale(vm2)
        assert lhs == rhs


def test_braid():
    D = 3
    assert (hecke.mul(hecke.mul(t(D, 1), t(D, 2)), t(D, 1))
            == hecke.mul(hecke.mul(t(D, 2), t(D, 1)), t(D, 2)))


def test_x_relations():
    D = 3
    vm2 = LaurentScalar.v(-2)
    x1, x2 = hecke.x_element(D, 1), hecke.x_element(D, 2)
    assert hecke.mul(x1, x2) == hecke.mul(x2, x1)
    assert hecke.mul(hecke.mul(t(D, 1), x1), t(D, 1)) == x2.scale(vm2)
    x3 = hecke.x_element(D, 3)
    assert hecke.mul(t(D, 1), x3) == hecke.mul(x3, t(D, 1))
    assert hecke.mul(x1, hecke.x_inverse(D, 1)) == HeckeElement.unit(D)


def test_tw_inverse():
    D = 3
    w = aw.from_word(D, 1, [1, 2])
    assert hecke.mul(HeckeElement.t(w), hecke.inverse_of_Tw(w)) == HeckeElement.unit(D)


@settings(max_examples=40)
@given(words(3), words(3))
def test_bar_antihomomorphic_on_products(u, w):
    D = 3
    hu, hw = element_of(D, u), element_of(D, w)
    assert hecke.bar(hecke.bar(hu)) == hu
    assert hecke.bar(hecke.mul(hu, hw)) == hecke.mul(hecke.bar(hu), hecke.bar(hw))


def test_bar_fixes_normalized_coset_sum():
    # bar(T_lambda) = v^{2 x_lambda} T_lambda, i.e. [lambda] is bar-fixed
    lam = fc.dominant_from_weight(2, 3, (2, 1))
    h = coset_sum(lam, lam)
    assert hecke.bar(h) == h.scale(LaurentScalar.v(2 * fc.x_stat(lam)))


def test_double_coset_sum_support():
    lam = fc.dominant_from_weight(2, 3, (2, 1))
    mu = fc.dominant_from_weight(2, 3, (1, 2))
    s = fc.matrix_of_pair(lam, mu)
    h = hecke.double_coset_sum(lam, mu, s)
    rep = fc.double_coset_min_rep(s)
    elems = aw.double_coset_elements(3, lam.values, rep, mu.values)
    assert set(h.terms) == set(elems)
    assert all(c == ONE for c in h.terms.values())


def bar_by_letters(h):
    """The letter-by-letter route, bar(T_w) = T_{rho^k} prod_j T_{s_ij}^{-1}
    over a reduced word of each term: the oracle for the memoized bar."""
    D = h.rank
    out = HeckeElement.zero(D)
    for w, c in h.terms.items():
        k, word = w.reduced_word()
        piece = HeckeElement.t(aw.rotation(D, k))
        for i in word:
            piece = hecke.mul_by_simple_inverse(piece, i)
        out = out + piece.scale(c.bar())
    return out


laurent_scalars = st.dictionaries(st.integers(-4, 4), st.integers(-3, 3),
                                  max_size=3).map(LaurentScalar)


@st.composite
def hecke_elements(draw):
    """Random h at D = 3 or 4: words of length <= 7 over s_0, ..., s_{D-1},
    times a rotation, with random Laurent coefficients."""
    D = draw(st.sampled_from((3, 4)))
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        w = aw.from_word(D, draw(st.integers(-2, 2)),
                         draw(st.lists(st.integers(0, D - 1), max_size=7)))
        terms[w] = terms.get(w, LaurentScalar.zero()) + draw(laurent_scalars)
    return HeckeElement(D, terms)


@settings(max_examples=80, deadline=None)
@given(hecke_elements())
def test_memoized_bar_matches_letter_route(h):
    assert hecke.bar(h) == bar_by_letters(h)
    assert hecke.bar(hecke.bar(h)) == h


def test_bar_of_young_sum():
    # bar(P_lam) = v^{2 l(w_lam)} P_lam, P_lam the sum of T_u over S_lam and
    # w_lam its longest element; S_lam depends on lam through its blocks only
    for D in range(1, 6):
        seen = set()
        for n in range(1, D + 1):
            for lam in fc.all_dominant(n, D):
                gens = tuple(young_generators(lam.values))
                if gens in seen:
                    continue
                seen.add(gens)
                young = aw.young_subgroup_elements(D, lam.values)
                p_lam = HeckeElement(D, {u: ONE for u in young})
                top = max(u.length() for u in young)
                assert hecke.bar(p_lam) == p_lam.scale(LaurentScalar.v(2 * top))
        assert len(seen) == 2 ** (D - 1)


def dominant_symbols(D):
    return [lam for n in (1, 2, 3) for lam in fc.all_dominant(n, D)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_young_sum_times_t_u(data):
    # P_lam T_u = v^{-2 (l(u) - l(w_q))} T_q, q = (lam)u and T_q the left-coset sum
    D = data.draw(st.sampled_from((2, 3, 4)))
    lam = data.draw(st.sampled_from(dominant_symbols(D)))
    u = aw.from_word(D, data.draw(st.integers(-2, 2)),
                     data.draw(st.lists(st.integers(0, D - 1), max_size=6)))
    q = lam.act(u)
    gap = u.length() - q.min_coset_rep().length()
    assert (hecke.mul(coset_sum(lam, lam), HeckeElement.t(u))
            == coset_sum(lam, q).scale(LaurentScalar.v(-2 * gap)))


@settings(max_examples=60, deadline=None)
@given(hecke_elements(), st.data())
def test_bar_parabolic_matches_bar_of_product(h, data):
    # bar(P_lam h) by the full route: multiply, bar every term, collapse
    # onto left cosets
    D = h.rank
    lam = data.draw(st.sampled_from(dominant_symbols(D)))
    full = hecke.bar(hecke.mul(coset_sum(lam, lam), h))
    young = aw.young_subgroup_elements(D, lam.values)
    expected = hecke.collapse(full.terms, lambda w: (lam.act(w), [u * w for u in young]),
                              lambda q: 0)
    assert hecke.bar_parabolic(lam, h) == expected


@settings(max_examples=60, deadline=None)
@given(hecke_elements(), st.data())
def test_bar_parabolic_matches_per_term_count(h, data):
    lam = data.draw(st.sampled_from(dominant_symbols(h.rank)))
    assert hecke.bar_parabolic(lam, h) == bar_parabolic_per_term(lam, h)


@settings(max_examples=60, deadline=None)
@given(hecke_elements(), laurent_scalars)
def test_mul_by_unit_matches_word_route(h, c):
    unit = HeckeElement.unit(h.rank)
    got = hecke.mul(h, unit)
    assert got == mul_by_words(h, unit) == h
    assert got.terms is not h.terms  # a copy, which the caller may change
    # a scaled unit takes the generic loop
    assert hecke.mul(h, unit.scale(c)) == mul_by_words(h, unit.scale(c))


@settings(max_examples=40, deadline=None)
@given(st.data(), laurent_scalars)
def test_double_coset_sum_with_coefficient_matches_scale(data, c):
    n = data.draw(st.integers(1, 3))
    D = data.draw(st.integers(1, 4))
    s = data.draw(st.sampled_from(transfer.band_matrices(n, D, 1)))
    lam, mu = fc.block_of(s)
    assert (hecke.double_coset_sum(lam, mu, s, c)
            == hecke.double_coset_sum(lam, mu, s).scale(c))
