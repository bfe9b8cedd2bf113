"""Group structure of periodic permutations: lengths, words, cosets."""

import itertools
import math
import pickle
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from affine_schur import affine_weyl as aw, flag_comb as fc, transfer
from oracles import (double_coset_by_bfs, length as length_by_intervals,
                     min_double_coset_rep_by_descent, young_generators,
                     young_subgroup_by_bfs)


def random_elements(D, max_word=6):
    return st.tuples(st.integers(-2, 2),
                     st.lists(st.integers(0, D - 1), max_size=max_word)).map(
        lambda t: aw.from_word(D, t[0], t[1]))


def test_simple_and_rotation():
    s1 = aw.simple(3, 1)
    assert s1.length() == 1 and s1 * s1 == aw.identity(3)
    rho = aw.rotation(3)
    assert rho.length() == 0
    assert rho.rotation_power() == 1
    assert rho * rho.inverse() == aw.identity(3)
    s0 = aw.simple(3, 0)
    assert s0.length() == 1
    # rho conjugates the simple reflections cyclically
    assert rho * aw.simple(3, 1) * rho.inverse() == aw.simple(3, 2)


def test_translation_length():
    # the translation by a dominant-ordered vector mu has length
    # sum_{i<j} |mu_i - mu_j| in the Coxeter part times rotations; here
    # just freeze small windows
    t = aw.translation(3, (1, 0, 0))
    assert t.window == (4, 2, 3)
    assert (t * aw.translation(3, (0, 1, 0))).rotation_power() is None


@given(random_elements(3))
def test_reduced_word_roundtrip(w):
    k, word = w.reduced_word()
    assert len(word) == w.length()
    assert aw.from_word(3, k, word) == w


@given(random_elements(4), random_elements(4))
def test_length_subadditive(x, y):
    assert (x * y).length() <= x.length() + y.length()
    assert abs(x.length() - y.length()) <= (x * y.inverse()).length()


@given(random_elements(3))
def test_inverse_length(w):
    assert w.inverse().length() == w.length()


@st.composite
def shifted_windows(draw):
    """Any element at D <= 6: a permutation of [1, D] with each entry
    shifted by a multiple of D."""
    D = draw(st.integers(1, 6))
    perm = draw(st.permutations(range(1, D + 1)))
    shifts = draw(st.lists(st.integers(-3, 3), min_size=D, max_size=D))
    return aw.AffinePermutation(D, tuple(v + D * m for v, m in zip(perm, shifts)))


@settings(max_examples=300)
@given(shifted_windows())
def test_length_matches_interval_count(w):
    assert w.length() == length_by_intervals(w)


def test_length_of_rotations_and_simples():
    for D in range(1, 7):
        for k in range(-2 * D, 2 * D + 1):
            assert aw.rotation(D, k).length() == 0
        if D > 1:
            assert all(aw.simple(D, i).length() == 1 for i in range(D))


def test_young_subgroup():
    # |S_lambda| is the product of the part factorials
    elems = aw.young_subgroup_elements(4, (1, 1, 2, 2))
    assert len(elems) == math.factorial(2) * math.factorial(2)
    assert young_generators((1, 1, 2, 2)) == [1, 3]
    assert elems == young_subgroup_by_bfs(4, (1, 1, 2, 2))


def test_min_coset_rep():
    # the minimal representative has no descent inside the stabilizer
    w = aw.min_coset_rep(2, (1, 1, 2), (2, 1, 1))
    assert w.length() == min(u.length() for u in
                             (y * w for y in aw.young_subgroup_elements(3, (1, 1, 2))))


def test_double_coset_elements():
    lam = mu = (1, 1, 2)
    rep = min_double_coset_rep_by_descent(3, lam, aw.simple(3, 1), mu)
    elems = aw.double_coset_elements(3, lam, rep, mu)
    assert elems == double_coset_by_bfs(3, lam, rep, mu)
    assert rep in elems
    assert all(rep.length() <= u.length() for u in elems)
    assert len(set(elems)) == len(elems)


def young_by_blocks(D, lam):
    """S_lambda, freshly: the permutations of [1, D] that keep each block of
    equal values of lambda."""
    blocks = [[j for j in range(1, D + 1) if lam[j - 1] == v] for v in sorted(set(lam))]
    out = set()
    for perms in itertools.product(*(itertools.permutations(b) for b in blocks)):
        window = [0] * D
        for block, perm in zip(blocks, perms):
            for j, pj in zip(block, perm):
                window[j - 1] = pj
        out.add(aw.AffinePermutation(D, tuple(window)))
    return out


def by_length(elems):
    return tuple(sorted(elems, key=lambda w: (length_by_intervals(w), w.window)))


@st.composite
def blocks_and_elements(draw):
    """(n, D, lambda, mu, w): dominant windows with values in [1, n] and w a
    word of length <= 7 over s_0, ..., s_{D-1} times a rotation."""
    n = draw(st.integers(2, 3))
    D = draw(st.integers(3, 4))
    dominant = st.lists(st.integers(1, n), min_size=D, max_size=D).map(
        lambda v: tuple(sorted(v)))
    w = aw.from_word(D, draw(st.integers(-2, 2)),
                     draw(st.lists(st.integers(0, D - 1), max_size=7)))
    return n, D, draw(dominant), draw(dominant), w


@settings(max_examples=60, deadline=None)
@given(blocks_and_elements())
def test_cached_cosets_match_fresh_enumeration(case):
    n, D, lam, mu, w = case
    assert aw.young_subgroup_elements(D, lam) == by_length(young_by_blocks(D, lam))
    assert aw.young_subgroup_elements(D, list(lam)) == aw.young_subgroup_elements(D, lam)
    fresh = {u * w * y for u in young_by_blocks(D, lam) for y in young_by_blocks(D, mu)}
    rep = min_double_coset_rep_by_descent(D, lam, w, mu)
    assert rep == min(fresh, key=lambda u: u.length())
    assert aw.double_coset_elements(D, lam, rep, mu) == by_length(fresh)
    assert aw.double_coset_elements(D, list(lam), rep, list(mu)) == by_length(fresh)
    lam_f, mu_f = fc.FlagSymbol(n, D, lam), fc.FlagSymbol(n, D, mu)
    s = fc.matrix_of_pair(lam_f.act(w), mu_f)
    assert fc.block_of(s) == (lam_f, mu_f)
    assert fc.double_coset_min_rep(s) == rep


@lru_cache(maxsize=None)
def _band_matrices(n, D, band):
    return transfer.band_matrices(n, D, band)


@st.composite
def band_matrices_and_elements(draw):
    """(s, w): a band matrix s with n = 2..4, D <= 5, band <= 2, and an
    element w of its double coset, drawn as u * d * y with d the minimal
    representative read off the flag symbol and u, y drawn from the two
    Young subgroups."""
    n, D = draw(st.integers(2, 4)), draw(st.integers(1, 5))
    s = draw(st.sampled_from(_band_matrices(n, D, draw(st.integers(1, 2)))))
    lam, mu = fc.block_of(s)
    d = fc.symbol_of_matrix(s).min_coset_rep()
    u = draw(st.sampled_from(sorted(young_by_blocks(D, lam.values), key=lambda x: x.window)))
    y = draw(st.sampled_from(sorted(young_by_blocks(D, mu.values), key=lambda x: x.window)))
    return s, u * d * y


@settings(max_examples=80, deadline=None)
@given(band_matrices_and_elements())
def test_built_cosets_match_search_on_band_matrices(case):
    s, w = case
    D = s.D
    lam, mu = fc.block_of(s)
    assert fc.matrix_of_pair(lam.act(w), mu) == s
    fresh = {u * w * y for u in young_by_blocks(D, lam.values)
             for y in young_by_blocks(D, mu.values)}
    rep = fc.double_coset_min_rep(s)
    shortest = min(u.length() for u in fresh)
    assert [u for u in fresh if u.length() == shortest] == [rep]
    assert rep == min_double_coset_rep_by_descent(D, lam.values, w, mu.values)
    for dominant in (lam, mu):
        assert (aw.young_subgroup_elements(D, dominant.values)
                == young_subgroup_by_bfs(D, dominant.values))
    assert (aw.double_coset_elements(D, lam.values, rep, mu.values)
            == double_coset_by_bfs(D, lam.values, rep, mu.values) == by_length(fresh))


@st.composite
def valid_windows(draw, D):
    """A permutation of 1..D shifted entrywise by multiples of D, so that
    every rotation class occurs."""
    perm = draw(st.permutations(range(1, D + 1)))
    shifts = draw(st.lists(st.integers(-3, 3), min_size=D, max_size=D))
    return tuple(p + D * m for p, m in zip(perm, shifts))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_trusted_product_and_inverse_match_validating_route(data):
    D = data.draw(st.integers(1, 5))
    a = aw.AffinePermutation(D, data.draw(valid_windows(D)))
    b = aw.AffinePermutation(D, data.draw(valid_windows(D)))
    prod = aw.AffinePermutation(D, tuple(a(b(k)) for k in range(1, D + 1)))
    assert a * b == prod and hash(a * b) == hash(prod)
    # a(k + mD) = a(k) + mD, so a^{-1}(j) = k + j - a(k) for the k in 1..D
    # with a(k) = j mod D
    inv = aw.AffinePermutation(D, tuple(k + j - a(k) for j in range(1, D + 1)
                                        for k in range(1, D + 1) if (a(k) - j) % D == 0))
    assert a.inverse() == inv and hash(a.inverse()) == hash(inv)
    assert a * inv == aw.identity(D) == inv * a


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_permutation_hash_is_the_cached_dataclass_hash(data):
    D = data.draw(st.integers(1, 5))
    window = data.draw(valid_windows(D))
    a = aw.AffinePermutation(D, window)
    b = a * aw.identity(D)  # built without validation
    assert a is not b and a._hash is None and b._hash is None
    for w in (a, b):
        assert hash(w) == hash((D, window)) == w._hash
    assert a == b and {a: 0, b: 1} == {a: 1}
    assert repr(a) == repr(b) == f"AffinePermutation(D={D}, {list(window)})"
    for w in (a, b, aw.AffinePermutation(D, window)):
        back = pickle.loads(pickle.dumps(w))
        assert back == a and hash(back) == hash(a) and repr(back) == repr(a)
