"""Flag symbols, periodic matrices, and their statistics."""

import pytest
from hypothesis import given, strategies as st

from affine_schur import affine_weyl as aw, flag_comb as fc, schur, transfer
from affine_schur.flag_comb import FlagSymbol, PeriodicMatrix
from affine_schur.laurent import LaurentScalar

from oracles import act_per_position


symbols = st.tuples(st.integers(2, 3), st.integers(1, 4)).flatmap(
    lambda nd: st.lists(st.integers(-2, 2 * nd[0]),
                        min_size=nd[1], max_size=nd[1]).map(
        lambda vals: FlagSymbol(nd[0], nd[1], tuple(vals))))


def is_dominant(p: FlagSymbol) -> bool:
    """Window weakly increasing with values in [1, n]."""
    vals = p.values
    return (1 <= vals[0] and vals[-1] <= p.n
            and all(a <= b for a, b in zip(vals, vals[1:])))


def test_xstat_example():
    assert fc.x_stat(FlagSymbol(2, 2, (2, 1))) == 1
    assert fc.x_stat(FlagSymbol(2, 2, (1, 2))) == 0


def test_dominant_xstat_longest_element():
    # on dominant symbols x equals the length of the longest element of
    # the Young subgroup, sum of m(m-1)/2 over the multiplicities
    for n, D in ((2, 3), (3, 4)):
        for lam in fc.all_dominant(n, D):
            expected = sum(m * (m - 1) // 2 for m in lam.weight())
            assert fc.x_stat(lam) == expected


@given(symbols)
def test_symbol_roundtrips(p):
    assert FlagSymbol.from_text(p.to_text()) == p
    assert sum(p.weight()) == p.D


def elements_of_rank(D):
    """Any element of rank D: a permutation of [1, D] with each entry
    shifted by a multiple of D."""
    return st.tuples(st.permutations(range(1, D + 1)),
                     st.lists(st.integers(-2, 2), min_size=D, max_size=D)).map(
        lambda t: aw.AffinePermutation(D, tuple(v + D * m for v, m in zip(*t))))


@given(symbols.flatmap(lambda p: st.tuples(st.just(p), elements_of_rank(p.D),
                                           elements_of_rank(p.D))))
def test_act_matches_per_position_route(case):
    p, w, w2 = case
    assert p.act(w) == act_per_position(p, w)
    # a right action: ((p)w)w' = (p)(ww')
    assert p.act(w).act(w2) == p.act(w * w2)


@given(symbols)
def test_dominant_rep_orbit(p):
    lam = p.dominant_rep()
    assert is_dominant(lam)
    assert lam.weight() == p.weight()
    w = p.min_coset_rep()
    assert lam.act(w) == p


def test_matrix_weights():
    lam = FlagSymbol(2, 3, (1, 1, 2))
    mu = FlagSymbol(2, 3, (1, 2, 2))
    s = fc.matrix_of_pair(lam, mu)
    assert s.row_weight() == lam.weight()
    assert s.col_weight() == mu.weight()
    assert fc.block_of(s) == (lam, mu)
    assert fc.symbol_of_matrix(s).dominant_rep() == lam


def test_delta_matrix_and_generators():
    d = fc.delta_matrix((2, 1))
    assert fc.y_stat(d) == 0
    e_mat, f_mat = fc.generator_matrices((2, 1), 1, 1)
    assert e_mat.row_weight() == (2, 1)
    # e lowers a residue-2 entry into residue 1 on the column side
    assert e_mat.col_weight() == (1, 2)
    assert f_mat == e_mat.transpose() or f_mat.col_weight() == (2, 1)


@pytest.mark.parametrize("n, D", [(2, 3), (3, 3), (3, 4), (4, 2)])
def test_generator_matrices_vanish_exactly_below_k(n, D):
    # e_i^(k) 1_lam needs k units in the class that e_i raises
    for wt in fc.weights(n, D):
        for i in range(n):
            up = fc.residue_classes(n, i)[0]
            for k in range(D + 2):
                e_mat, f_mat = fc.generator_matrices(wt, i, k)
                if wt[up] < k:
                    assert e_mat is None and f_mat is None
                else:
                    assert f_mat == e_mat.transpose()
                    assert e_mat.row_weight() == wt
                    assert e_mat.lookup(up + 1, up + 2) >= k


def test_aperiodicity():
    assert fc.is_aperiodic(PeriodicMatrix.make(2, 2, {(1, 1): 1, (2, 2): 1}))
    assert not fc.is_aperiodic(PeriodicMatrix.make(2, 2, {(1, 2): 1, (2, 3): 1}))


def test_matrix_normalization():
    a = PeriodicMatrix.make(2, 2, {(1, 1): 1, (2, 2): 1})
    b = PeriodicMatrix.make(2, 2, {(3, 3): 1, (4, 4): 1})
    assert a == b
    with pytest.raises(ValueError):
        PeriodicMatrix.make(2, 2, {(1, 1): 1})  # mass 1 != D


@st.composite
def matrix_listings(draw):
    """Two listings of one periodic matrix: the same cells in another
    order, each cell moved to a strip of its own choosing."""
    n = draw(st.integers(1, 3))
    cells = draw(st.dictionaries(
        st.tuples(st.integers(1, n), st.integers(-2, 2 * n + 2)),
        st.integers(1, 3), min_size=1, max_size=4))
    shifts = draw(st.lists(st.integers(-2, 2), min_size=len(cells),
                           max_size=len(cells)))
    moved = [((i + m * n, j + m * n), val)
             for ((i, j), val), m in zip(cells.items(), shifts)]
    moved = draw(st.permutations(moved))
    return n, sum(cells.values()), list(cells.items()), moved


@given(matrix_listings())
def test_matrix_hash_agrees_with_equality(listings):
    n, D, cells, moved = listings
    a = PeriodicMatrix.make(n, D, cells)
    hash(a)  # a caches its hash; the directly built c is still fresh
    b = PeriodicMatrix.make(n, D, moved)
    c = PeriodicMatrix(n, D, a.entries)
    assert c is not a and c._hash is None
    assert a == b == c and hash(a) == hash(b) == hash(c)
    assert hash(a) == hash((n, D, a.entries))  # the dataclass hash
    assert repr(a) == repr(b) and a.to_json() == b.to_json()
    assert "_hash" not in repr(a) and "_hash" not in str(a.to_json())
    other = PeriodicMatrix.make(n, D + 1, cells + [((1, 1), 1)])
    assert other != a and {a: 0, b: 1, other: 2} == {a: 1, other: 2}


@given(symbols)
def test_symbol_x_stat_cache_agrees_with_a_fresh_count(p):
    fresh = FlagSymbol(p.n, p.D, p.values)
    before = (repr(p), p.to_text(), hash(p))
    assert fc.x_stat(p) == fc._count_x_stat(fresh)
    assert fresh._x_stat is None and p._x_stat == fc.x_stat(p)
    assert (repr(p), p.to_text(), hash(p)) == before
    assert p == fresh and repr(p) == repr(fresh) and p.to_text() == fresh.to_text()
    assert hash(p) == hash(fresh) == hash((p.n, p.D, p.values))  # the dataclass hash
    assert "_x_stat" not in repr(p)
    other = FlagSymbol(p.n, p.D + 1, p.values + (1,))
    assert other != p and {p: 0, fresh: 1, other: 2} == {p: 1, other: 2}


@given(symbols, matrix_listings())
def test_make_interns_labels_and_caches_their_statistics(p, listings):
    n, D, cells, moved = listings
    made = FlagSymbol.make(p.n, p.D, list(p.values))
    assert made == p and made is FlagSymbol.make(p.n, p.D, p.values)
    assert made is FlagSymbol.from_text(p.to_text())
    twin = FlagSymbol(p.n, p.D, p.values)
    lam = made.dominant_rep()
    assert lam is made.dominant_rep() and lam is lam.dominant_rep()
    assert lam == twin.dominant_rep() and is_dominant(lam)
    assert made.min_coset_rep() is made.min_coset_rep()
    assert made.min_coset_rep() == aw.min_coset_rep(p.n, lam.values, p.values)
    assert fc.x_stat(made) == fc._count_x_stat(twin)
    s = PeriodicMatrix.make(n, D, cells)
    assert s is PeriodicMatrix.make(n, D, moved)
    assert s is PeriodicMatrix.make(n, D, dict(reversed(moved)))
    assert fc.y_stat(s) == fc._count_y_stat(PeriodicMatrix(n, D, s.entries))
    assert s._y_stat == fc.y_stat(s)


@given(symbols, matrix_listings())
def test_make_rejects_invalid_labels_every_time(p, listings):
    n, D, cells, _ = listings
    tables = (dict(fc._SYMBOLS), dict(fc._MATRICES))
    for _ in range(2):
        with pytest.raises(ValueError, match="window length"):
            FlagSymbol.make(p.n, p.D, p.values + (1,))
        with pytest.raises(ValueError, match="total mass"):
            PeriodicMatrix.make(n, D + 1, cells)
    assert (fc._SYMBOLS, fc._MATRICES) == tables


def test_enumerate_window():
    syms = fc.enumerate_flag_symbols(2, 2, 1, 4)
    assert len(syms) == 16
    assert len(set(syms)) == 16
    assert all(1 <= v <= 4 for p in syms for v in p.values)


def test_order_hint_consistency():
    d = fc.delta_matrix((2, 2))
    e_mat, _ = fc.generator_matrices((2, 2), 1, 1)
    # the generator matrix dominates its own diagonal shift in the
    # standard order used for triangularity reports
    assert fc.order_hint(d, d) == "equal"
    assert fc.order_hint(e_mat, e_mat) == "equal"


def test_order_hint_rejects_a_true_lower_term():
    # u is a lower term of tau([t]), with coefficient v - v^-1, yet
    # u_22 = 0 < t_22 = 1: the diagonal test is not necessary
    t = PeriodicMatrix.make(2, 3, {(1, 3): 1, (2, 2): 1, (2, 4): 1})
    u = PeriodicMatrix.make(2, 3, {(1, 2): 1, (2, 3): 1, (2, 4): 1})
    tau_t = dict(schur._tau_terms(t))
    assert u != t and tau_t[u] == LaurentScalar({1: 1, -1: -1})
    assert u.lookup(2, 2) < t.lookup(2, 2)
    assert fc.order_hint(u, t) == "definitely-not-leq"


def left_cosets_by_enumeration(s) -> tuple:
    """The route that the S_mu-orbit replaced: enumerate the whole double
    coset and keep the shortest element of each left S_lam-coset, in the
    (length, window) order of the enumeration."""
    lam, mu = fc.block_of(s)
    rep = fc.double_coset_min_rep(s)
    reps = {}
    for w in aw.double_coset_elements(s.D, lam.values, rep, mu.values):
        q = lam.act(w)
        if q not in reps or w.length() < reps[q].length():
            reps[q] = w
    return tuple(reps.items())


@pytest.mark.parametrize("n, D, band", [(2, 2, 2), (2, 3, 2), (2, 4, 1), (3, 3, 2), (3, 4, 1)])
def test_left_cosets_match_enumeration(n, D, band):
    for s in transfer.band_matrices(n, D, band):
        assert fc.left_cosets(s) == left_cosets_by_enumeration(s)


@st.composite
def labels_of_one_shape(draw):
    """A list of symbols and a list of matrices, all of one (n, D)."""
    n, D = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    windows = st.lists(st.integers(-2, 2 * n), min_size=D, max_size=D)
    cells = st.lists(st.tuples(st.integers(1, n), st.integers(-2, 2 * n + 2)),
                     min_size=D, max_size=D)
    symbols = [FlagSymbol.make(n, D, w)
               for w in draw(st.lists(windows, max_size=8))]
    matrices = [PeriodicMatrix.make(n, D, [(ij, 1) for ij in c])
                for c in draw(st.lists(cells, max_size=8))]
    return symbols, matrices


@given(labels_of_one_shape())
def test_labels_of_one_shape_order_by_window_and_entries(labels):
    symbols, matrices = labels
    assert sorted(symbols) == sorted(symbols, key=lambda p: p.values)
    assert sorted(matrices) == sorted(matrices, key=lambda s: s.entries)
    for p in symbols:
        fc.x_stat(p)  # a cached field takes no part in the order
        fresh = FlagSymbol(p.n, p.D, p.values)
        assert not p < fresh and not fresh < p and p <= fresh
