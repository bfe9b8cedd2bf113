"""Bar-involution solver and the two canonical bases."""

import inspect
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from affine_schur import (affine_weyl as aw, canonical, cli, flag_comb as fc, hecke,
                          schur, tmodule, transfer)
from affine_schur.flag_comb import FlagSymbol, PeriodicMatrix
from affine_schur.laurent import LaurentScalar, ONE
from affine_schur.schur import SchurElement

from oracles import hecke_to_matrix_terms, tau_schur_by_parabolic_bar


def test_module_basis_frozen_example():
    # b_{(2,1)} = [(2,1)] + v [(1,2)]
    exp = canonical.canonical_tmodule(FlagSymbol(2, 2, (2, 1)))
    assert exp.as_dict() == {FlagSymbol(2, 2, (2, 1)): ONE,
                             FlagSymbol(2, 2, (1, 2)): LaurentScalar.v(1)}


def test_dominant_is_bar_fixed_alone():
    # dominant standard vectors are already canonical
    for lam in fc.all_dominant(2, 3):
        exp = canonical.canonical_tmodule(lam)
        assert exp.as_dict() == {lam: ONE}


def test_solver_is_idempotent_and_tau_fixed():
    sys_ = canonical.tmodule_system()
    for p in fc.enumerate_flag_symbols(2, 2, 1, 4):
        vec = canonical.canonical_tmodule_vector(p, sys_)
        assert tmodule.tau(vec) == vec
        assert vec.coeff(p) == ONE


def test_schur_canonical_unitriangular(tsys):
    d = fc.delta_matrix(fc.dominant_from_weight(2, 2, (1, 1)))
    exp = canonical.canonical_schur(d, tsys)
    assert exp.coeff(d) == ONE
    for s, c in exp.terms:
        if s != d:
            assert c.in_v_times_z_of_v()


def test_kl_coefficients_nonnegative(tsys):
    for s in transfer.band_matrices(2, 2, 2):
        exp = canonical.canonical_schur(s, tsys)
        for q, _ in exp.terms:
            for i, dim in canonical.kl_coefficients(exp, q, fc.y_stat):
                assert dim > 0 and isinstance(i, int)


def test_canonical_suite():
    cfg = cli.RunConfig(n=2, D=2, window=4, band=2)
    cases = cli.suite_canonical(cfg)
    assert cases and all(c["status"] == "pass" for c in cases), \
        [c for c in cases if c["status"] != "pass"]


def test_solver_order_independent():
    # expansions agree when labels are solved in opposite orders
    labels = fc.enumerate_flag_symbols(2, 2, 1, 4)
    a = canonical.tmodule_system()
    b = canonical.tmodule_system()
    out_a = {p: canonical.canonical_tmodule(p, a).terms for p in labels}
    out_b = {p: canonical.canonical_tmodule(p, b).terms
             for p in reversed(labels)}
    assert out_a == out_b


def test_unitriangularity_violation_detected():
    bad = canonical.BarSystem(
        tau_fn=lambda x: {x: LaurentScalar.v(1)}, grade=len, sort_key=lambda x: x)
    with pytest.raises(ArithmeticError):
        bad.tau_expand("a")


def test_off_diagonal_term_of_equal_grade_detected():
    # tau([ab]) = [ab] + (v - v^-1)[ba]: both labels have grade 2, so the
    # term at "ba" is not lower, even though the diagonal coefficient is 1
    gamma = LaurentScalar({1: 1, -1: -1})
    bad = canonical.BarSystem(
        tau_fn=lambda x: {x: ONE, x[::-1]: gamma} if x == "ab" else {x: ONE},
        grade=len, sort_key=lambda x: x)
    with pytest.raises(ArithmeticError, match="grade 2 >= 2"):
        bad.tau_expand("ab")
    with pytest.raises(ArithmeticError):
        canonical.solve_canonical(bad, "ab")
    assert bad.tau_expand("ba") == {"ba": ONE}


def test_export_and_cache(tmp_path):
    exp = canonical.canonical_tmodule(FlagSymbol(2, 2, (2, 1)))
    payload = canonical.expansion_to_json(exp)
    text = json.dumps(payload, sort_keys=True)
    assert json.loads(text) == payload
    cache = canonical.CanonicalCache(tmp_path)
    cache.store(2, 2, (1, 1), None, "k", payload)
    assert cache.load(2, 2, (1, 1), None)["k"] == payload


def test_cache_store_failure_keeps_previous_file(tmp_path):
    cache = canonical.CanonicalCache(tmp_path)
    cache.store(2, 2, (1, 1), None, "a", {"x": 1})
    (path,) = tmp_path.iterdir()
    before = path.read_text()
    # "z" sorts last, so serialization fails after the other keys are written
    with pytest.raises(TypeError):
        cache.store(2, 2, (1, 1), None, "b", {"x": 2, "z": object()})
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_text() == before
    assert cache.load(2, 2, (1, 1), None) == {"a": {"x": 1}}


# ---------------------------------------------------------------------------
# The recompute route: the solver before the discrepancy was kept
# incrementally, applying tau to the whole of b after every correction.


def tau_vector_recompute(system, vec: dict) -> dict:
    """tau of a vector given in the standard basis (antilinear)."""
    out = {}
    for x, c in vec.items():
        cb = c.bar()
        for y, d in system.tau_expand(x).items():
            s = out.get(y, LaurentScalar.zero()) + cb * d
            if s.is_zero():
                out.pop(y, None)
            else:
                out[y] = s
    return out


def sub_recompute(a: dict, b: dict) -> dict:
    out = dict(a)
    for x, c in b.items():
        s = out.get(x, LaurentScalar.zero()) - c
        if s.is_zero():
            out.pop(x, None)
        else:
            out[x] = s
    return out


def solve_canonical_recompute(system, label, cache=None):
    """The recursive solver loop; cache holds solved labels (not the
    system's own, so the fast solver's results are never read)."""
    cache = {} if cache is None else cache

    def canon(x) -> dict:
        got = cache.get(x)
        if got is not None:
            return got
        b = {x: ONE}
        while True:
            d = sub_recompute(tau_vector_recompute(system, b), b)
            if not d:
                break
            y = canonical._max_label(system, set(d))
            gamma = d[y]
            assert gamma.bar() == -gamma
            p = gamma.positive_part()
            assert p - p.bar() == gamma
            by = canon(y)
            for z, c in by.items():
                s = b.get(z, LaurentScalar.zero()) + p * c
                if s.is_zero():
                    b.pop(z, None)
                else:
                    b[z] = s
        cache[x] = b
        return b

    b = canon(label)
    return canonical.CanonicalExpansion(
        label, tuple(sorted(b.items(), key=lambda t: system.sort_key(t[0]))))


@pytest.mark.parametrize("make_system, labels", [
    (canonical.tmodule_system,
     lambda: fc.enumerate_flag_symbols(2, 3, 1, 5)),
    (lambda: canonical.schur_system(2, 3), lambda: transfer.band_matrices(2, 3, 2)),
    (lambda: canonical.schur_system(3, 3), lambda: transfer.band_matrices(3, 3, 1)),
], ids=["tmodule-2-3-window5", "schur-2-3-band2", "schur-3-3-band1"])
def test_incremental_solver_matches_recompute_route(make_system, labels):
    fast, slow = make_system(), make_system()
    cache = {}
    for x in labels():
        assert canonical.solve_canonical(fast, x) == \
            solve_canonical_recompute(slow, x, cache)


_ORDER_LABELS = fc.enumerate_flag_symbols(2, 2, 1, 4)
_ORDER_MATRICES = transfer.band_matrices(2, 2, 2)


@settings(max_examples=15, deadline=None)
@given(st.permutations(range(len(_ORDER_LABELS))),
       st.permutations(range(len(_ORDER_MATRICES))))
def test_solver_random_order_matches_recompute_route(order_t, order_s):
    for make_system, labels, order in (
            (canonical.tmodule_system, _ORDER_LABELS, order_t),
            (lambda: canonical.schur_system(2, 2), _ORDER_MATRICES, order_s)):
        fast, slow = make_system(), make_system()
        for k in order:
            x = labels[k]
            assert canonical.solve_canonical(fast, x) == \
                solve_canonical_recompute(slow, x)


def test_solver_chain_deeper_than_recursion_limit():
    # b_k = [k] + v[k-1] (b_0 = [0]) is tau-fixed, which forces
    # tau([k]) = [k] + v[k-1] - v^-1 tau([k-1]); every b_k then needs
    # b_{k-1} first, a chain of N labels
    v, vinv = LaurentScalar.v(1), LaurentScalar.v(-1)
    taus = {0: {0: ONE}}
    limit = len(inspect.stack(0)) + 60
    N = limit + 20
    for k in range(1, N + 1):
        t = {j: -vinv * c for j, c in taus[k - 1].items()}
        t[k - 1] = t[k - 1] + v
        t[k] = ONE
        taus[k] = t
    system = canonical.BarSystem(tau_fn=lambda k: taus[k], grade=lambda k: k,
                                 sort_key=lambda k: -k)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        with pytest.raises(RecursionError):
            solve_canonical_recompute(system, N)
        exp = canonical.solve_canonical(system, N)
    finally:
        sys.setrecursionlimit(old)
    assert exp.as_dict() == {N: ONE, N - 1: v}
    for k in range(1, N):
        assert system._canon[k] == {k: ONE, k - 1: v}
    assert system._canon[0] == {0: ONE}


def tau_schur_by_double_cosets(s: PeriodicMatrix) -> dict:
    """The route that the parabolic bar replaced: bar the whole double-coset
    sum of [s] and collapse the T_w basis back onto double cosets."""
    lam, mu = canonical.block_of(s)
    h = hecke.bar(hecke.double_coset_sum(lam, mu, s).scale(
        LaurentScalar.v(fc.y_stat(s))))
    twist = LaurentScalar.v(-2 * fc.x_stat(mu))
    return {t: twist * c for t, c in hecke_to_matrix_terms(lam, mu, h).items()}


# every band matrix at these (n, D, band) is checked against the Hecke routes
BAND_SIZES = [(2, 2, 2), (2, 3, 2), (2, 4, 1), (3, 3, 2), (3, 4, 1)]


@pytest.mark.parametrize("n, D, band", BAND_SIZES)
def test_tau_schur_matches_double_coset_route(n, D, band):
    for s in transfer.band_matrices(n, D, band):
        assert dict(canonical._tau_schur_terms(s)) == tau_schur_by_double_cosets(s)


@pytest.mark.parametrize("n, D, band", [(2, 3, 2), (3, 3, 1), (2, 4, 1)])
def test_tau_schur_from_module_memo_matches_parabolic_bar(n, D, band):
    for s in transfer.band_matrices(n, D, band):
        assert dict(canonical._tau_schur_terms(s)) == tau_schur_by_parabolic_bar(s)


def test_tau_tmodule_label_reads_memo_and_hands_out_copies():
    system = canonical.tmodule_system()
    for p in fc.enumerate_flag_symbols(2, 3, 1, 4):
        fresh = dict(tmodule.tau(tmodule.ModuleVector.basis(p)).terms)
        got = system.tau_expand(p)
        assert got == fresh
        got.clear()
        got[p] = LaurentScalar.v(5)
        assert system.tau_expand(p) == fresh


def test_tau_schur_memo_matches_fresh_and_hands_out_copies():
    system = canonical.schur_system(2, 3)
    for s in transfer.band_matrices(2, 3, 2):
        fresh = tau_schur_by_double_cosets(s)
        got = system.tau_expand(s)
        assert got == fresh
        assert list(got) == list(fresh)
        got.clear()
        got[s] = LaurentScalar.v(5)
        assert system.tau_expand(s) == fresh


def test_block_of_memo_matches_fresh_computation():
    for s in transfer.band_matrices(2, 3, 2):
        fresh = (fc.dominant_from_weight(2, 3, s.row_weight()),
                 fc.dominant_from_weight(2, 3, s.col_weight()))
        assert canonical.block_of(s) == fresh
        assert canonical.block_of(s) is canonical.block_of(s)


# every symbol with window values in [1, 2n] at these (n, D) is checked
SYMBOL_SIZES = [(n, D) for n in (2, 3) for D in range(1, 5)]


def _longest_length(elements) -> int:
    return max(w.length() for w in elements)


@pytest.mark.parametrize("n, D", SYMBOL_SIZES)
def test_x_stat_is_coset_length(n, D):
    # x_stat(p) = x_stat(lam) + l(w_p), and x_stat(lam) is the length of
    # the longest element of S_lam
    for p in fc.enumerate_flag_symbols(n, D, 1, 2 * n):
        lam = p.dominant_rep()
        assert fc.x_stat(lam) == _longest_length(
            aw.young_subgroup_elements(D, lam.values))
        assert fc.x_stat(p) == fc.x_stat(lam) + p.min_coset_rep().length()


@pytest.mark.parametrize("n, D, band", BAND_SIZES)
def test_y_stat_is_double_coset_length(n, D, band):
    # y_stat(s) = l(longest element of the double coset of s) - l(w_mu)
    for s in transfer.band_matrices(n, D, band):
        lam, mu = canonical.block_of(s)
        rep = fc.double_coset_min_rep(s, lam, mu)
        coset = aw.double_coset_elements(D, lam.values, rep, mu.values)
        l_w_mu = _longest_length(aw.young_subgroup_elements(D, mu.values))
        assert fc.y_stat(s) == _longest_length(coset) - l_w_mu


def _assert_tau_lowers_grade(system, x):
    top = system.grade(x)
    for y, _ in system.tau_fn(x):
        assert y == x or system.grade(y) < top, (x, y)


@pytest.mark.parametrize("n, D", SYMBOL_SIZES)
def test_tau_tmodule_lowers_x_stat(n, D):
    system = canonical.tmodule_system()
    for p in fc.enumerate_flag_symbols(n, D, 1, 2 * n):
        _assert_tau_lowers_grade(system, p)


@pytest.mark.parametrize("n, D, band", BAND_SIZES)
def test_tau_schur_lowers_y_stat(n, D, band):
    system = canonical.schur_system(n, D)
    for s in transfer.band_matrices(n, D, band):
        _assert_tau_lowers_grade(system, s)


# ---------------------------------------------------------------------------
# b_s read off the module basis, against the solver over matrices


# 1246 band matrices, 171 of them periodic
ORACLE_SIZES = [(2, 2, 2), (2, 3, 2), (3, 3, 1), (2, 4, 1), (3, 2, 2), (2, 3, 3)]


@pytest.mark.parametrize("n, D, band", ORACLE_SIZES)
def test_canonical_schur_matches_matrix_solver(n, D, band, tsys):
    oracle = canonical.schur_system(n, D)
    for s in transfer.band_matrices(n, D, band):
        assert canonical.canonical_schur(s, tsys) == \
            canonical.solve_canonical(oracle, s)


_ORACLES = {}


@st.composite
def band_matrix(draw):
    n = draw(st.sampled_from((2, 3)))
    D = draw(st.integers(2, 4 if n == 2 else 3))
    band = draw(st.integers(1, 3))
    cells = draw(st.lists(st.sampled_from(
        [(i, j) for i in range(1, n + 1) for j in range(i - band, i + band + 1)]),
        min_size=D, max_size=D))
    entries = {}
    for c in cells:
        entries[c] = entries.get(c, 0) + 1
    return PeriodicMatrix.make(n, D, entries)


@settings(max_examples=40, deadline=None)
@given(band_matrix())
def test_canonical_schur_matches_matrix_solver_on_drawn_matrices(s):
    oracle = _ORACLES.setdefault((s.n, s.D), canonical.schur_system(s.n, s.D))
    assert canonical.canonical_schur(s) == canonical.solve_canonical(oracle, s)


def test_canonical_schur_rejects_a_lower_coset(monkeypatch):
    # with the left cosets in reverse order the read starts at the coset of
    # smallest x_stat, whose coefficient in [s]*[mu] is not 1
    mats = [s for s in transfer.band_matrices(2, 3, 2)
            if len(fc.left_cosets(s, *canonical.block_of(s))) > 1]
    assert mats
    left_cosets = fc.left_cosets
    monkeypatch.setattr(fc, "left_cosets",
                        lambda s, lam, mu: left_cosets(s, lam, mu)[::-1])
    for s in mats:
        with pytest.raises(ArithmeticError, match="has coefficient v\\^"):
            canonical.canonical_schur(s)
