"""Bar-involution solver and the two canonical bases."""

import inspect
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from affine_schur import canonical, cli, flag_comb as fc, hecke, schur, tmodule, transfer
from affine_schur.flag_comb import FlagSymbol, PeriodicMatrix
from affine_schur.laurent import LaurentScalar, ONE
from affine_schur.schur import SchurElement


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
    sys_ = canonical.tmodule_system(2, 2)
    for p in fc.enumerate_flag_symbols(2, 2, 1, 4):
        vec = canonical.canonical_tmodule_vector(p, sys_)
        assert tmodule.tau(vec) == vec
        assert vec.coeff(p) == ONE


def test_schur_canonical_unitriangular(sys22):
    d = fc.delta_matrix(fc.dominant_from_weight(2, 2, (1, 1)))
    exp = canonical.canonical_schur(d, sys22)
    assert exp.coeff(d) == ONE
    for s, c in exp.terms:
        if s != d:
            assert c.in_v_times_z_of_v()


def test_kl_coefficients_nonnegative(sys22):
    for s in transfer.band_matrices(2, 2, 2):
        exp = canonical.canonical_schur(s, sys22)
        for q, _ in exp.terms:
            for i, dim in canonical.kl_coefficients(exp, q):
                assert dim > 0 and isinstance(i, int)


def test_canonical_suite():
    cfg = cli.RunConfig(n=2, D=2, window=4, band=2)
    cases = cli.suite_canonical(cfg)
    assert cases and all(c["status"] == "pass" for c in cases), \
        [c for c in cases if c["status"] != "pass"]


def test_solver_order_independent():
    # expansions agree when labels are solved in opposite orders
    labels = fc.enumerate_flag_symbols(2, 2, 1, 4)
    a = canonical.tmodule_system(2, 2)
    b = canonical.tmodule_system(2, 2)
    out_a = {p: canonical.canonical_tmodule(p, a).terms for p in labels}
    out_b = {p: canonical.canonical_tmodule(p, b).terms
             for p in reversed(labels)}
    assert out_a == out_b


def test_unitriangularity_violation_detected():
    bad = canonical.BarSystem(
        tau_fn=lambda x: {x: LaurentScalar.v(1)}, sort_key=lambda x: x)
    with pytest.raises(ArithmeticError):
        bad.tau_expand("a")


def test_support_cone_bound(monkeypatch):
    # tau([k]) = [k] + [k-1]: the cone below k holds the k labels 0..k-1
    chain = canonical.BarSystem(
        tau_fn=lambda k: {k: ONE, k - 1: ONE} if k else {0: ONE},
        sort_key=lambda k: k)
    monkeypatch.setattr(canonical, "MAX_LABELS", 5)
    assert chain.lower_labels(5) == set(range(5))
    with pytest.raises(RuntimeError, match="5 labels"):
        chain.lower_labels(6)


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
    (lambda: canonical.tmodule_system(2, 3),
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
            (canonical.schur_system, _ORDER_MATRICES, order_s)):
        fast, slow = make_system(2, 2), make_system(2, 2)
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
    system = canonical.BarSystem(tau_fn=lambda k: dict(taus[k]), sort_key=lambda k: -k)
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
    return {t: twist * c for t, c in canonical.hecke_to_matrix_terms(lam, mu, h).items()}


# every band matrix at these (n, D, band) is checked against the Hecke routes
BAND_SIZES = [(2, 2, 2), (2, 3, 2), (2, 4, 1), (3, 3, 2), (3, 4, 1)]


@pytest.mark.parametrize("n, D, band", BAND_SIZES)
def test_tau_schur_matches_double_coset_route(n, D, band):
    for s in transfer.band_matrices(n, D, band):
        assert canonical._tau_schur_label(s) == tau_schur_by_double_cosets(s)


def test_tau_tmodule_label_reads_memo_and_hands_out_copies():
    for p in fc.enumerate_flag_symbols(2, 3, 1, 4):
        fresh = dict(tmodule.tau(tmodule.ModuleVector.basis(p)).terms)
        got = canonical._tau_tmodule_label(p)
        assert got == fresh
        got.clear()
        got[p] = LaurentScalar.v(5)
        assert canonical._tau_tmodule_label(p) == fresh


def test_tau_schur_memo_matches_fresh_and_hands_out_copies():
    for s in transfer.band_matrices(2, 3, 2):
        fresh = tau_schur_by_double_cosets(s)
        got = canonical._tau_schur_label(s)
        assert got == fresh
        assert list(got) == list(fresh)
        got.clear()
        got[s] = LaurentScalar.v(5)
        assert canonical._tau_schur_label(s) == fresh


def test_block_of_memo_matches_fresh_computation():
    for s in transfer.band_matrices(2, 3, 2):
        fresh = (fc.dominant_from_weight(2, 3, s.row_weight()),
                 fc.dominant_from_weight(2, 3, s.col_weight()))
        assert canonical.block_of(s) == fresh
        assert canonical.block_of(s) is canonical.block_of(s)
