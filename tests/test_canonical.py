"""Bar-involution solver and the two canonical bases."""

import json

import pytest

from affine_schur import canonical, cli, flag_comb as fc, schur, tmodule, transfer
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
        assert canonical.ic_consistent(exp)
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


def test_export_and_cache(tmp_path):
    exp = canonical.canonical_tmodule(FlagSymbol(2, 2, (2, 1)))
    payload = canonical.expansion_to_json(exp)
    text = json.dumps(payload, sort_keys=True)
    assert json.loads(text) == payload
    csv_text = canonical.expansion_to_csv([exp])
    assert csv_text.splitlines()[0] == "leading,term,coeff,kl_pairs"
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
