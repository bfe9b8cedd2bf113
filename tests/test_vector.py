"""The sparse-vector kernel and the coset collapse shared by the element types."""

import pytest
from hypothesis import given, strategies as st

from affine_schur import affine_weyl, flag_comb as fc, schur, tmodule, transfer
from affine_schur.hecke import HeckeElement
from affine_schur.laurent import LaurentScalar, RationalScalar
from affine_schur.tmodule import ModuleVector
from affine_schur.vector import add_scaled

from oracles import block_to_hecke, hecke_to_matrix_terms, to_hecke_blocks

LABELS = st.integers(0, 5)
LAURENT = st.dictionaries(st.integers(-2, 2), st.integers(-2, 2), max_size=3).map(LaurentScalar)
RATIONAL = st.tuples(LAURENT, LAURENT.filter(lambda d: not d.is_zero())).map(
    lambda nd: RationalScalar(*nd))


def _copy_and_add(out: dict, terms: dict, c) -> dict:
    """The route add_scaled replaced: out = out + c * terms on a copy,
    zeros dropped once at the end."""
    total = dict(out)
    for x, a in terms.items():
        a = a if c is None else c * a
        total[x] = total[x] + a if x in total else a
    return {x: s for x, s in total.items() if not s.is_zero()}


@given(st.data(), st.sampled_from([LAURENT, RATIONAL]))
def test_add_scaled_matches_copy_and_add(data, scalars):
    terms = data.draw(st.dictionaries(LABELS, scalars))
    c = data.draw(st.none() | scalars)
    out = data.draw(st.dictionaries(LABELS, scalars.filter(lambda a: not a.is_zero())))
    # make some sums cancel to exactly zero
    for x in data.draw(st.sets(st.sampled_from(sorted(terms)))) if terms else ():
        a = terms[x] if c is None else c * terms[x]
        if not a.is_zero():
            out[x] = -a
    before = list(terms.items())
    expected = _copy_and_add(out, terms, c)
    got = add_scaled(out, terms, c)
    assert got is out
    assert got == expected
    assert list(terms.items()) == before


def test_add_scaled_takes_pairs():
    v = LaurentScalar.v(1)
    out = add_scaled({"a": v}, iter([("a", -v), ("b", v), ("b", v)]))
    assert out == {"b": v + v}


def _missing_elements(lam):
    """T_1 alone: the rest of its coset is missing."""
    return HeckeElement.unit(lam.D)


def _uneven_coset(lam):
    """Every T_u, u in S_lam, present with coefficients 1, 2, ...: not constant."""
    young = affine_weyl.young_subgroup_elements(lam.D, lam.values)
    assert len(young) > 1
    return HeckeElement(lam.D, {u: LaurentScalar.const(k + 1) for k, u in enumerate(young)})


# S_lam is the coset of 1 for the module and its double coset in (lam, lam)
LAM = fc.FlagSymbol(2, 3, (1, 1, 2))


@pytest.mark.parametrize("h_of", [_missing_elements, _uneven_coset])
def test_module_collapse_rejects_non_constant_coset(h_of):
    with pytest.raises(ArithmeticError, match="not constant"):
        tmodule.from_hecke_block(LAM, h_of(LAM))


@pytest.mark.parametrize("h_of", [_missing_elements, _uneven_coset])
def test_matrix_collapse_rejects_non_constant_double_coset(h_of):
    with pytest.raises(ArithmeticError, match="not constant"):
        hecke_to_matrix_terms(LAM, LAM, h_of(LAM))


COEFF = LaurentScalar({-1: 2, 3: -1})


def test_module_collapse_inverts_expansion():
    symbols = fc.enumerate_flag_symbols(2, 3, 1, 4)
    total = {}
    for k, p in enumerate(symbols):
        x = ModuleVector.basis(p).scale(COEFF)
        (lam, h), = to_hecke_blocks(x).items()
        assert tmodule.from_hecke_block(lam, h) == x
        total[p] = COEFF.shift(k)
    # many cosets per block at once
    x = ModuleVector(2, 3, total)
    back = {}
    for lam, h in to_hecke_blocks(x).items():
        back.update(tmodule.from_hecke_block(lam, h).terms)
    assert back == total


def test_matrix_collapse_inverts_expansion():
    for s in transfer.band_matrices(2, 3, 2):
        lam, mu = fc.block_of(s)
        h = block_to_hecke({s: COEFF}, lam, mu)
        assert hecke_to_matrix_terms(lam, mu, h) == {s: COEFF}


def _on_column(s, coords_on_cosets):
    """Coordinates {q: c} on the left-coset sums T_q as the vector
    sum of c v^{x_mu - x_q} [q] that from_column reads, mu the column of s."""
    xmu = fc.x_stat(fc.block_of(s)[1])
    return {q: c.shift(xmu - fc.x_stat(q)) for q, c in coords_on_cosets.items()}


def test_left_coset_collapse_inverts_expansion():
    for s in transfer.band_matrices(2, 3, 2):
        mu = fc.block_of(s)[1]
        coords = {q: COEFF for q, _ in fc.left_cosets(s)}
        assert schur.from_column(mu, _on_column(s, coords)) == \
            {s: COEFF.shift(-fc.y_stat(s))}
        assert schur.from_column(mu, schur.column_vector(s).scale(COEFF).terms) \
            == {s: COEFF}


# a double coset of (lam, mu) = ((1, 2, 2), (1, 1, 1)) made of three left cosets
S_WIDE = fc.PeriodicMatrix.make(2, 3, {(1, 3): 1, (2, 3): 2})


@pytest.mark.parametrize("spoil", ["changed", "dropped"])
@pytest.mark.parametrize("at", [0, -1])
def test_left_coset_collapse_rejects_non_constant_double_coset(spoil, at):
    mu = fc.block_of(S_WIDE)[1]
    qs = [q for q, _ in fc.left_cosets(S_WIDE)]
    assert len(qs) == 3
    coords = {q: COEFF for q in qs}
    if spoil == "changed":
        coords[qs[at]] = COEFF.shift(1)
    else:
        del coords[qs[at]]
    with pytest.raises(ArithmeticError, match="not constant"):
        schur.from_column(mu, _on_column(S_WIDE, coords))


def test_vectors_are_unhashable():
    p = fc.FlagSymbol.make(2, 2, (2, 1))
    s = fc.delta_matrix((1, 1))
    for vec in (ModuleVector.basis(p), schur.SchurElement.basis(s),
                HeckeElement.unit(2)):
        with pytest.raises(TypeError, match="unhashable"):
            hash(vec)
