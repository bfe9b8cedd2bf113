"""Exact scalar arithmetic: ring axioms, bar, quantum combinatorics, and
the shared small scalars with their memoized operations."""

import copy
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from affine_schur import laurent
from affine_schur.laurent import (LaurentScalar, RationalScalar, ONE, ZERO,
                                  divide_exact, laurent_gcd,
                                  quantum_binomial, quantum_factorial,
                                  quantum_integer)

import oracles


def L(d):
    return LaurentScalar(d)


scalars = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9),
                          max_size=5).map(L)
nonzero = scalars.filter(lambda x: not x.is_zero())


def test_quantum_integers_frozen():
    assert quantum_integer(0).is_zero()
    assert quantum_integer(1) == ONE
    assert quantum_integer(2) == L({1: 1, -1: 1})
    assert quantum_integer(3) == L({2: 1, 0: 1, -2: 1})
    assert quantum_factorial(3) == quantum_integer(3) * quantum_integer(2)
    assert quantum_binomial(4, 2) == L({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})


def test_quantum_symmetry():
    for k in range(1, 7):
        assert quantum_integer(k).bar() == quantum_integer(k)
    for m in range(7):
        for k in range(m + 1):
            assert quantum_binomial(m, k) == quantum_binomial(m, m - k)


def test_divide_exact():
    num = quantum_factorial(4)
    den = quantum_factorial(2)
    q = divide_exact(num, den)
    assert q * den == num
    with pytest.raises(ArithmeticError):
        divide_exact(L({0: 1, 1: 1}), L({0: 2}))


@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a + b == b + a
    assert a - a == LaurentScalar.zero()


def convolution(a: LaurentScalar, b: LaurentScalar) -> LaurentScalar:
    """The product term by term, with no shortcut: the reference for `*`."""
    return L(oracles.laurent_mul(dict(a.items()), dict(b.items())))


monomials = st.builds(LaurentScalar.monomial,
                      st.sampled_from([1, -1]) | st.integers(-9, 9).filter(bool),
                      st.integers(-6, 6))
special = st.sampled_from([ONE, LaurentScalar.zero(), L({0: -1}), L({0: 3})]) | monomials


@given(special, scalars | special, st.integers(-5, 5))
def test_mul_fast_paths_match_convolution(m, x, k):
    for prod in (m * x, x * m):
        assert prod == convolution(m, x)
        assert all(a for _, a in prod.items())  # no zero coefficient is kept
    const = LaurentScalar.const(k)
    assert m * k == k * m == convolution(m, const)
    assert x * k == k * x == convolution(x, const)
    assert ONE * x == x * ONE == x and 1 * x == x * 1 == x


@given(scalars, scalars)
def test_bar_is_ring_involution(a, b):
    assert a.bar().bar() == a
    assert (a * b).bar() == a.bar() * b.bar()
    assert (a + b).bar() == a.bar() + b.bar()


@given(nonzero, nonzero)
def test_gcd_divides(a, b):
    g = laurent_gcd(a, b)
    assert divide_exact(a, g) * g == a
    assert divide_exact(b, g) * g == b


@given(nonzero, nonzero, nonzero)
def test_rational_field(a, b, c):
    ra = RationalScalar.from_laurent(a)
    rb = RationalScalar.from_laurent(b)
    rc = RationalScalar.from_laurent(c)
    assert (ra / rb) * rb == ra
    assert (ra + rb) / rc == ra / rc + rb / rc


@given(nonzero)
def test_rational_laurent_roundtrip(a):
    r = RationalScalar.from_laurent(a)
    assert r.is_laurent()
    assert r.as_laurent() == a


@given(scalars)
def test_json_roundtrip(a):
    assert LaurentScalar.from_json(a.to_json()) == a


# ---------------------------------------------------------------------------
# RationalScalar fast paths against the always-normalising route


def normalise_by_gcd(num, den):
    """The reduced pair of num/den by shift, full gcd and sign: the route
    every RationalScalar operation took before the fast paths."""
    if num.is_zero():
        return LaurentScalar.zero(), ONE
    s = den.min_exp
    num, den = num.shift(-s), den.shift(-s)
    g = laurent_gcd(num, den)
    num, den = divide_exact(num, g), divide_exact(den, g)
    if den.coeff(0) < 0:
        num, den = -num, -den
    return num, den


def pair(r):
    return r.num, r.den


def _raw_den(qints, content, sign, shift):
    out = L({shift: sign * content})
    for k in qints:
        out = out * quantum_integer(k)
    return out


# denominators: products of quantum integers (and v + 1 factors), with
# integer content, either sign and a v-shift, e.g. 2v + 2, -2v^3, v^-2 [2][3]
raw_dens = st.one_of(
    st.builds(_raw_den, st.lists(st.integers(1, 4), max_size=3),
              st.sampled_from([1, 2, 3, 6]), st.sampled_from([1, -1]),
              st.integers(-3, 3)),
    st.builds(lambda c, e, s: L({e: s * c, e + 1: s * c}),
              st.sampled_from([1, 2, 4]), st.integers(-3, 3),
              st.sampled_from([1, -1])),
    # the units +-v^s
    st.builds(lambda e, s: L({e: s}), st.integers(-3, 3),
              st.sampled_from([1, -1])),
    nonzero,
)
# numerators share factors with the denominators often enough to cancel
raw_nums = st.one_of(
    st.just(LaurentScalar.zero()),
    scalars,
    st.builds(lambda a, d: a * d, scalars, raw_dens),
)
rationals = st.builds(RationalScalar, raw_nums, raw_dens)


@given(raw_nums, raw_dens)
def test_constructor_is_reduced_form(num, den):
    r = RationalScalar(num, den)
    assert pair(r) == normalise_by_gcd(num, den)
    if not r.is_zero():
        assert r.den.min_exp == 0 and r.den.coeff(0) > 0
        assert laurent_gcd(r.num, r.den) == ONE


@given(rationals, rationals)
def test_rational_ops_match_normalising_route(x, y):
    a, b, c, d = x.num, x.den, y.num, y.den
    assert pair(x + y) == normalise_by_gcd(a * d + c * b, b * d)
    assert pair(x - y) == normalise_by_gcd(a * d - c * b, b * d)
    assert pair(x * y) == normalise_by_gcd(a * c, b * d)
    if y.is_zero():
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        assert pair(x / y) == normalise_by_gcd(a * d, b * c)


@given(rationals, raw_nums)
def test_rational_add_shared_and_unit_denominators(x, c):
    # y often keeps x's denominator: the one-gcd path a/b + c/b
    y = RationalScalar(c, x.den)
    assert pair(x + y) == normalise_by_gcd(x.num * y.den + y.num * x.den,
                                           x.den * y.den)
    # a Laurent operand: the no-gcd path a/b + c/1
    z = RationalScalar.from_laurent(c)
    assert pair(x + z) == normalise_by_gcd(x.num + c * x.den, x.den)
    assert pair(z + x) == pair(x + z)
    assert pair(x * z) == normalise_by_gcd(x.num * c, x.den)


@given(rationals, st.integers(-5, 5))
def test_rational_shift(x, k):
    assert pair(x.shift(k)) == normalise_by_gcd(x.num.shift(k), x.den)
    assert x.shift(k) == x * RationalScalar.from_laurent(LaurentScalar.v(k))


def test_rational_division_by_zero_raises():
    x = RationalScalar(quantum_integer(3), quantum_integer(2))
    for zero in (RationalScalar.zero(), 0,
                 RationalScalar(LaurentScalar.zero(), L({0: 2}))):
        with pytest.raises(ZeroDivisionError):
            x / zero
    with pytest.raises(ZeroDivisionError):
        RationalScalar(ONE, LaurentScalar.zero())


# ---------------------------------------------------------------------------
# Shared small scalars and the memoized operations, against the dict oracle

SMALL = laurent._SHARED_TERMS
# up to twice the cutoff in terms, so that both sides of it are drawn
wide = st.dictionaries(st.integers(-8, 8), st.integers(-5, 5).filter(bool),
                       max_size=2 * SMALL + 1).map(L)


def _terms(x) -> dict:
    if isinstance(x, int):
        return {0: x} if x else {}
    return dict(x.items())


def _check_value(got, want: dict):
    assert isinstance(got, LaurentScalar)
    assert dict(got.items()) == want
    # the hash of the set of terms, so dict and set order stay what they were
    assert hash(got) == hash(frozenset(want.items()))
    fresh = L(dict(reversed(list(want.items()))))  # another insertion order
    assert got == fresh and hash(got) == hash(fresh)
    if len(want) <= SMALL:
        assert got is fresh
    else:
        assert got is not fresh


@settings(max_examples=300)
@given(wide, wide | st.integers(-4, 4), st.integers(-6, 6))
def test_memoized_ops_match_dict_oracle(x, y, k):
    dx, dy = _terms(x), _terms(y)
    for _ in range(2):  # the second round is answered by the memos
        _check_value(x + y, oracles.laurent_add(dx, dy))
        _check_value(y + x, oracles.laurent_add(dy, dx))
        _check_value(x - y, oracles.laurent_add(dx, oracles.laurent_neg(dy)))
        _check_value(y - x, oracles.laurent_add(dy, oracles.laurent_neg(dx)))
        _check_value(x * y, oracles.laurent_mul(dx, dy))
        _check_value(y * x, oracles.laurent_mul(dy, dx))
        _check_value(-x, oracles.laurent_neg(dx))
        _check_value(x.shift(k), oracles.laurent_shift(dx, k))
        _check_value(x.bar(), oracles.laurent_bar(dx))
    assert (x == y) == (dx == dy)
    assert x.is_zero() == (x is ZERO) == (not dx)
    assert x.is_one() == (x is ONE) == (dx == {0: 1})


@given(wide, st.integers(-6, 6))
def test_equal_small_values_are_one_object(x, k):
    routes = [x.shift(k).shift(-k), x.bar().bar(), -(-x), x + ZERO, ONE * x,
              L(dict(x.items())), pickle.loads(pickle.dumps(x))]
    for y in routes:
        assert y == x and hash(y) == hash(x)
        if len(dict(x.items())) <= SMALL:
            assert y is x


def test_pickle_and_copy_keep_shared_values_intact():
    values = [L({1: 2, -1: 3}), L({e: 1 for e in range(SMALL + 2)}), ZERO, ONE,
              quantum_integer(3), LaurentScalar.v(-2)]
    for x in values:
        copies = [copy.copy(x), copy.deepcopy(x), copy.deepcopy([x])[0]]
        copies += [pickle.loads(pickle.dumps(x, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for y in copies:
            assert dict(y.items()) == dict(x.items()) and hash(y) == hash(x)
            if len(dict(x.items())) <= SMALL:
                assert y is x
    r = RationalScalar(L({2: 1, 0: 1}), quantum_integer(3))
    back = pickle.loads(pickle.dumps(r))
    assert back == r and back.num is r.num and back.den is r.den
    # the shared zero and one are unchanged
    assert dict(ZERO.items()) == {} and ZERO is LaurentScalar.zero() is L({})
    assert dict(ONE.items()) == {0: 1} and ONE is LaurentScalar.one() is L({0: 1})
    assert ZERO.is_zero() and not ZERO and ONE.is_one() and ONE


def test_threads_build_one_object_per_value():
    """Four threads build the same new values at once, with the interpreter
    switching threads as often as it can; each value must be one object."""
    base = 10 ** 6  # exponents no other test uses, so every value is new
    values = [{base + i: 1, -base - i: -2} for i in range(1500)]
    start = threading.Barrier(4)
    results = [[] for _ in range(4)]

    def build(out):
        start.wait()
        for c in values:
            x = L(c)
            out.append((x, x.bar(), x * x, x + ONE, x.shift(1)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(out,)) for out in results]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, c in enumerate(values):
        assert dict(results[0][i][0].items()) == c
        for j in range(5):
            assert len({id(out[i][j]) for out in results}) == 1
