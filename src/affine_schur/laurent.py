"""Exact arithmetic in the Laurent polynomial ring Z[v, v^-1] and its fraction field.

Scalars are kept in canonical form (no zero coefficients), so equality is
structural and values are hashable.  The bar involution sends v to v^-1.

Memos.  A `LaurentScalar` of at most `_SHARED_TERMS` = 4 terms is shared:
every route that builds one (the constructor, the ring operations,
`divide_exact`, `laurent_gcd`, copying and unpickling) returns the one
object for its value, from the table `_SHARED`, keyed by the frozenset of
its (exponent, coefficient) pairs.  So the zero and one tests are identity
tests (`x is ZERO`, which `vector` uses too), and two shared values are
equal only when they are one object.  A larger value is a plain object
compared by value.  The hash of every value is the hash of that frozenset,
as before values were shared, so the order of dicts and sets of scalars,
and with it every report, does not depend on sharing.
Sum, product, shift, negation and bar of shared operands are memoized in
`_ADD`, `_MUL`, `_SHIFT`, `_NEG` and `_BAR`, keyed by the operands' ids: a
pair by the one int id(a) << 64 | id(b), which is injective as an id fits
in 64 bits and takes a third of the memory of a tuple of two ids, and a
shift by (id(a), k).  A sum or product with an unshared operand skips the
memos.  Shift, negation and bar look any operand up, and an unshared one
always misses, since no shared object has its id; a shared object is never
freed, so the id in a key names one value for the life of the process.  A
memoized sum or product may have more terms than the cutoff (two four-term
factors give up to seven); the memo keeps it alive, unshared.  The table
and the memos live as long as the process.

The cutoff.  In `run-suite canonical --n 2 --D 3 --window 5 --band 2`, 99 %
of the 17 031 products, 97 % of the 7 556 sums and 99 % of the 15 179
shifts have operands of at most four terms, and the memos answer them from
165 products, 343 sums and 189 shifts.  In REFERENCE transfer (`--n 2 --D 2
--band 2 --word-len 4`), where Q(v) arithmetic builds larger values, the
shares are 90 %, 80 % and 93 %.  A value with more terms rarely recurs, so
sharing it mostly keeps it alive: sharing every value raised the peak RSS
of `run-suite crystal --n 2 --D 6 --window 5` from 23 MB at this cutoff to
30 MB (Python 3.11.7, x86-64), because its Q(v) intermediates never died.
`RationalScalar` is neither shared nor memoized, and neither is the gcd
step `_cancel`, whose memo raised that run's peak RSS to 25 MB.

Thread safety.  `_SHARED` is filled by `dict.setdefault`, so two threads
that build one value get one object.  A memo entry is a pure function of its
key, and two threads that miss at once store equal results (one object when
the result is shared), each with one atomic dict store.

Sizes after one run: the table holds 112 values for the `transfer`
benchmark workload (`run-suite transfer --n 2 --D 1 --band 1 --word-len 3`),
234 for `canonical`, 38 for `crystal` (`--n 3 --D 3 --window 6`), 7 377 for
REFERENCE transfer and 790 for `run-suite transfer --n 4 --D 1 --band 1
--word-len 2`.  At REFERENCE the memos hold 17 645 sums, 12 891 products,
3 949 shifts, 1 041 negations and 25 bars.
"""

from __future__ import annotations

from math import gcd as int_gcd


class LaurentScalar:
    """A Laurent polynomial in v with integer coefficients.

    Immutable.  Internally a map exponent -> nonzero coefficient.  A value
    of at most `_SHARED_TERMS` terms is one shared object (see "Memos").
    """

    __slots__ = ("_c", "_hash")

    def __new__(cls, coeffs: dict = None):
        """From a dict {exponent: coefficient}; zero coefficients drop."""
        return _make({e: a for e, a in coeffs.items() if a} if coeffs else {})

    def __reduce__(self):
        # Rebuild through the constructor, so that pickling and copying give
        # the shared object back.  The default protocol would call __new__()
        # (the shared zero) and overwrite its slots.
        return LaurentScalar, (dict(self._c),)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentScalar":
        return _ZERO

    @staticmethod
    def one() -> "LaurentScalar":
        return _ONE

    @staticmethod
    def v(exp: int = 1) -> "LaurentScalar":
        return _make({exp: 1})

    @staticmethod
    def const(a: int) -> "LaurentScalar":
        return _make({0: a} if a else {})

    @staticmethod
    def monomial(coeff: int, exp: int) -> "LaurentScalar":
        return _make({exp: coeff} if coeff else {})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return self is _ZERO

    def items(self):
        return self._c.items()

    def coeff(self, exp: int) -> int:
        return self._c.get(exp, 0)

    @property
    def min_exp(self) -> int:
        return min(self._c)

    @property
    def max_exp(self) -> int:
        return max(self._c)

    def constant_term(self) -> int:
        return self._c.get(0, 0)

    def is_one(self) -> bool:
        return self is _ONE

    # -- ring operations ---------------------------------------------------
    #
    # Each looks its shared operands up in a memo keyed by their identities
    # (see "Memos"); a key that holds an unshared operand is never stored.

    def __add__(self, other):
        if other.__class__ is not LaurentScalar:
            other = _coerce(other)
        if len(self._c) > _SHARED_TERMS or len(other._c) > _SHARED_TERMS:
            return _make(_add(self._c, other._c))
        key = id(self) << 64 | id(other)
        got = _ADD.get(key)
        if got is None:
            got = _ADD[key] = _make(_add(self._c, other._c))
        return got

    __radd__ = __add__

    def __neg__(self):
        got = _NEG.get(id(self))
        if got is None:
            got = _make({e: -a for e, a in self._c.items()})
            if len(self._c) <= _SHARED_TERMS:
                _NEG[id(self)] = got
        return got

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if other.__class__ is not LaurentScalar:
            other = _coerce(other)
        if len(self._c) > _SHARED_TERMS or len(other._c) > _SHARED_TERMS:
            return _mul(self, other)
        key = id(self) << 64 | id(other)
        got = _MUL.get(key)
        if got is None:
            got = _MUL[key] = _mul(self, other)
        return got

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers need divide_exact or RationalScalar")
        out = _ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def shift(self, exp: int) -> "LaurentScalar":
        """Multiply by v^exp."""
        if not exp:
            return self
        key = (id(self), exp)
        got = _SHIFT.get(key)
        if got is None:
            got = _make({e + exp: a for e, a in self._c.items()})
            if len(self._c) <= _SHARED_TERMS:
                _SHIFT[key] = got
        return got

    def bar(self) -> "LaurentScalar":
        """The involution v -> v^-1."""
        got = _BAR.get(id(self))
        if got is None:
            got = _make({-e: a for e, a in self._c.items()})
            if len(self._c) <= _SHARED_TERMS:
                _BAR[id(self)] = got
        return got

    # -- structure ---------------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not LaurentScalar:
            if not isinstance(other, int):
                return NotImplemented
            return self is _coerce(other)
        # two shared values are equal only if they are one object, and a
        # shared value has fewer terms than an unshared one
        return len(self._c) > _SHARED_TERMS and self._c == other._c

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(frozenset(self._c.items()))
        return h

    def __bool__(self):
        return self is not _ZERO

    def __repr__(self):
        return f"LaurentScalar({self!s})"

    def __str__(self):
        if not self._c:
            return "0"
        parts = []
        for e in sorted(self._c, reverse=True):
            a = self._c[e]
            if e == 0:
                term = str(abs(a))
            else:
                va = "v" if e == 1 else f"v^{e}"
                term = va if abs(a) == 1 else f"{abs(a)}*{va}"
            parts.append(("-" if a < 0 else "+", term))
        sign0, t0 = parts[0]
        out = ("-" if sign0 == "-" else "") + t0
        for s, t in parts[1:]:
            out += f" {s} {t}"
        return out

    # -- positivity / lattice helpers -------------------------------------

    def in_v_times_z_of_v(self) -> bool:
        """True iff the value lies in vZ[v] (all exponents >= 1)."""
        return all(e >= 1 for e in self._c)

    def positive_part(self) -> "LaurentScalar":
        """The vZ[v] part: terms with exponent >= 1."""
        return _make({e: a for e, a in self._c.items() if e >= 1})

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {str(e): a for e, a in sorted(self._c.items())}

    @staticmethod
    def from_json(obj: dict) -> "LaurentScalar":
        return LaurentScalar({int(e): int(a) for e, a in obj.items()})


# A value of at most this many terms is shared; see "Memos".
_SHARED_TERMS = 4

# frozenset of (exponent, coefficient) pairs -> the shared scalar of that value
_SHARED: dict = {}
# id(a) << 64 | id(b) -> a + b and a * b; (id(a), k) -> a.shift(k); id(a) -> -a
# and a.bar(); every operand named by a key is shared
_ADD: dict = {}
_MUL: dict = {}
_SHIFT: dict = {}
_NEG: dict = {}
_BAR: dict = {}


def _make(c: dict) -> LaurentScalar:
    """The scalar with the nonzero coefficients c, which it keeps (trusted):
    the shared object of that value when c has at most _SHARED_TERMS terms."""
    if len(c) > _SHARED_TERMS:
        out = object.__new__(LaurentScalar)
        out._c, out._hash = c, None
        return out
    key = frozenset(c.items())
    got = _SHARED.get(key)
    if got is None:
        got = object.__new__(LaurentScalar)
        got._c, got._hash = c, hash(key)
        got = _SHARED.setdefault(key, got)
    return got


def _add(c1: dict, c2: dict) -> dict:
    c = dict(c1)
    for e, a in c2.items():
        b = c.get(e, 0) + a
        if b:
            c[e] = b
        elif e in c:
            del c[e]
    return c


def _mul(x: LaurentScalar, y: LaurentScalar) -> LaurentScalar:
    if x is _ZERO or y is _ZERO:
        return _ZERO
    # a monomial factor (the unit above all) shifts and scales the other
    rest, mono = (y, x) if len(x._c) == 1 else (x, y)
    if len(mono._c) == 1:
        (e0, a0), = mono._c.items()
        if a0 == 1:
            return rest.shift(e0)
        return _make({e + e0: a * a0 for e, a in rest._c.items()})
    c = {}
    for e1, a1 in x._c.items():
        for e2, a2 in y._c.items():
            e = e1 + e2
            b = c.get(e, 0) + a1 * a2
            if b:
                c[e] = b
            elif e in c:
                del c[e]
    return _make(c)


def _coerce(x) -> LaurentScalar:
    if isinstance(x, LaurentScalar):
        return x
    if isinstance(x, int):
        return LaurentScalar.const(x)
    raise TypeError(f"cannot coerce {type(x)} to LaurentScalar")


_ZERO = _make({})
_ONE = _make({0: 1})

ZERO = _ZERO
ONE = _ONE


def divide_exact(num: LaurentScalar, den: LaurentScalar) -> LaurentScalar:
    """Exact quotient in Z[v, v^-1]; raises if den does not divide num."""
    if den.is_zero():
        raise ZeroDivisionError("division by zero LaurentScalar")
    if num.is_zero():
        return _ZERO
    # Long division from the top exponent down.
    rem = dict(num._c)
    dmax = den.max_exp
    dlead = den.coeff(dmax)
    qmin = num.min_exp - den.min_exp  # exact quotients never go lower
    q = {}
    while rem:
        e = max(rem)
        a = rem[e]
        if a % dlead:
            raise ArithmeticError(f"non-exact division: {num} / {den}")
        qe, qa = e - dmax, a // dlead
        if qe < qmin:
            raise ArithmeticError(f"non-exact division: {num} / {den}")
        q[qe] = qa
        for de, da in den._c.items():
            ee = qe + de
            b = rem.get(ee, 0) - qa * da
            if b:
                rem[ee] = b
            elif ee in rem:
                del rem[ee]
    return _make(q)


def quantum_integer(k: int) -> LaurentScalar:
    """The balanced quantum integer (v^k - v^-k)/(v - v^-1)."""
    if k == 0:
        return _ZERO
    if k < 0:
        return -quantum_integer(-k)
    return _make({e: 1 for e in range(-(k - 1), k, 2)})


def quantum_factorial(k: int) -> LaurentScalar:
    if k < 0:
        raise ValueError("quantum_factorial requires k >= 0")
    out = _ONE
    for j in range(2, k + 1):
        out = out * quantum_integer(j)
    return out


def quantum_binomial(m: int, k: int) -> LaurentScalar:
    """The quantum binomial [m][m-1]...[m-k+1] / [k]!  (m may be any integer)."""
    if k < 0:
        raise ValueError("quantum_binomial requires k >= 0")
    num = _ONE
    for j in range(k):
        num = num * quantum_integer(m - j)
    return divide_exact(num, quantum_factorial(k))


# ---------------------------------------------------------------------------
# polynomial gcd helpers (dense lists over Z, used for rational normalization)


def _to_poly(x: LaurentScalar):
    """(shift, dense coefficient list low->high) with nonzero constant term."""
    if x.is_zero():
        return 0, []
    lo, hi = x.min_exp, x.max_exp
    return lo, [x.coeff(e) for e in range(lo, hi + 1)]


def _from_poly(shift: int, coeffs) -> LaurentScalar:
    return _make({shift + i: a for i, a in enumerate(coeffs) if a})


def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_content(p) -> int:
    g = 0
    for a in p:
        g = int_gcd(g, abs(a))
    return g or 1


def _poly_primitive(p):
    g = _poly_content(p)
    return [a // g for a in p]


def _poly_pseudo_rem(a, b):
    """Pseudo-remainder of a by b over Z."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        da, la = len(a) - 1, a[-1]
        a = [c * lb for c in a]
        for i, bc in enumerate(b):
            a[da - db + i] -= la * bc
        _poly_trim(a)
    return a


def _poly_gcd(a, b):
    """gcd in Z[x] via primitive Euclid; result primitive with positive lead."""
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    if not a:
        base = b
    elif not b:
        base = a
    else:
        ca, cb = _poly_content(a), _poly_content(b)
        a, b = _poly_primitive(a), _poly_primitive(b)
        while b:
            a, b = b, _poly_primitive(_poly_pseudo_rem(a, b))
        base = [x * int_gcd(ca, cb) for x in a]
    if base and base[-1] < 0:
        base = [-x for x in base]
    return base


def laurent_gcd(x: LaurentScalar, y: LaurentScalar) -> LaurentScalar:
    """A gcd in Z[v, v^-1], normalized to a polynomial with nonzero constant term."""
    if x.is_zero():
        return _normalize_unit(y)
    if y.is_zero():
        return _normalize_unit(x)
    _, px = _to_poly(x)
    _, py = _to_poly(y)
    return _from_poly(0, _poly_gcd(px, py))


def _normalize_unit(x: LaurentScalar) -> LaurentScalar:
    if x.is_zero():
        return x
    y = x.shift(-x.min_exp)
    return y if y.coeff(y.max_exp) > 0 else -y


class RationalScalar:
    """An element of the field of rational functions Q(v), stored as a reduced
    quotient of integer Laurent polynomials.

    Reduced form, kept by every constructor: ``den`` is a polynomial with
    nonzero constant term and positive lowest coefficient, and
    gcd(num, den) = 1 in Z[v, v^-1] (zero is 0/1).  The units of
    Z[v, v^-1] are the +-v^s, so this form is unique and equality is
    structural.

    ``RationalScalar(num, den)`` is the one route that normalises an
    arbitrary pair (shift, gcd, sign).  The arithmetic below builds results
    that are reduced by a theorem with ``_rat`` and does only the gcds that
    theorem needs (Henrici's method, Knuth TAOCP vol. 2, 4.5.1):

    - a Laurent polynomial x is x/1 (``from_laurent``), and gcd(x, 1) = 1;
    - a/b * c/d = (a/g1 * c/g2) / (b/g2 * d/g1) with g1 = gcd(a, d),
      g2 = gcd(c, b), because gcd(a, b) = gcd(c, d) = 1; a gcd with a unit
      operand is 1 and is skipped; division multiplies by d/c;
    - a/b + c/1 = (a + c b)/b, because gcd(a + c b, b) = gcd(a, b) = 1;
    - a/b + c/b = (a + c)/b reduced by gcd(a + c, b) alone;
    - multiplying by the unit v^k (``shift``) changes no gcd.

    The shift and sign fixes after a product (``_normalized``) multiply
    both parts by one unit, which keeps them coprime.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentScalar, den: LaurentScalar = _ONE):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = _ZERO, _ONE
            return
        # clear v-shifts: make den a polynomial with nonzero constant term
        s = den.min_exp
        num, den = num.shift(-s), den.shift(-s)
        g = laurent_gcd(num, den)
        if not g.is_one():
            num, den = divide_exact(num, g), divide_exact(den, g)
        # fix sign: lowest-degree denominator coefficient positive
        if den.coeff(den.min_exp) < 0:
            num, den = -num, -den
        self.num, self.den = num, den

    @staticmethod
    def from_laurent(x: LaurentScalar) -> "RationalScalar":
        return _rat(x, _ONE)

    @staticmethod
    def zero() -> "RationalScalar":
        return _RZERO

    @staticmethod
    def one() -> "RationalScalar":
        return _RONE

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_laurent(self) -> bool:
        return self.den.is_one()

    def as_laurent(self) -> LaurentScalar:
        return divide_exact(self.num, self.den)

    def shift(self, k: int) -> "RationalScalar":
        """Multiply by v^k."""
        return _rat(self.num.shift(k), self.den)

    def __add__(self, other):
        other = _coerce_rat(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if d.is_one():
            return _rat_or_zero(a + c * b, b)
        if b.is_one():
            return _rat_or_zero(c + a * d, d)
        if b == d:
            num = a + c
            return _RZERO if num.is_zero() else _normalized(*_cancel(num, b))
        return RationalScalar(a * d + c * b, b * d)

    __radd__ = __add__

    def __neg__(self):
        return _rat(-self.num, self.den)

    def __sub__(self, other):
        return self + (-_coerce_rat(other))

    def __rsub__(self, other):
        return _coerce_rat(other) + (-self)

    def __mul__(self, other):
        other = _coerce_rat(other)
        return _henrici(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_rat(other)
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero RationalScalar")
        return _henrici(self.num, self.den, other.den, other.num)

    def __rtruediv__(self, other):
        return _coerce_rat(other) / self

    def __eq__(self, other):
        if isinstance(other, (int, LaurentScalar)):
            other = _coerce_rat(other)
        if not isinstance(other, RationalScalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.num.is_zero()

    def __repr__(self):
        if self.den.is_one():
            return f"RationalScalar({self.num})"
        return f"RationalScalar(({self.num}) / ({self.den}))"


def _rat(num: LaurentScalar, den: LaurentScalar) -> RationalScalar:
    """A RationalScalar from a pair already in reduced form (trusted)."""
    out = RationalScalar.__new__(RationalScalar)
    out.num, out.den = num, den
    return out


def _rat_or_zero(num: LaurentScalar, den: LaurentScalar) -> RationalScalar:
    return _RZERO if num.is_zero() else _rat(num, den)


def _is_unit(x: LaurentScalar) -> bool:
    """True iff x = +-v^s, a unit of Z[v, v^-1]."""
    if len(x._c) != 1:
        return False
    (a,) = x._c.values()
    return a == 1 or a == -1


def _normalized(num: LaurentScalar, den: LaurentScalar) -> RationalScalar:
    """Fix the v-shift and the sign of a coprime pair (num nonzero)."""
    s = den.min_exp
    if s:
        num, den = num.shift(-s), den.shift(-s)
    if den.coeff(0) < 0:
        num, den = -num, -den
    return _rat(num, den)


def _cancel(x: LaurentScalar, y: LaurentScalar):
    """x / g and y / g for g = gcd(x, y); no gcd when either is a unit."""
    if _is_unit(x) or _is_unit(y):
        return x, y
    g = laurent_gcd(x, y)
    if g.is_one():
        return x, y
    return divide_exact(x, g), divide_exact(y, g)


def _henrici(a, b, c, d) -> RationalScalar:
    """(a/b) * (c/d) for coprime pairs (a, b) and (c, d), with d nonzero."""
    if a.is_zero() or c.is_zero():
        return _RZERO
    a, d = _cancel(a, d)
    c, b = _cancel(c, b)
    return _normalized(a * c, b * d)


def _coerce_rat(x) -> RationalScalar:
    if isinstance(x, RationalScalar):
        return x
    if isinstance(x, (int, LaurentScalar)):
        return _rat(_coerce(x), _ONE)
    raise TypeError(f"cannot coerce {type(x)} to RationalScalar")


_RZERO = _rat(_ZERO, _ONE)
_RONE = _rat(_ONE, _ONE)
