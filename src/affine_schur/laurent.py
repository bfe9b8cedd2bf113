"""Exact arithmetic in the Laurent polynomial ring Z[v, v^-1] and its fraction field.

Scalars are kept in canonical form (no zero coefficients), so equality is
structural and values are hashable.  The bar involution sends v to v^-1.
"""

from __future__ import annotations

from math import gcd as int_gcd


class LaurentScalar:
    """A Laurent polynomial in v with integer coefficients.

    Immutable.  Internally a map exponent -> nonzero coefficient.
    """

    __slots__ = ("_c", "_hash")

    def __init__(self, coeffs: dict = None):
        """From a dict {exponent: coefficient}; zero coefficients drop."""
        self._c = {e: a for e, a in coeffs.items() if a} if coeffs else {}
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentScalar":
        return _ZERO

    @staticmethod
    def one() -> "LaurentScalar":
        return _ONE

    @staticmethod
    def v(exp: int = 1) -> "LaurentScalar":
        return LaurentScalar({exp: 1})

    @staticmethod
    def const(a: int) -> "LaurentScalar":
        return LaurentScalar({0: a})

    @staticmethod
    def monomial(coeff: int, exp: int) -> "LaurentScalar":
        return LaurentScalar({exp: coeff})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._c

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
        return self._c == {0: 1}

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        c = dict(self._c)
        for e, a in other._c.items():
            b = c.get(e, 0) + a
            if b:
                c[e] = b
            elif e in c:
                del c[e]
        return _raw(c)

    __radd__ = __add__

    def __neg__(self):
        return _raw({e: -a for e, a in self._c.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if not self._c or not other._c:
            return _ZERO
        # a monomial factor (the unit above all) shifts and scales the other
        rest, mono = (other, self) if len(self._c) == 1 else (self, other)
        if len(mono._c) == 1:
            (e0, a0), = mono._c.items()
            if a0 == 1:
                return rest if e0 == 0 else rest.shift(e0)
            return _raw({e + e0: a * a0 for e, a in rest._c.items()})
        c = {}
        for e1, a1 in self._c.items():
            for e2, a2 in other._c.items():
                e = e1 + e2
                b = c.get(e, 0) + a1 * a2
                if b:
                    c[e] = b
                elif e in c:
                    del c[e]
        return _raw(c)

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
        return _raw({e + exp: a for e, a in self._c.items()})

    def bar(self) -> "LaurentScalar":
        """The involution v -> v^-1."""
        return _raw({-e: a for e, a in self._c.items()})

    # -- structure ---------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentScalar.const(other)
        if not isinstance(other, LaurentScalar):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._c.items()))
        return self._hash

    def __bool__(self):
        return bool(self._c)

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
        return _raw({e: a for e, a in self._c.items() if e >= 1})

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {str(e): a for e, a in sorted(self._c.items())}

    @staticmethod
    def from_json(obj: dict) -> "LaurentScalar":
        return LaurentScalar({int(e): int(a) for e, a in obj.items()})


def _raw(c: dict) -> LaurentScalar:
    out = LaurentScalar.__new__(LaurentScalar)
    out._c = c
    out._hash = None
    return out


def _coerce(x) -> LaurentScalar:
    if isinstance(x, LaurentScalar):
        return x
    if isinstance(x, int):
        return LaurentScalar.const(x)
    raise TypeError(f"cannot coerce {type(x)} to LaurentScalar")


_ZERO = _raw({})
_ONE = _raw({0: 1})

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
    return _raw(q)


def quantum_integer(k: int) -> LaurentScalar:
    """The balanced quantum integer (v^k - v^-k)/(v - v^-1)."""
    if k == 0:
        return _ZERO
    if k < 0:
        return -quantum_integer(-k)
    return _raw({e: 1 for e in range(-(k - 1), k, 2)})


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
    return _raw({shift + i: a for i, a in enumerate(coeffs) if a})


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
