"""Transfer maps between affine q-Schur algebras of adjacent ranks.

The rank-lowering map S_{D+n} -> S_D is linear, and it sends the image of
a word a_wt g_1 ... g_k at rank D + n to the image of
1_{wt - (1, ..., 1)} g_1 ... g_k at rank D (0 when wt has a zero part).
It is realized two independent ways: a linear-solve route (eliminate x
against word images at rank D + n whose elimination rows carry their
transfers, MonomialSpan) and a comultiplication route (split each word
across a rank-n / rank-D tensor factor, collapse the rank-n leg with the
sign character, twist blockwise).  Executable checkers for the
leading-term lemma and the canonical-basis transfer theorem close the
loop.  Calibration and the composition check walk the words depth first
(route_pairs), so each word extends its prefix's evaluation by one letter,
and they share one walk per rank (walk_checks).  The sign character
collapses each tensor once, graded by rotation degree (graded_collapse);
each calibration candidate rho is an evaluation of it.  It is read off
each rank-n matrix in closed form (schur.epsilon_degrees), with no Hecke
product, and memoized per matrix (_eps_of_basis), since the walk meets
the same rank-n legs again and again.  The calibration runs only inside
walk_checks; tests/test_transfer.py keeps a calibration that walks each
rank on its own, and a per-term sign character, as its oracles.

Every word is evaluated by one fold of right factors over its letters.
The walk, the tensor steps and the monomial span (its images and their
transfers) multiply a basis element on the right by a Chevalley generator
with the BLM rule on the periodic matrix (_basis_gen), not through the
Hecke algebra.  With [m] the balanced quantum integer, E_{p,c} the
periodic unit matrix and row sums over all integer rows l:

    [s] e_i = sum of v^beta [t_{p,c+1}] [t] over the cells (p, c) with
              p in [1, n], c = i mod n and s_pc >= 1, where
              t = s - E_{p,c} + E_{p,c+1} and
              beta = sum_{l<p} (s_{l,c} - s_{l,c+1});
    [s] f_i = the same over c = i + 1 mod n, with
              t = s - E_{p,c} + E_{p,c-1} and
              beta = sum_{l>p} (s_{l,c} - s_{l,c-1}).

An empty sum is the zero product.  The oracle is the Hecke route,
schur.schur_mul([s], phi_e or phi_f) (one product in H_D per basis pair);
tests/test_transfer.py compares the two on every band
matrix of a few small ranks and on Hypothesis-drawn band matrices at
n = 2..4, D <= 5.  schur.phi_monomial stays on the Hecke route, so the
dual-route case remains an independent check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product as iter_product

from . import canonical, flag_comb, schur
from .flag_comb import PeriodicMatrix, is_aperiodic, order_hint
from .laurent import LaurentScalar, ONE, RationalScalar, quantum_integer
from .schur import SchurElement, UdotMonomial, phi_idempotent
from .vector import add_scaled


# Convention flags frozen by the calibration (walk_checks); the calibration
# tests assert these are the unique settings satisfying the
# composite-identity check.
# psi flag: ("offset", sign) scales [s] by v^{sign * offset_sum(s)};
# ("window", sign) is the blockwise window-sum reading; ("weight", 0) is the
# flat reading (trivial twist).
PSI_FLAG = ("offset", -1)
# value of the sign character on the length-zero rotation; calibration shows
# every monomial candidate survives (rotation terms cancel in the character
# on the image), so the simplest setting is frozen
EPS_RHO = ONE
PSI_CANDIDATES = (("offset", 1), ("offset", -1), ("window", 1),
                  ("window", -1), ("weight", 0))
# the most elimination rows `MonomialSpan` stores before it gives up
MAX_ROWS = 100_000
# the word length to which `transfer_map` grows a span before it gives up
MAX_WORD_LEN = 8


# ---------------------------------------------------------------------------
# The comultiplication route: tensor-leg evaluation of monomials


@lru_cache(maxsize=None)
def _basis_gen(s: PeriodicMatrix, kind: str, i: int) -> tuple:
    """[s] * e_i or [s] * f_i by the BLM rule (see the module docstring),
    as a tuple of (matrix, scalar) pairs; empty when the product is zero."""
    n, D = s.n, s.D
    step = 1 if kind == "e" else -1
    res = i if kind == "e" else i + 1
    out = []
    for (p, c), val in s.entries:
        if (c - res) % n:
            continue
        # the translate of entry (l, j) into column c sits at row
        # l + c - j, above row p (e) or below it (f) exactly when
        # (j - l - c + p) * step > 0; into column c + step the bound is 1
        beta = 0
        for (l, j), a in s.entries:
            diag = (j - l - c + p) * step
            if (j - c) % n == 0 and diag > 0:
                beta += a
            elif (j - c - step) % n == 0 and diag > 1:
                beta -= a
        t = s.entry_dict()
        t[(p, c)] = val - 1
        moved = t.get((p, c + step), 0) + 1
        t[(p, c + step)] = moved
        out.append((PeriodicMatrix.make(n, D, t),
                    quantum_integer(moved).shift(beta)))
    return tuple(out)


def _mul_gen_right_cached(x: SchurElement, kind: str, i: int) -> SchurElement:
    """x * e_i or x * f_i, distributed over basis matrices with caching."""
    out = {}
    for s, c in x.terms.items():
        add_scaled(out, _basis_gen(s, kind, i), c)
    return SchurElement(x.n, x.D, out)


def _omega_step(n: int, terms: dict, kind: str, i: int) -> dict:
    """Right multiplication of a tensor dict by Delta(e_i) or Delta(f_i)."""
    up, down = flag_comb.residue_classes(n, i)
    out = {}
    for (s1, s2), c in terms.items():
        nu1, nu2 = s1.col_weight(), s2.col_weight()
        if kind == "e":
            c2, c1 = c.shift(nu1[up]), c.shift(-nu2[up])
        else:
            c2, c1 = c.shift(-nu1[down]), c.shift(nu2[down])
        add_scaled(out, (((s1, t2), a) for t2, a in _basis_gen(s2, kind, i)), c2)
        add_scaled(out, (((t1, s2), a) for t1, a in _basis_gen(s1, kind, i)), c1)
    return out


def _split_tensor(n: int, D1: int, D2: int, wt: tuple) -> dict:
    """The idempotent a_wt across the rank split: every [delta w1] x
    [delta w2] with w1 + w2 = wt and sum(w1) = D1, coefficient 1."""
    terms = {}
    for w1 in flag_comb.weights(n, D1):
        w2 = tuple(b - a for a, b in zip(w1, wt))
        if min(w2) < 0:
            continue
        s1 = flag_comb.delta_matrix(flag_comb.dominant_from_weight(n, D1, w1))
        s2 = flag_comb.delta_matrix(flag_comb.dominant_from_weight(n, D2, w2))
        terms[(s1, s2)] = ONE
    return terms


def omega_route(m: UdotMonomial, D1: int, D2: int) -> dict:
    """Evaluate a word a_wt g_1 ... g_k of single Chevalley letters across
    the rank split, as a tensor dict {(matrix at D1, matrix at D2): scalar}:
    the split idempotent, multiplied on the right by each Delta(g_t)."""
    head, letters = m.letters[:1], m.letters[1:]
    if (not head or head[0][0] != "a"
            or any(g[0] == "a" or g[2] != 1 for g in letters)):
        raise ValueError(f"expected a word a_wt g_1 ... g_k of single "
                         f"Chevalley letters, got {m}")
    wt = head[0][1]
    if sum(wt) != D1 + D2:
        return {}
    terms = _split_tensor(m.n, D1, D2, wt)
    for kind, i, _k in letters:
        terms = _omega_step(m.n, terms, kind, i)
    return terms


@lru_cache(maxsize=None)
def _eps_of_basis(s: PeriodicMatrix) -> tuple:
    """The sign character on [s] by rotation degree, as (k, a_k) pairs:
    none off the standard block, else the one pair of the closed form."""
    return tuple(schur.epsilon_degrees(SchurElement.basis(s)).items())


def graded_collapse(terms: dict) -> dict:
    """The sign character on the rank-n tensor leg, graded by rotation
    degree: {k: {matrix at rank D: scalar}}, the part that rho^k scales."""
    parts = {}
    for (s1, s2), c in terms.items():
        for k, a in _eps_of_basis(s1):
            add_scaled(parts.setdefault(k, {}), ((s2, a),), c)
    return {k: part for k, part in parts.items() if part}


def evaluate_collapse(parts: dict, n: int, D: int,
                      rho_value: LaurentScalar) -> SchurElement:
    """sum_k rho^k parts[k] at a Laurent monomial rho = +-v^e: part k is
    shifted by e * k, and negated when rho = -v^e and k is odd."""
    (e, a), = rho_value.items()
    if a * a != 1:
        raise ArithmeticError("calibration constant must be invertible")
    out = {}
    for k, part in parts.items():
        flip = a == -1 and k % 2
        add_scaled(out, ((s, -c.shift(e * k) if flip else c.shift(e * k))
                         for s, c in part.items()))
    return SchurElement(n, D, out)


def _apply_psi(x: SchurElement, psi_flag: tuple) -> SchurElement:
    mode, sign = psi_flag
    if mode == "weight":
        return x
    if mode == "window":
        return schur.psi_twist(x, sign)
    if mode == "offset":
        return schur.offset_twist(x, sign)
    raise ValueError(f"unknown psi mode {mode!r}")


def transfer_route_b(m: UdotMonomial, D: int) -> SchurElement:
    """The comultiplication route: psi o (epsilon x 1) o omega on a monomial
    anchored at total weight D + n."""
    return collapse_twist(graded_collapse(omega_route(m, m.n, D)), m.n, D)


def collapse_twist(parts: dict, n: int, D: int) -> SchurElement:
    """psi o (epsilon x 1) at the frozen conventions, from the graded
    collapse (graded_collapse) of a tensor of the rank-n / rank-D split."""
    return _apply_psi(evaluate_collapse(parts, n, D, EPS_RHO), PSI_FLAG)


# ---------------------------------------------------------------------------
# Calibration of the convention flags


def enumerate_monomials(n: int, total: int, max_len: int):
    """All words a_lam g_1 ... g_k (k <= max_len, single powers)."""
    gens = [(kind, i, 1) for kind in ("e", "f") for i in range(n)]
    for lam in flag_comb.weights(n, total):
        for length in range(max_len + 1):
            for word in iter_product(gens, repeat=length):
                yield UdotMonomial(n, (("a", lam),) + word)


def _lowered_idempotent(n: int, D: int, wt: tuple) -> SchurElement:
    """The transfer of 1_wt to rank D: 1_{wt - (1, ..., 1)}, or 0 when wt
    has a zero part or D < 1.  A word a_wt g_1 ... g_k transfers to this
    times g_1 ... g_k."""
    if D < 1 or min(wt) < 1:
        return SchurElement.zero(n, D)
    return phi_idempotent(n, D, tuple(x - 1 for x in wt))


def route_pairs(n: int, D: int, max_len: int):
    """Yield (m, omega_route(m, n, D), transfer of m to rank D) for every
    word m of enumerate_monomials(n, D + n, max_len), depth first: each
    word extends its prefix's tensor and transfer by one letter."""
    gens = [(kind, i) for kind in ("e", "f") for i in range(n)]

    def walk(letters, tensor, low):
        yield UdotMonomial(n, letters), tensor, low
        if len(letters) > max_len:
            return
        for kind, i in gens:
            yield from walk(letters + ((kind, i, 1),),
                            _omega_step(n, tensor, kind, i),
                            _mul_gen_right_cached(low, kind, i))

    for lam in flag_comb.weights(n, D + n):
        yield from walk((("a", lam),), _split_tensor(n, n, D, lam),
                        _lowered_idempotent(n, D, lam))


def calibration_candidates(n: int) -> list:
    """Every (psi_flag, rho_value) setting the calibration starts from: each
    psi flag with each rho = +-v^e, |e| <= n."""
    return [(flag, LaurentScalar.monomial(a, e))
            for flag in PSI_CANDIDATES
            for a in (1, -1)
            for e in range(-n, n + 1)]


def calibration_step(candidates: list, n: int, D: int, parts: dict,
                     rhs: SchurElement) -> list:
    """The candidates under which one word's graded collapse (the parts of
    graded_collapse), evaluated and twisted, equals its rank-lowered
    evaluation rhs."""
    # rho enters only through rho^k: a word with no rotating part
    # collapses alike for every rho, so each flag is decided once
    rotating = any(k != 0 for k in parts)
    collapsed, verdicts, survivors = {}, {}, []
    for flag, rho in candidates:
        key = rho if rotating else EPS_RHO
        if (flag, key) not in verdicts:
            if key not in collapsed:
                collapsed[key] = evaluate_collapse(parts, n, D, key)
            verdicts[flag, key] = _apply_psi(collapsed[key], flag) == rhs
        if verdicts[flag, key]:
            survivors.append((flag, rho))
    return survivors


def walk_checks(n: int, word_len: int):
    """Calibration and composition check from one route_pairs walk per
    D in (1, 2).

    Each word of length <= 3 filters the calibration candidates: the
    (psi_flag, rho_value) settings under which the comultiplication route
    reproduces the rank-lowered evaluation on every word so far.  Each word
    of length <= word_len is checked for psi o (epsilon x 1) o omega = phi
    of its reduction.  The walk is streamed, never stored.  Returns
    (surviving candidates, {D: (words passed, words checked)}).  Both sides
    of the composition check come from the walk; the dual-route case and
    the tests check the walk against phi_monomial.

    The calibration pins the psi flag but not rho: at every size checked
    (n = 2 at D = 1 and 2, n = 3 at D = 1, words up to length 3) the
    rotating terms of each word's tensor cancel in its collapse, so every
    rho candidate survives, and transfer/calibration reports "rho
    candidates 10" at n = 2 whatever EPS_RHO is."""
    candidates = calibration_candidates(n)
    composition = {}
    for D in (1, 2):
        passed = total = 0
        for m, tensor, rhs in route_pairs(n, D, max(3, word_len)):
            length = len(m.letters) - 1
            parts = graded_collapse(tensor)
            if length <= 3 and candidates:
                candidates = calibration_step(candidates, n, D, parts, rhs)
            if length <= word_len:
                total += 1
                passed += collapse_twist(parts, n, D) == rhs
        composition[D] = (passed, total)
    return candidates, composition


# ---------------------------------------------------------------------------
# The linear-solve route


@dataclass
class MonomialSpan:
    """An incrementally grown spanning set of monomial images at rank D,
    with an exact elimination workspace over the rational function field.

    Each anchor weight wt is searched breadth first from the idempotent
    1_wt, one right factor e_i or f_i per depth.  A child image is kept,
    and later extended, only when it adds an elimination row; the frontier
    at depth d is the list of the anchor's rows of depth d.  This spans
    every word image of depth <= d, by induction on d: each word image of
    depth d is a combination of rows of depth <= d, so its children are
    combinations of the children of those rows; each such child was tried
    and is either a row or a combination of earlier rows.  Every depth
    therefore adds as many rows as a search over all distinct images would.
    All terms of an image share the anchor's row weight (right factors
    change only the column weight), so a row never reduces an image of
    another anchor.

    A row (pivot, vec, low) carries low, the transfer of vec to rank
    D - n: if vec is a combination of word images, low is the same
    combination of the words' transfers (`_lowered_idempotent` times the
    word's right factors; 0 when D <= n).  A word's transfer folds the same
    right factors as its image.  `_reduce` subtracts c vec and adds c low,
    and `_insert` scales (the image's transfer minus the added lows) by the
    pivot's inverse, as it scales vec, so every row keeps this invariant
    and `solve` returns the transfer of x.
    """
    n: int
    D: int
    monomials: list = field(default_factory=list)
    images: list = field(default_factory=list)
    _rows: list = field(default_factory=list)   # (pivot, vec, low)
    _frontier: dict = field(default_factory=dict)  # anchor -> last words
    _grown: dict = field(default_factory=dict)  # anchor -> word length

    @property
    def word_len(self) -> int:
        return max(self._grown.values(), default=0)

    def _vec_of(self, x: SchurElement) -> dict:
        return {s: RationalScalar.from_laurent(c) for s, c in x.terms.items()}

    def _reduce(self, vec: dict):
        low = {}
        for pivot, rvec, rlow in self._rows:
            c = vec.get(pivot)
            if c is None:
                continue
            add_scaled(vec, rvec, -c)
            add_scaled(low, rlow, c)
        return vec, low

    def _insert(self, mono: UdotMonomial, image: SchurElement,
                low_image: SchurElement) -> bool:
        """Add image, whose transfer is low_image, as a row unless it
        reduces to 0; True if it did."""
        vec, low = self._reduce(self._vec_of(image))
        if not vec:
            return False
        if len(self._rows) >= MAX_ROWS:
            raise RuntimeError(f"span search exceeded {MAX_ROWS} rows")
        self.monomials.append(mono)
        self.images.append(image)
        pivot = min(vec, key=lambda s: s.entries)
        inv = RationalScalar.one() / vec[pivot]
        low = add_scaled(self._vec_of(low_image), low, -RationalScalar.one())
        self._rows.append((pivot, {s: inv * c for s, c in vec.items()},
                           {s: inv * c for s, c in low.items()}))
        return True

    def grow(self, anchors, max_len: int):
        """Extend each anchor's breadth-first search to the given word
        length (incremental and idempotent per anchor)."""
        n = self.n
        gens = [(kind, i) for kind in ("e", "f") for i in range(n)]
        for wt in anchors:
            wt = tuple(wt)
            if wt not in self._grown:
                if sum(wt) != self.D:
                    raise ValueError("anchor weight must sum to the rank")
                self._grown[wt] = 0
                word = (UdotMonomial(n, (("a", wt),)),
                        phi_idempotent(n, self.D, wt),
                        _lowered_idempotent(n, self.D - n, wt))
                self._insert(*word)
                self._frontier[wt] = [word]
            while self._grown[wt] < max_len:
                self._grown[wt] += 1
                nxt = []
                for mono, image, low in self._frontier[wt]:
                    for kind, i in gens:
                        child = _mul_gen_right_cached(image, kind, i)
                        if child.is_zero():
                            continue
                        word = (UdotMonomial(n, mono.letters + ((kind, i, 1),)),
                                child, _mul_gen_right_cached(low, kind, i))
                        if self._insert(*word):
                            nxt.append(word)
                self._frontier[wt] = nxt

    def solve(self, x: SchurElement):
        """The transfer of x to rank D - n, {matrix: scalar} over Q(v), or
        None if x is outside the current span."""
        vec, low = self._reduce(self._vec_of(x))
        return None if vec else low


def transfer_map(x: SchurElement, span: MonomialSpan) -> SchurElement:
    """The rank-lowering map: solve x in the span at rank D + n, whose rows
    carry their transfers to rank D, growing the span's search from x's row
    weights up to MAX_WORD_LEN."""
    n = x.n
    if span.D != x.D or span.n != n:
        raise ValueError("span rank mismatch")
    D = x.D - n
    if D < 1:
        raise ValueError("target rank must be positive")
    anchors = {s.row_weight() for s in x.terms}
    low = span.solve(x)
    grown = 0
    while low is None and grown < MAX_WORD_LEN:
        grown += 1
        span.grow(anchors, grown)
        low = span.solve(x)
    if low is None:
        residual, _ = span._reduce(span._vec_of(x))
        raise ValueError(f"element outside the monomial span up to word "
                         f"length {grown}; residual support "
                         f"{sorted(residual, key=lambda s: s.entries)}")
    for s, c in low.items():
        if not c.is_laurent():
            raise ArithmeticError(
                f"transfer produced a non-polynomial coefficient at {s}; "
                "the solve is preimage-dependent")
    return SchurElement(n, D, {s: c.as_laurent() for s, c in low.items()})


# ---------------------------------------------------------------------------
# Matrix helpers for the theorem checkers


def matrix_minus_identity(s: PeriodicMatrix):
    """The matrix t with t_ij = s_ij - delta_ij at rank D - n; None when a
    diagonal entry would go negative."""
    d = s.entry_dict()
    for i in range(1, s.n + 1):
        val = s.lookup(i, i)
        if val < 1:
            return None
        if val == 1:
            d.pop((i, i))
        else:
            d[(i, i)] = val - 1
    return PeriodicMatrix.make(s.n, s.D - s.n, d)


def band_matrices(n: int, D: int, band: int):
    """All periodic matrices with support within |j - i| <= band."""
    positions = [(i, j) for i in range(1, n + 1)
                 for j in range(i - band, i + band + 1)]
    out = []

    def rec(idx, remaining, cells):
        if idx == len(positions):
            if remaining == 0:
                out.append(PeriodicMatrix.make(n, D, dict(cells)))
            return
        lo = remaining if idx == len(positions) - 1 else 0
        for val in range(lo, remaining + 1):
            rec(idx + 1, remaining - val,
                cells + ([(positions[idx], val)] if val else []))

    rec(0, D, [])
    return out


def aperiodic_band_matrices(n: int, D: int, band: int):
    return [s for s in band_matrices(n, D, band) if is_aperiodic(s)]


# ---------------------------------------------------------------------------
# Theorem checkers


def check_leading_term(s: PeriodicMatrix, span: MonomialSpan) -> dict:
    """Leading-term check: the transfer of [s] (all diagonal entries >= 1)
    is c [t] plus lower terms, t = s minus the identity."""
    t = matrix_minus_identity(s)
    if t is None:
        return {"matrix": s, "ok": False,
                "reason": "a diagonal entry is below 1"}
    try:
        y = transfer_map(SchurElement.basis(s), span)
    except ValueError:
        # [s] need not lie in the image of the evaluation homomorphism
        # (its canonical correction terms can carry periodic labels), and
        # the transfer is only computable there
        return {"matrix": s, "ok": None, "reason": "outside the computable domain"}
    lead = y.coeff(t)
    lower_ok = True
    for u in y.terms:
        if u == t:
            continue
        if (u.row_weight() != t.row_weight()
                or u.col_weight() != t.col_weight()
                or order_hint(u, t) != "consistent"):
            lower_ok = False
    return {"matrix": s, "shift": t, "leading": lead,
            "lower_ok": lower_ok, "ok": (not lead.is_zero()) and lower_ok}


def check_canonical_transfer(s: PeriodicMatrix, span: MonomialSpan,
                             system: canonical.BarSystem = None) -> dict:
    """Transfer of a canonical basis element b_s, s aperiodic: expect 0 when
    the identity-shift goes negative, b_t otherwise (t = s - I is aperiodic
    with s, since the two differ only on the diagonal).  system is a module
    system (`canonical.tmodule_system`); it serves both ranks."""
    if not is_aperiodic(s):
        raise ValueError("expected an aperiodic matrix")
    if system is None:
        system = canonical.tmodule_system()
    n, Dhigh = s.n, s.D
    exp = canonical.canonical_schur(s, system)
    x = SchurElement(n, Dhigh, exp.as_dict())
    y = transfer_map(x, span)
    t = matrix_minus_identity(s)
    if t is None:
        verdict = "matches-(a)" if y.is_zero() else "counterexample"
        expected = None
    else:
        exp_t = canonical.canonical_schur(t, system)
        expected = SchurElement(n, Dhigh - n, exp_t.as_dict())
        verdict = "matches-(b)" if y == expected else "counterexample"
    return {"matrix": s, "shift": t, "output": y, "expected": expected,
            "verdict": verdict}
