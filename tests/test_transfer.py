"""Rank-lowering transfer: comultiplication route, span solve, checkers."""

from dataclasses import dataclass, field

import pytest
from hypothesis import example, given, settings, strategies as st

from affine_schur import canonical, flag_comb as fc, schur, transfer
from affine_schur.flag_comb import PeriodicMatrix
from affine_schur.laurent import LaurentScalar, ONE, RationalScalar
from affine_schur.schur import SchurElement, UdotMonomial
from affine_schur.vector import add_scaled

from oracles import (CombinationSpan, combination_transfer_map, epsilon_sign,
                     omega_route, phi_f, phi_of_reduction, reduce_by_full_scan,
                     reduce_monomial, resolve_weights)


def test_frozen_conventions():
    assert transfer.PSI_FLAG == ("offset", -1)
    assert transfer.EPS_RHO == ONE


def test_reduce_monomial():
    m = UdotMonomial(2, (("a", (2, 2)), ("e", 1, 1)))
    red = reduce_monomial(m)
    assert red.letters == (("a", (1, 1)), ("e", 1, 1))
    # weights with a zero part cannot be reduced
    assert reduce_monomial(UdotMonomial(2, (("a", (2, 0)),))) is None


def test_resolve_weights():
    m = UdotMonomial(2, (("a", (1, 1)), ("e", 1, 1)))
    gens, weights = resolve_weights(m)
    assert weights[0] == (1, 1)
    # a_{mu+w_1} e_1 = e_1 a_{mu+w_2}
    assert weights[-1] == (0, 2)
    # clashing idempotents resolve to nothing
    bad = UdotMonomial(2, (("a", (1, 1)), ("a", (2, 0))))
    assert resolve_weights(bad) is None


def test_composition_on_short_words():
    for m in transfer.enumerate_monomials(2, 3, 2):
        assert transfer.transfer_route_b(m, 1) == phi_of_reduction(m, 1)


def test_transfer_of_idempotent(span4):
    x = schur.phi_idempotent(2, 4, (2, 2))
    y = transfer.transfer_map(x, span4)
    assert y == schur.phi_idempotent(2, 2, (1, 1))


def test_transfer_linear_in_scalars(span4):
    x = schur.phi_e(2, 4, 1, (2, 2))
    y = transfer.transfer_map(x, span4)
    y2 = transfer.transfer_map(x.scale(LaurentScalar.v(3)), span4)
    assert y2 == y.scale(LaurentScalar.v(3))


def test_periodic_basis_outside_domain(span4, monkeypatch):
    s = PeriodicMatrix.make(2, 4, {(1, 1): 1, (2, 2): 1, (1, 2): 1, (2, 3): 1})
    monkeypatch.setattr(transfer, "MAX_WORD_LEN", 4)
    with pytest.raises(transfer.OutsideSpanError):
        transfer.transfer_map(SchurElement.basis(s), span4)


def test_leading_term_on_generator_matrix(span4):
    e_mat, _ = fc.generator_matrices((2, 2), 1, 1)
    s = PeriodicMatrix.make(2, 4, dict(e_mat.entries))
    r = transfer.check_leading_term(s, span4)
    assert r["ok"] and r["leading"] == ONE


@pytest.mark.parametrize("span_n, span_D", [(2, 5), (3, 4)])
def test_leading_term_raises_on_a_span_of_another_rank(span_n, span_D):
    # only an element outside the span is outside the computable domain; a
    # span of another (n, D) is the caller's error and is not skipped
    s = PeriodicMatrix.make(2, 4, {(1, 1): 2, (2, 2): 2})
    with pytest.raises(ValueError, match="span rank mismatch"):
        transfer.check_leading_term(s, transfer.MonomialSpan(span_n, span_D))


def test_canonical_transfer_both_verdicts(span4, tsys):
    diag = PeriodicMatrix.make(2, 4, {(1, 1): 2, (2, 2): 2})
    r = transfer.check_canonical_transfer(diag, span4, tsys)
    assert r["verdict"] == "matches-(b)"
    assert r["output"].terms == {
        PeriodicMatrix.make(2, 2, {(1, 1): 1, (2, 2): 1}): ONE}
    # a matrix with an empty diagonal entry transfers to zero
    z = PeriodicMatrix.make(2, 4, {(1, 1): 2, (1, 2): 1, (2, 3): 1})
    if fc.is_aperiodic(z):
        rz = transfer.check_canonical_transfer(z, span4, tsys)
        assert rz["verdict"] == "matches-(a)"


def test_band_enumeration_counts():
    mats = transfer.band_matrices(2, 2, 1)
    assert all(m.total() == 2 for m in mats)
    assert len(set(mats)) == len(mats)
    aper = transfer.aperiodic_band_matrices(2, 4, 2)
    assert len(aper) == 501
    assert all(fc.is_aperiodic(s) for s in aper)


def calibrate_flags(n=2, Ds=(1, 2), max_len=3):
    """All (psi_flag, rho_value) settings under which the comultiplication
    route reproduces the rank-lowered evaluation on every test monomial,
    each D walked on its own: the oracle for transfer.walk_checks."""
    candidates = transfer.calibration_candidates(n)
    for D in Ds:
        for _m, tensor, rhs in transfer.route_pairs(n, D, max_len):
            candidates = transfer.calibration_step(
                candidates, n, D, transfer.graded_collapse(tensor), rhs)
            if not candidates:
                return []
    return candidates


def test_calibration_unique_psi():
    flags = calibrate_flags(n=2, Ds=(1,), max_len=2)
    assert {f[0] for f in flags} == {("offset", -1)}


def calibrate_flags_per_monomial(n, Ds, max_len):
    """Calibration that evaluates every word from scratch and collapses it
    term by term through epsilon_sign once per candidate: the oracle
    for calibrate_flags."""
    eps = {}

    def collapse(tensor, D, rho):
        out = {}
        for (s1, s2), c in tensor.items():
            if (s1, rho) not in eps:
                eps[s1, rho] = epsilon_sign(SchurElement.basis(s1), rho)
            add_scaled(out, ((s2, c * eps[s1, rho]),))
        return SchurElement(n, D, out)

    candidates = [(flag, LaurentScalar.monomial(a, e))
                  for flag in transfer.PSI_CANDIDATES
                  for a in (1, -1)
                  for e in range(-n, n + 1)]
    for D in Ds:
        for m in transfer.enumerate_monomials(n, D + n, max_len):
            tensor = omega_route(m, n, D)
            rhs = phi_of_reduction(m, D)
            survivors = []
            for flag, rho in candidates:
                x = collapse(tensor, D, rho)
                if transfer._apply_psi(x, flag) == rhs:
                    survivors.append((flag, rho))
            candidates = survivors
            if not candidates:
                return []
    return candidates


def test_calibration_matches_per_monomial_route():
    fast = calibrate_flags(2, (1, 2), 3)
    assert fast == calibrate_flags_per_monomial(2, (1, 2), 3)
    assert fast


def test_calibration_matches_per_monomial_route_at_n3():
    fast = calibrate_flags(3, (1,), 2)
    assert fast == calibrate_flags_per_monomial(3, (1,), 2)
    assert fast


def collapse_per_term(tensor, n, D, rho):
    """The sign character on the rank-n leg, one epsilon_sign per
    tensor term: the oracle for transfer.graded_collapse evaluated by
    transfer.evaluate_collapse."""
    out = {}
    for (s1, s2), c in tensor.items():
        add_scaled(out, ((s2, c * epsilon_sign(SchurElement.basis(s1),
                                                     rho)),))
    return SchurElement(n, D, out)


def _rho_candidates(n):
    return [LaurentScalar.monomial(a, e) for a in (1, -1)
            for e in range(-n, n + 1)]


# the rank-n legs: the standard block of S_n, where the rotations
# (k != 0) live, and matrices of other blocks
_LEGS = {n: [s for s in transfer.band_matrices(n, n, 2)
             if s.row_weight() == s.col_weight() == (1,) * n]
         + transfer.band_matrices(n, n, 1) for n in (2, 3)}
_coeffs = st.dictionaries(st.integers(-3, 3), st.integers(-3, 3),
                          min_size=1, max_size=3).map(LaurentScalar)


@st.composite
def split_tensors(draw):
    """(n, D, tensor) with tensor {(leg at rank n, matrix at rank D):
    scalar}; legs with rotating parts are drawn often."""
    n, D = draw(st.sampled_from(((2, 1), (2, 2), (3, 1))))
    rights = transfer.band_matrices(n, D, 1)
    tensor = {}
    for _ in range(draw(st.integers(1, 5))):
        key = (draw(st.sampled_from(_LEGS[n])), draw(st.sampled_from(rights)))
        tensor[key] = tensor.get(key, LaurentScalar.zero()) + draw(_coeffs)
    return n, D, {key: c for key, c in tensor.items() if not c.is_zero()}


def test_split_tensor_legs_rotate():
    for n in (2, 3):
        assert any(k != 0 for s in _LEGS[n]
                   for k, _a in transfer._eps_of_basis(s))


@settings(max_examples=40, deadline=None)
@given(split_tensors())
def test_epsilon_collapse_matches_per_term(case):
    n, D, tensor = case
    for rho in _rho_candidates(n):
        assert (transfer.evaluate_collapse(transfer.graded_collapse(tensor),
                                           n, D, rho)
                == collapse_per_term(tensor, n, D, rho))


def test_calibration_filter_separates_rho(monkeypatch):
    n, D = 2, 1
    # an odd rotation degree tells every +-v^e apart
    leg = next(s for s in _LEGS[n]
               if any(k % 2 for k, _a in transfer._eps_of_basis(s)))
    tensor = {(leg, transfer.band_matrices(n, D, 1)[0]): ONE}
    rho = LaurentScalar.v(1)
    rhs = collapse_per_term(tensor, n, D, rho)
    monkeypatch.setattr(transfer, "route_pairs",
                        lambda *_args: iter([(None, tensor, rhs)]))
    flags = calibrate_flags(n, (D,), 0)
    # a twist may trade a power of v for another rho; the flat reading
    # cannot
    assert [r for f, r in flags if f == ("weight", 0)] == [rho]


@settings(max_examples=25, deadline=None)
@given(split_tensors(), st.data())
def test_calibration_filter_on_rotating_words(case, data):
    """calibrate_flags on words whose collapses may depend on rho: each
    word's target is the collapse at a drawn (flag, rho), so the survivors
    depend on rho whenever a rotating part is left after summing."""
    n, D, tensor = case
    words = []
    for _ in range(data.draw(st.integers(1, 3))):
        flag = data.draw(st.sampled_from(transfer.PSI_CANDIDATES))
        rho = data.draw(st.sampled_from(_rho_candidates(n)))
        words.append((None, tensor,
                      transfer._apply_psi(collapse_per_term(tensor, n, D, rho),
                                          flag)))
    expected = [(flag, rho) for flag in transfer.PSI_CANDIDATES
                for rho in _rho_candidates(n)
                if all(transfer._apply_psi(collapse_per_term(tensor, n, D, rho),
                                           flag) == rhs
                       for _m, _t, rhs in words)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transfer, "route_pairs", lambda *_args: iter(words))
        assert calibrate_flags(n, (D,), 0) == expected


# (2, 1, 4) reaches the word length of the REFERENCE transfer suite
@pytest.mark.parametrize("n,D,max_len", [(2, 1, 3), (2, 1, 4), (2, 2, 3), (3, 1, 2)])
def test_route_pairs_match_word_by_word_routes(n, D, max_len):
    pairs = list(transfer.route_pairs(n, D, max_len))
    words = list(transfer.enumerate_monomials(n, D + n, max_len))
    walked = {m: (tensor, phi) for m, tensor, phi in pairs}
    # every word exactly once
    assert len(pairs) == len(walked) == len(words)
    assert set(walked) == set(words)
    for m in words:
        tensor, phi = walked[m]
        assert tensor == omega_route(m, n, D)
        assert phi == phi_of_reduction(m, D)


def hecke_basis_gen(s, kind, i):
    """[s] * e_i or [s] * f_i through the Hecke algebra: the oracle for the
    BLM rule in transfer._basis_gen."""
    n, D = s.n, s.D
    x = SchurElement.basis(s)
    wt = s.col_weight()
    if kind == "e":
        return schur.schur_mul(x, schur.phi_e(n, D, i, wt))
    # f_i a_lam with left weight wt has right weight lam
    lam = tuple(a - b for a, b in zip(wt, schur._wshift(n, "f", i, 1)))
    return (SchurElement.zero(n, D) if min(lam) < 0
            else schur.schur_mul(x, phi_f(n, D, i, lam)))


def blm_basis_gen(s, kind, i):
    return SchurElement(s.n, s.D, dict(transfer._basis_gen(s, kind, i)))


@pytest.mark.parametrize("n,D,band", [
    pytest.param(2, 3, 2, id="3-2"), pytest.param(2, 4, 1, id="4-1"),
    pytest.param(3, 2, 2, id="n3-2-2"), pytest.param(3, 3, 1, id="n3-3-1")])
def test_basis_gen_matches_schur_mul(n, D, band):
    for s in transfer.band_matrices(n, D, band):
        for kind in ("e", "f"):
            for i in range(n):
                assert blm_basis_gen(s, kind, i) == hecke_basis_gen(s, kind, i)


@st.composite
def drawn_band_matrices(draw):
    """A periodic matrix at n = 2..4, D <= 5, its D units placed within
    band 1 or 2 of the diagonal."""
    n = draw(st.integers(2, 4))
    D = draw(st.integers(1, 5))
    band = draw(st.integers(1, 2))
    cells = {}
    for _ in range(D):
        p = draw(st.integers(1, n))
        key = (p, p + draw(st.integers(-band, band)))
        cells[key] = cells.get(key, 0) + 1
    return PeriodicMatrix.make(n, D, cells)


@settings(max_examples=60, deadline=None)
@given(drawn_band_matrices())
def test_basis_gen_matches_schur_mul_on_drawn_matrices(s):
    for kind in ("e", "f"):
        for i in range(s.n):
            assert blm_basis_gen(s, kind, i) == hecke_basis_gen(s, kind, i)


@settings(max_examples=100, deadline=None)
@given(drawn_band_matrices())
def test_identity_shift_preserves_aperiodicity(t):
    """s = t + I and t differ only at offset 0, which `is_aperiodic` never
    reads, so the canonical sweep has no shifted matrix to reject."""
    cells = dict(t.entries)
    for i in range(1, t.n + 1):
        cells[(i, i)] = cells.get((i, i), 0) + 1
    s = PeriodicMatrix.make(t.n, t.D + t.n, cells)
    assert transfer.matrix_minus_identity(s) == t
    assert fc.is_aperiodic(s) == fc.is_aperiodic(t)


def separate_walks(n, word_len):
    """The calibration and the composition check as separate route_pairs
    walks: the oracle for transfer.walk_checks."""
    flags = calibrate_flags(n, (1, 2), 3)
    composition = {}
    for D in (1, 2):
        ok = [transfer.collapse_twist(transfer.graded_collapse(tensor), n, D)
              == rhs
              for _m, tensor, rhs in transfer.route_pairs(n, D, word_len)]
        composition[D] = (sum(ok), len(ok))
    return flags, composition


@pytest.mark.parametrize("word_len", [2, 3, 4])
@pytest.mark.parametrize("bad_len", [None, 3, 4])
def test_walk_checks_match_separate_walks(monkeypatch, word_len, bad_len):
    """One walk gives the separate walks' survivors and counts.  With
    bad_len set, every word of that length gets a wrong target, so the
    calibration (bad_len 3) or the composition count (bad_len 4 at
    word_len 4) tells which words each check may see."""
    n = 2
    walk = transfer.route_pairs

    def corrupted(n, D, max_len):
        wrong = SchurElement.basis(transfer.band_matrices(n, D, 0)[0])
        for m, tensor, rhs in walk(n, D, max_len):
            yield m, tensor, (rhs + wrong if len(m.letters) - 1 == bad_len
                              else rhs)

    monkeypatch.setattr(transfer, "route_pairs", corrupted)
    got = transfer.walk_checks(n, word_len)
    assert got == separate_walks(n, word_len)
    flags, composition = got
    assert bool(flags) == (bad_len != 3)
    assert all((passed == total) == (bad_len is None or bad_len > word_len)
               for passed, total in composition.values())


@dataclass
class ScalarKeyedSpan(CombinationSpan):
    """The search that the row-pruned MonomialSpan.grow replaced: extend
    every child image that is new up to a global scalar, whether or not it
    adds a row.  The oracle for the pruned search."""
    _seen: set = field(default_factory=set)

    @staticmethod
    def _key(x: SchurElement):
        items = sorted(x.terms.items(), key=lambda t: t[0].entries)
        c0 = RationalScalar.from_laurent(items[0][1])
        return tuple((s, RationalScalar.from_laurent(c) / c0) for s, c in items)

    def grow(self, anchors, max_len: int):
        gens = [(kind, i) for kind in ("e", "f") for i in range(self.n)]
        for wt in map(tuple, anchors):
            if wt not in self._grown:
                self._grown[wt] = 0
                mono = UdotMonomial(self.n, (("a", wt),))
                image = schur.phi_idempotent(self.n, self.D, wt)
                self._seen.add(self._key(image))
                self._frontier[wt] = [(mono, image)]
                self._insert(mono, image)
            while self._grown[wt] < max_len:
                self._grown[wt] += 1
                nxt = []
                for mono, image in self._frontier[wt]:
                    for kind, i in gens:
                        child = transfer._mul_gen_right_cached(image, kind, i)
                        if child.is_zero():
                            continue
                        key = self._key(child)
                        if key in self._seen:
                            continue
                        self._seen.add(key)
                        cmono = UdotMonomial(self.n,
                                             mono.letters + ((kind, i, 1),))
                        nxt.append((cmono, child))
                        self._insert(cmono, child)
                self._frontier[wt] = nxt


def _value_or_error(fn, *args):
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc)


@pytest.mark.parametrize("n,D,depth", [(2, 3, 6), (2, 4, 5), (3, 3, 3), (3, 4, 3)])
def test_pruned_span_matches_scalar_keyed_search(monkeypatch, n, D, depth):
    monkeypatch.setattr(transfer, "MAX_WORD_LEN", 0)
    anchors = list(fc.weights(n, D))
    pruned, oracle = transfer.MonomialSpan(n, D), ScalarKeyedSpan(n, D)
    for d in range(1, depth + 1):
        pruned.grow(anchors, d)
        oracle.grow(anchors, d)
        assert len(pruned.monomials) == len(oracle.monomials), d
    solved = 0
    for s in transfer.band_matrices(n, D, 1):
        x = SchurElement.basis(s)
        assert (pruned.solve(x) is None) == (oracle.solve(x) is None), s
        if D > n and pruned.solve(x) is not None:
            solved += 1
            assert (_value_or_error(transfer.transfer_map, x, pruned)
                    == _value_or_error(combination_transfer_map, x, oracle, 0))
    assert solved or D <= n


def test_pruned_span_grows_incrementally():
    anchors = list(fc.weights(2, 3))
    stepped, at_once = transfer.MonomialSpan(2, 3), transfer.MonomialSpan(2, 3)
    stepped.grow(anchors, 2)
    stepped.grow(anchors, 5)
    at_once.grow(anchors, 5)

    def by_anchor(span):
        out = {}
        for m in span.monomials:
            out.setdefault(m.letters[0], []).append(m)
        return out

    assert by_anchor(stepped) == by_anchor(at_once)
    assert stepped._grown == at_once._grown == {wt: 5 for wt in anchors}


def test_span_row_bound(monkeypatch):
    anchors = list(fc.weights(2, 3))
    monkeypatch.setattr(transfer, "MAX_ROWS", 16)
    span = transfer.MonomialSpan(2, 3)
    span.grow(anchors, 1)
    assert len(span.monomials) == 16
    with pytest.raises(RuntimeError, match="16 rows"):
        span.grow(anchors, 2)


# a few labels in pivot order, so that drawn rows overlap and cancel often
_PIVOT_LABELS = sorted(transfer.band_matrices(2, 2, 1), key=lambda s: s.entries)[:5]
_small_coeffs = st.builds(lambda c, e: LaurentScalar({e: c}),
                          st.sampled_from((-2, -1, 1, 2)), st.integers(-1, 1))


def _label_vector(*cells) -> SchurElement:
    return SchurElement(2, 2, add_scaled(
        {}, ((_PIVOT_LABELS[k], LaurentScalar.const(c)) for k, c in cells)))


@st.composite
def label_vectors(draw) -> SchurElement:
    return SchurElement(2, 2, add_scaled({}, [
        (draw(st.sampled_from(_PIVOT_LABELS)), draw(_small_coeffs))
        for _ in range(draw(st.integers(0, 5)))]))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(label_vectors(), label_vectors()), min_size=1,
                max_size=8))
# rows with pivots 0, 1, 2; the last vector holds row 2's pivot, which row 0
# cancels and row 1 brings back, so only a visit of row 2 after row 1
# reduces it to 0
@example([(_label_vector((0, 1), (2, 1)), _label_vector((3, 1))),
          (_label_vector((1, 1), (2, 1)), _label_vector((4, 1))),
          (_label_vector((2, 1)), _label_vector((3, 1), (4, 1))),
          (_label_vector((0, 1), (1, -1), (2, 1)), _label_vector())])
def test_pivot_indexed_reduce_matches_full_scan(insertions):
    """Before each insertion, MonomialSpan._reduce gives the (vec, low) of
    the full scan over the rows, with the same dict order."""
    span = transfer.MonomialSpan(2, 2)
    for image, low_image in insertions:
        got = span._reduce(span._vec_of(image))
        want = reduce_by_full_scan(span._rows, span._vec_of(image))
        assert [list(d.items()) for d in got] == [list(d.items()) for d in want]
        span._insert(None, image, low_image)


def test_leading_term_verdicts_with_outside_matrices():
    """n = 2, D + n = 3, band 2: the span leaves 4 of the 10 matrices
    undecided up to word length MAX_WORD_LEN = 8, the depth transfer_map
    grows to."""
    span = transfer.MonomialSpan(2, 3)
    diag = [s for s in transfer.band_matrices(2, 3, 2)
            if all(s.lookup(i, i) >= 1 for i in (1, 2))]
    results = [transfer.check_leading_term(s, span) for s in diag]
    assert len(results) == 10
    assert [r["ok"] for r in results].count(True) == 6
    # the diagonal plus one entry two steps off it, in either row
    outside = {r["matrix"] for r in results if r["ok"] is None}
    assert outside == {PeriodicMatrix.make(2, 3, {(1, 1): 1, (2, 2): 1, cell: 1})
                       for cell in ((1, -1), (1, 3), (2, 0), (2, 4))}


def test_omega_route_rejects_other_words():
    for letters in ((("e", 0, 1), ("a", (2, 1))),  # a letter left of the anchor
                    (("a", (2, 1)), ("e", 0, 1), ("a", (1, 2))),  # a second idempotent
                    (("a", (2, 1)), ("f", 1, 2))):  # a divided power
        with pytest.raises(ValueError, match="single Chevalley letters"):
            transfer.omega_route(UdotMonomial(2, letters), 2, 1)


@st.composite
def anchored_words(draw):
    """(n, D, a_wt g_1 ... g_k) with single letters, k <= 4; wt sums to
    D + n, or one off it."""
    n, D = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    total = draw(st.sampled_from((D + n - 1, D + n, D + n, D + n + 1)))
    wt = draw(st.sampled_from(list(fc.weights(n, total))))
    letters = draw(st.lists(st.tuples(st.sampled_from("ef"),
                                      st.integers(0, n - 1)), max_size=4))
    return n, D, UdotMonomial(n, (("a", wt),) + tuple(
        (kind, i, 1) for kind, i in letters))


@settings(max_examples=60, deadline=None)
@given(anchored_words())
def test_omega_fold_matches_weight_profile_route(case):
    n, D, m = case
    assert transfer.omega_route(m, n, D) == omega_route(m, n, D)


# the depth both spans grow to in the property below, and the spans it
# shares across examples: {(n, D): (row-image span, combination span)}
_ORACLE_DEPTH = 3
_SHARED_SPANS = {}
_BAND_1 = {}


@st.composite
def drawn_combinations(draw):
    """A Z[v, v^-1] combination of up to four band-1 basis elements at
    (n, D) in {(2, 3), (2, 4), (3, 4)}, each drawn half the time among
    those with every diagonal entry >= 1 (whose transfer is not forced
    to 0)."""
    n, D = draw(st.sampled_from(((2, 3), (2, 4), (3, 4))))
    if (n, D) not in _BAND_1:
        mats = transfer.band_matrices(n, D, 1)
        _BAND_1[n, D] = (mats, [s for s in mats if all(
            s.lookup(i, i) >= 1 for i in range(1, n + 1))])
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        pool = draw(st.sampled_from(_BAND_1[n, D]))
        add_scaled(terms, ((draw(st.sampled_from(pool)), draw(_coeffs)),))
    return SchurElement(n, D, terms)


@settings(max_examples=60, deadline=None)
@given(drawn_combinations())
def test_transfer_map_matches_combination_route(x):
    """The row-image solve gives the transfer that solving for word
    coefficients and evaluating the reduced words through the Hecke route
    gives, or fails with the same exception type."""
    key = (x.n, x.D)
    if key not in _SHARED_SPANS:
        _SHARED_SPANS[key] = (transfer.MonomialSpan(*key),
                              CombinationSpan(*key))
    span, oracle = _SHARED_SPANS[key]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transfer, "MAX_WORD_LEN", _ORACLE_DEPTH)
        got = _value_or_error(transfer.transfer_map, x, span)
    assert got == _value_or_error(combination_transfer_map, x, oracle,
                                  _ORACLE_DEPTH)
    assert len(span.monomials) == len(oracle.monomials)
