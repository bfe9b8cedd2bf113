"""Crystal operators: bracketing rule, string oracle, graph export."""

import itertools
import json
import operator
import signal

import pytest
from hypothesis import example, given, settings, strategies as st

from affine_schur import cli, crystal, flag_comb as fc, laurent, tmodule
from affine_schur.flag_comb import FlagSymbol
from affine_schur.laurent import (LaurentScalar, ONE, RationalScalar,
                                  quantum_binomial, quantum_factorial)

from oracles import (bracketing_unique_per_symbol, crystal_cases_per_symbol,
                     inverse_failures_per_symbol, string_relation_per_symbol)


def write_local_word(b: FlagSymbol, i: int, q):
    """A symbol q of the canonical local symbol of (b, i), read at 1,
    written back onto b: the value i + q(t) - 1 at the t-th local position
    of b.  None stays None."""
    if q is None:
        return None
    positions = crystal.local_word(b, i)[0]
    for k, a in zip(positions, q.values):
        if b(k) != i + a - 1:
            b = b.with_value(k, i + a - 1)
    return b


def test_bracket_example():
    # values (1, 2, 1, 2) at residue 1: position 1 opens, 2 closes;
    # position 3 opens, 4 closes; everything pairs up
    p = FlagSymbol(2, 4, (1, 2, 1, 2))
    part = crystal.bracket(p, 1)
    assert part.unpaired == ()
    assert part.pairs == ((1, 2), (3, 4))
    assert crystal.kashiwara_f(p, 1) is None
    assert crystal.kashiwara_e(p, 1) is None


def test_bracket_unpaired():
    p = FlagSymbol(2, 3, (2, 1, 1))
    part = crystal.bracket(p, 1)
    # the leading 2 is unpaired (no 1 before it), one later 1 pairs nothing
    assert part.epsilon == 1
    assert crystal.kashiwara_e(p, 1) == FlagSymbol(2, 3, (1, 1, 1))


def test_epsilon_phi_string_lengths():
    for p in fc.enumerate_flag_symbols(2, 3, 1, 4):
        for i in range(2):
            k, b = 0, p
            while (b2 := crystal.kashiwara_e(b, i)) is not None:
                b, k = b2, k + 1
            part = crystal.bracket(p, i)
            assert part.epsilon == k
            k, b = 0, p
            while (b2 := crystal.kashiwara_f(b, i)) is not None:
                b, k = b2, k + 1
            assert len(part.unpaired) - part.epsilon == k


def test_oracle_agreement_suite():
    cfg = cli.RunConfig(n=2, D=3, window=4)
    cases = cli.suite_crystal(cfg)
    assert cases and all(c["status"] == "pass" for c in cases), cases


def test_bracketing_uniqueness_small():
    for p in fc.enumerate_flag_symbols(2, 3, 1, 4):
        for i in range(2):
            part = crystal.bracket(p, i)
            assert crystal.all_bracketings(p, i) == [(part.unpaired, part.pairs)]


def test_string_decomposition_reconstructs():
    p = FlagSymbol(2, 3, (1, 2, 1))
    x = tmodule.ModuleVector.basis(p)
    for i in range(2):
        parts = crystal.string_decomposition(x, i)
        total = {}
        for k, u in parts:
            back = tmodule.divided(i, k, u, "f")
            for q, c in back.items():
                total[q] = total.get(q, crystal.RationalScalar.zero()) + c
        assert {q for q, c in total.items() if not c.is_zero()} == set(x.terms)
        for q, c in total.items():
            if not c.is_zero():
                assert c.as_laurent() == x.terms[q]


def _apply_by_products(i, terms, which):
    """Chevalley operator with each v^exp as a full rational product."""
    out = {}
    for p, c in terms.items():
        if which == "e":
            main, other, delta, cmp = p.preimage(i + 1), p.preimage(i), -1, int.__gt__
        else:
            main, other, delta, cmp = p.preimage(i), p.preimage(i + 1), 1, int.__lt__
        for k in main:
            exp = (sum(1 for l in main if cmp(l, k)) - sum(1 for l in other if cmp(l, k)))
            q = p.with_value(k, p(k) + delta)
            add = c * RationalScalar.from_laurent(LaurentScalar.v(exp))
            out[q] = out[q] + add if q in out else add
    return {q: c for q, c in out.items() if not c.is_zero()}


def _divided_by_products(i, k, terms, which):
    for _ in range(k):
        terms = _apply_by_products(i, terms, which)
    fact = RationalScalar.from_laurent(quantum_factorial(k))
    return {p: c / fact for p, c in terms.items()}


def string_decomposition_recompute(x, i):
    """The string decomposition that recomputes e_i^(K) x from x after
    finding K: the oracle for crystal.string_decomposition."""
    terms = {p: RationalScalar.from_laurent(c) for p, c in x.terms.items()}
    out = []
    while terms:
        k, y = 0, terms
        while (y := _apply_by_products(i, y, "e")):
            k += 1
        top = _divided_by_products(i, k, terms, "e")
        binom = RationalScalar.from_laurent(
            quantum_binomial(crystal._iweight(top, i), k))
        u = {p: c / binom for p, c in top.items()}
        out.append((k, u))
        for p, c in _divided_by_products(i, k, u, "f").items():
            s = terms.get(p, RationalScalar.zero()) - c
            if s.is_zero():
                terms.pop(p, None)
            else:
                terms[p] = s
    out.reverse()
    return out


def test_string_decomposition_matches_recompute_route():
    for n in (2, 3):
        for p in fc.enumerate_flag_symbols(n, 3, 1, 4):
            x = tmodule.ModuleVector.basis(p)
            for i in range(n):
                fast = crystal.string_decomposition(x, i)
                slow = string_decomposition_recompute(x, i)
                assert [k for k, _ in fast] == [k for k, _ in slow]
                for (_, u), (_, w) in zip(fast, slow):
                    assert ({q: (c.num, c.den) for q, c in u.items()}
                            == {q: (c.num, c.den) for q, c in w.items()})


def test_string_decomposition_raises_when_top_degree_repeats(monkeypatch):
    # a top vector [K]! e_i^(K) x in place of e_i^(K) x, as if the division
    # by [K]! were skipped, leaves e_i^(K) x != 0 after a pass with K >= 2,
    # so K repeats; the decomposition must raise instead of spinning (the
    # alarm turns a spin into a failure)
    def undivided_top(i, k, terms, which):
        out = tmodule.divided(i, k, terms, which)
        if which == "e":
            fact = RationalScalar.from_laurent(quantum_factorial(k))
            out = {p: c * fact for p, c in out.items()}
        return out

    def spinning(signum, frame):
        raise TimeoutError("string decomposition still running after 10 s")

    monkeypatch.setattr(crystal, "divided", undivided_top)
    previous = signal.signal(signal.SIGALRM, spinning)
    signal.alarm(10)
    raised = 0
    try:
        for p in fc.enumerate_flag_symbols(2, 3, 1, 4):
            for i in range(2):
                try:
                    crystal.string_decomposition(tmodule.ModuleVector.basis(p), i)
                except ArithmeticError as e:
                    assert f"along i={i} does not terminate" in str(e)
                    raised += 1
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert raised


def _rational(num: dict, den: dict | None = None) -> RationalScalar:
    return RationalScalar(LaurentScalar(num), LaurentScalar(den or {0: 1}))


def test_reduce_mod_v_reads_value_one_off_constant_terms():
    # (2 + v) / (2 + v^2) is 1 at v = 0 though neither constant term is 1;
    # v / (1 + v) vanishes there
    p, q = FlagSymbol(2, 1, (1,)), FlagSymbol(2, 1, (2,))
    u = {p: _rational({0: 2, 1: 1}, {0: 2, 2: 1}), q: _rational({1: 1}, {0: 1, 1: 1})}
    assert crystal._reduce_mod_v([(0, u)], 1, 0) == p
    assert crystal._reduce_mod_v([(0, {q: _rational({1: 1})})], 1, 0) is None


@pytest.mark.parametrize("u", [
    {FlagSymbol(2, 1, (1,)): _rational({0: 2})},                   # 2 [p]
    {FlagSymbol(2, 1, (1,)): _rational({0: 1}, {0: 2, 1: 1})},     # 1/2 [p]
    {FlagSymbol(2, 1, (1,)): _rational({0: 1}),
     FlagSymbol(2, 1, (2,)): _rational({0: 1, 1: 1})},             # [p] + [q]
])
def test_reduce_mod_v_rejects_what_is_not_a_crystal_class(u):
    with pytest.raises(ArithmeticError, match="not a crystal class mod v"):
        crystal._reduce_mod_v([(0, u)], 1, 0)


def test_value_at_zero_raises_on_a_pole():
    with pytest.raises(ArithmeticError, match="left the crystal lattice"):
        crystal._value_at_zero(_rational({-1: 1, 0: 1}))
    # the reduced form keeps a nonzero constant term in the denominator, so
    # only a pair built past the constructor reaches this guard
    with pytest.raises(ArithmeticError, match="denominator vanishes"):
        crystal._value_at_zero(laurent._rat(ONE, LaurentScalar.v(1)))


def test_oracle_at_rank_one_ends_at_once(capsys):
    # at n = 1 e_i is never nilpotent, so the string decomposition does not
    # exist; the oracle and the suite must say so instead of chaining e_i
    # forever (the alarm turns a spin into a failure)
    def spinning(signum, frame):
        raise TimeoutError("rank-one oracle still running after 10 s")

    previous = signal.signal(signal.SIGALRM, spinning)
    signal.alarm(10)
    try:
        for D in (1, 2, 3):
            for p in fc.enumerate_flag_symbols(1, D, 1, 2):
                with pytest.raises(ValueError, match="needs n >= 2"):
                    crystal.kashiwara_oracle(p, 0)
        status = cli.main(["run-suite", "crystal", "--n", "1", "--D", "2"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert status == 2
    assert "sl2-string oracle needs n >= 2" in capsys.readouterr().err


def _oracle_is_local(b, i) -> bool:
    """The local-word lemma on the oracle: on (b, i) it gives the oracle on
    the canonical symbol of b's local word at 1, written back onto b."""
    word = crystal.local_word(b, i)[1]
    if not word:
        return crystal.kashiwara_oracle(b, i) == (None, None)
    local = crystal.kashiwara_oracle(crystal.local_symbol(word), 1)
    return crystal.kashiwara_oracle(b, i) == tuple(write_local_word(b, i, q)
                                                   for q in local)


@pytest.mark.parametrize("size", [(2, 3, 4), (3, 3, 6), (3, 4, 5), (4, 4, 6)])
def test_oracle_is_local(size):
    # every (symbol, residue) at the sizes of the per-symbol suite check;
    # (3, 3, 6) is the crystal workload
    n, D, window = size
    symbols = fc.enumerate_flag_symbols(n, D, 1, window)
    for b in symbols:
        for i in range(n):
            assert _oracle_is_local(b, i), (b, i)
    assert len(symbols) == window ** D


# windows reach below 1 and above n, so some symbols have no position
# valued i or i + 1 (an empty local word) and others several per residue
drawn_symbols = st.tuples(st.integers(2, 4), st.integers(1, 5)).flatmap(
    lambda nd: st.lists(st.integers(-nd[0], 2 * nd[0] + 1),
                        min_size=nd[1], max_size=nd[1]).map(
        lambda vals: FlagSymbol(nd[0], nd[1], tuple(vals))))


@settings(max_examples=60, deadline=None)
@given(drawn_symbols)
@example(FlagSymbol(3, 2, (3, 6)))  # no position valued 1 or 2
def test_oracle_is_local_on_drawn_symbols(b):
    for i in range(b.n):
        assert _oracle_is_local(b, i), (b, i)


@settings(max_examples=80, deadline=None)
@given(drawn_symbols, st.data())
def test_divided_power_is_local(p, data):
    # the lemma under the oracle memo: e_i^(k) / f_i^(k) on [p] is the same
    # divided power on p's canonical local symbol at i = 1, written back
    # onto p's positions
    i = data.draw(st.integers(0, p.n - 1))
    k = data.draw(st.integers(0, 2))
    which = data.draw(st.sampled_from(["e", "f"]))
    word = crystal.local_word(p, i)[1]
    assert all(a in (0, 1) for a in word)
    direct = tmodule.divided(i, k, {p: ONE}, which)
    if not word:
        assert direct == ({p: ONE} if k == 0 else {})
        return
    local = tmodule.divided(1, k, {crystal.local_symbol(word): ONE}, which)
    back = {write_local_word(p, i, q): c for q, c in local.items()}
    assert direct == back


def _verdict_of(b, i):
    return crystal.word_verdicts(crystal.local_word(b, i)[1])


def test_verdicts_match_per_symbol_route_at_benchmark_size():
    # the crystal workload: n = 3, D = 3, window values in [1, 6]
    pairs = 0
    for b in fc.enumerate_flag_symbols(3, 3, 1, 6):
        for i in range(3):
            verdict = _verdict_of(b, i)
            assert verdict.strings == string_relation_per_symbol(b, i), (b, i)
            assert verdict.unique == bracketing_unique_per_symbol(b, i), (b, i)
            pairs += 1
    assert pairs == 648


@settings(max_examples=60, deadline=None)
@given(drawn_symbols)
@example(FlagSymbol(3, 2, (3, 6)))  # no position valued 1 or 2
def test_verdicts_match_per_symbol_route(b):
    for i in range(b.n):
        verdict = _verdict_of(b, i)
        assert verdict.strings == string_relation_per_symbol(b, i), (b, i)
        assert verdict.unique == bracketing_unique_per_symbol(b, i), (b, i)


@settings(max_examples=80, deadline=None)
@given(drawn_symbols, st.data())
def test_bracketing_rule_is_local(b, data):
    # the lemma under `word_verdicts`: f~_i and e~_i on b are f~_1 and e~_1
    # on b's canonical local symbol, written back onto b's positions, and
    # so the oracle and inverse verdicts of the word are those of b
    i = data.draw(st.integers(0, b.n - 1))
    word = crystal.local_word(b, i)[1]
    verdict = crystal.word_verdicts(word)
    up, down = crystal.kashiwara_f(b, i), crystal.kashiwara_e(b, i)
    if word:
        c = crystal.local_symbol(word)
        back = [write_local_word(b, i, q)
                for q in (crystal.kashiwara_f(c, 1), crystal.kashiwara_e(c, 1))]
        assert [up, down] == back
    else:
        assert up is None and down is None
    assert verdict.inverse_failures == inverse_failures_per_symbol(b, i)
    f_b, e_b = crystal.kashiwara_oracle(b, i)
    assert verdict.oracle_agree == (f_b == up) + (e_b == down)


@pytest.mark.parametrize("size", [(2, 3, 4), (3, 3, 6), (3, 4, 5), (4, 4, 6)])
def test_suite_matches_per_symbol_loops(size):
    # (4, 4, 6) is the first size with commuting residues (a_ij = 0)
    n, D, window = size
    cfg = cli.RunConfig(suite="crystal", n=n, D=D, window=window)
    assert cli.suite_crystal(cfg) == crystal_cases_per_symbol(cfg)


@pytest.mark.parametrize("field, skew", [("oracle_agree", lambda a: a - 1),
                                         ("inverse_failures", lambda a: a + 1),
                                         ("strings", operator.not_),
                                         ("unique", operator.not_)])
def test_suite_sees_a_wrong_word_verdict(monkeypatch, field, skew):
    # one word's verdict off by one (a bool flipped) must change the
    # suite's case records, so the comparison with the per-symbol loops has
    # teeth
    cfg = cli.RunConfig(suite="crystal", n=2, D=3, window=4)
    target = crystal.local_word(FlagSymbol(2, 3, (1, 2, 1)), 1)[1]
    exact = crystal.word_verdicts

    def skewed(word):
        verdict = exact(word)
        if word != target:
            return verdict
        return verdict._replace(**{field: skew(getattr(verdict, field))})

    monkeypatch.setattr(crystal, "word_verdicts", skewed)
    assert cli.suite_crystal(cfg) != crystal_cases_per_symbol(cfg)


@settings(max_examples=80, deadline=None)
@given(drawn_symbols, st.data())
def test_angle_vector_is_local(p, data):
    # the lemma under the string-relation memo: <p> at i is <c> at 1 on
    # p's canonical local symbol c, written back onto p's positions
    i = data.draw(st.integers(0, p.n - 1))
    word = crystal.local_word(p, i)[1]
    direct = tmodule.angle_vector(p, i)
    if not word:
        assert direct == tmodule.ModuleVector.basis(p)
        return
    local = tmodule.angle_vector(crystal.local_symbol(word), 1)
    back = {write_local_word(p, i, q): c for q, c in local.terms.items()}
    assert direct.terms == back


def test_all_bracketings_unique_on_every_short_word():
    # crossing pairs ((1, 3), (2, 4)) on the word 0011 once made a second
    # partition beside the nested one ((1, 4), (2, 3))
    for L in range(1, 9):
        for word in itertools.product((0, 1), repeat=L):
            c = crystal.local_symbol(word)
            part = crystal.bracket(c, 1)
            assert crystal.all_bracketings(c, 1) == [(part.unpaired, part.pairs)], word


def test_bracketing_uniqueness_runs_past_rank_three():
    cases = cli.suite_crystal(cli.RunConfig(n=3, D=4, window=5))
    unique = {c["id"]: (c["status"], c["detail"]) for c in cases
              if "bracketing-unique" in c["id"]}
    assert unique == {f"crystal/bracketing-unique/i{i}": ("pass", "625 symbols")
                      for i in range(3)}


def test_graph_exports():
    g = crystal.crystal_graph(2, 2, 1, 3)
    dot = crystal.graph_to_dot(g)
    assert dot.startswith("digraph") and dot.endswith("}")
    data = crystal.graph_to_json(g)
    json.dumps(data)  # serializable
    assert len(data["vertices"]) == 9
    # every edge endpoint is a listed vertex
    verts = {tuple(v) for v in data["vertices"]}
    assert all(tuple(e["from"]) in verts and tuple(e["to"]) in verts
               for e in data["edges"])
