"""Slow routes that the tests compare the package against.

Each was a function of the package until a faster route replaced it on
every path a command runs; here it serves only as a reference.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from unittest import mock

from affine_schur import (affine_weyl, cli, crystal, flag_comb, hecke, schur,
                          tmodule, transfer)
from affine_schur.flag_comb import FlagSymbol, PeriodicMatrix, x_stat, y_stat
from affine_schur.hecke import HeckeElement
from affine_schur.laurent import (LaurentScalar, ONE, RationalScalar,
                                  divide_exact, quantum_factorial,
                                  quantum_integer)
from affine_schur.schur import (SchurElement, UdotMonomial, epsilon_degrees,
                                phi_idempotent, phi_monomial)
from affine_schur.tmodule import ModuleVector
from affine_schur.vector import add_scaled


# ---------------------------------------------------------------------------
# Laurent arithmetic on plain dicts {exponent: nonzero coefficient}: the
# loops `LaurentScalar` ran on every call before small values were shared
# and their operations memoized.


def laurent_add(x: dict, y: dict) -> dict:
    c = dict(x)
    for e, a in y.items():
        b = c.get(e, 0) + a
        if b:
            c[e] = b
        elif e in c:
            del c[e]
    return c


def laurent_neg(x: dict) -> dict:
    return {e: -a for e, a in x.items()}


def laurent_mul(x: dict, y: dict) -> dict:
    c = {}
    for e1, a1 in x.items():
        for e2, a2 in y.items():
            e = e1 + e2
            b = c.get(e, 0) + a1 * a2
            if b:
                c[e] = b
            elif e in c:
                del c[e]
    return c


def laurent_shift(x: dict, k: int) -> dict:
    return {e + k: a for e, a in x.items()}


def laurent_bar(x: dict) -> dict:
    return {-e: a for e, a in x.items()}


def young_generators(dominant_window) -> list:
    """The finite simple reflections s_i inside blocks of equal values."""
    return [i for i in range(1, len(dominant_window))
            if dominant_window[i - 1] == dominant_window[i]]


def length(w) -> int:
    """Number of inversions (i, j), i in [1, D], i < j, w(i) > w(j),
    counted as intervals of shifts j = j0 + m D for each pair of window
    positions: the reference for Shi's formula in
    `AffinePermutation.length`."""
    D, total = w.rank, 0
    for i in range(1, D + 1):
        wi = w(i)
        for j0 in range(1, D + 1):
            wj0 = w.window[j0 - 1]
            # j = j0 + m*D with j > i and w(j) = wj0 + m*D < wi
            lo = (i - j0) // D + 1          # smallest m with j0 + m*D > i
            hi = -((wj0 - wi) // D) - 1      # largest m with wj0 + m*D < wi
            if hi >= lo:
                total += hi - lo + 1
    return total


def _by_length(elems) -> tuple:
    return tuple(sorted(elems, key=lambda w: (length(w), w.window)))


def young_subgroup_by_bfs(D: int, dominant_window) -> tuple:
    """S_lambda by a breadth-first search over the block generators, sorted
    by (length, window): the reference for
    `affine_weyl.young_subgroup_elements`."""
    gens = [affine_weyl.simple(D, i) for i in young_generators(dominant_window)]
    seen = {affine_weyl.identity(D)}
    frontier = list(seen)
    while frontier:
        frontier = [u for u in {w * g for w in frontier for g in gens}
                    if u not in seen]
        seen.update(frontier)
    return _by_length(seen)


def double_coset_by_bfs(D: int, lam_window, rep, mu_window) -> tuple:
    """S_lambda rep S_mu by a breadth-first search from rep over the left
    and right block generators, sorted by (length, window): the reference
    for `affine_weyl.double_coset_elements`."""
    left = [affine_weyl.simple(D, i) for i in young_generators(lam_window)]
    right = [affine_weyl.simple(D, j) for j in young_generators(mu_window)]
    seen = {rep}
    frontier = [rep]
    while frontier:
        step = {g * w for w in frontier for g in left}
        step.update(w * g for w in frontier for g in right)
        frontier = [u for u in step if u not in seen]
        seen.update(frontier)
    return _by_length(seen)


def min_double_coset_rep_by_descent(D: int, lam_window, w, mu_window):
    """The minimal element of S_lambda w S_mu, by stripping left descents
    in S_lambda and right descents in S_mu until none is left: the
    reference for `flag_comb.double_coset_min_rep`."""
    left = young_generators(lam_window)
    right = young_generators(mu_window)
    changed = True
    while changed:
        changed = False
        for i in left:
            u = affine_weyl.simple(D, i) * w
            if length(u) < length(w):
                w, changed = u, True
        for j in right:
            u = w * affine_weyl.simple(D, j)
            if length(u) < length(w):
                w, changed = u, True
    return w


def act_per_position(p: FlagSymbol, w) -> FlagSymbol:
    """(p)w, one position at a time through p(w(k)): the reference for
    `FlagSymbol.act`."""
    return FlagSymbol.make(p.n, p.D, [p(w(k)) for k in range(1, p.D + 1)])


def mul_by_words(h1: HeckeElement, h2: HeckeElement) -> HeckeElement:
    """h1 h2 through a reduced word of every term of h2, with no shortcut
    for the unit: the reference for `hecke.mul`."""
    out = {}
    for w, c in h2.terms.items():
        k, word = w.reduced_word()
        piece = hecke.mul_by_rotation(h1, k) if k else h1
        for i in word:
            piece = hecke.mul_by_simple(piece, i)
        add_scaled(out, piece.terms, c)
    return HeckeElement(h1.rank, out)


def bar_parabolic_per_term(lam: FlagSymbol, h: HeckeElement) -> dict:
    """bar(P_lam h) on the left-coset sums T_q, each term T_u of bar(h)
    sent to q = (lam)u with v^2 to the number of pairs of positions a < b
    in one block of lam with u^-1(a) < u^-1(b), counted afresh: the
    reference for the memoized `hecke.bar_parabolic`."""
    vals = lam.values
    pairs = [(a, b) for a in range(lam.D) for b in range(a + 1, lam.D)
             if vals[a] == vals[b]]
    out = {}
    for u, c in hecke.bar(h).terms.items():
        inv = u.inverse().window
        e = 2 * sum(1 for a, b in pairs if inv[a] < inv[b])
        add_scaled(out, ((act_per_position(lam, u), c.shift(e)),))
    return out


def coset_sum(lam: FlagSymbol, p: FlagSymbol) -> HeckeElement:
    """T_p = sum of T_w over the left coset S_lam w_p, w_p the minimal rep."""
    if p.dominant_rep() != lam:
        raise ValueError("p is not in the orbit of lam")
    D = p.D
    wp = p.min_coset_rep()
    terms = {u * wp: ONE
             for u in affine_weyl.young_subgroup_elements(D, lam.values)}
    return HeckeElement(D, terms)


def to_hecke_blocks(x: ModuleVector) -> dict:
    """Expand into the T_w basis, one Hecke element per dominant block:
    the inverse of `tmodule.from_hecke_block`."""
    blocks = {}
    for p, c in x.terms.items():
        lam = p.dominant_rep()
        add_scaled(blocks.setdefault(lam, {}), coset_sum(lam, p).terms,
                   c.shift(x_stat(p)))
    return {lam: HeckeElement(x.D, t) for lam, t in blocks.items() if t}


def block_to_hecke(terms: dict, lam: FlagSymbol, mu: FlagSymbol) -> HeckeElement:
    """A (lam, mu) block {s: c} as the element of H_{lam,mu} in the T_w
    basis: each [s] is v^{y_s} times the sum of T_w over its double coset."""
    out = {}
    for s, c in terms.items():
        add_scaled(out, hecke.double_coset_sum(lam, mu, s).terms, c.shift(y_stat(s)))
    return HeckeElement(lam.D, out)


def act_on_module_by_blocks(x: SchurElement, vec: ModuleVector) -> ModuleVector:
    """The left action a whole block at a time: each (lam, mu) block of x
    expands into one Hecke element a of double-coset sums, the mu-block of
    vec, sum_p c_p v^{x_p} T_mu T_{w_p}, goes to sum_p c_p v^{x_p} a T_{w_p},
    and the image is collapsed once per block.  The reference for
    `schur.act_on_module`, which sums memoized products of basis pairs."""
    vec_blocks = {}
    for p, c in vec.terms.items():
        vec_blocks.setdefault(p.dominant_rep(), {})[p] = c
    out = {}
    for (lam, mu), terms in x.blocks().items():
        if mu not in vec_blocks:
            continue
        ah = block_to_hecke(terms, lam, mu)
        acc = {}
        for p, c in vec_blocks[mu].items():
            add_scaled(acc, hecke.mul(ah, HeckeElement.t(p.min_coset_rep())).terms,
                       c.shift(x_stat(p)))
        add_scaled(out, tmodule.from_hecke_block(lam, HeckeElement(x.D, acc)).terms)
    return ModuleVector(x.n, x.D, out)


def hecke_to_matrix_terms(lam: FlagSymbol, mu: FlagSymbol, h: HeckeElement) -> dict:
    """Collapse an element of H_{lam,mu} from the T_w basis onto the [t]
    basis of the (lam, mu) block."""

    def coset(w):
        t = flag_comb.matrix_of_pair(lam.act(w), mu)
        rep = flag_comb.double_coset_min_rep(t)
        return t, affine_weyl.double_coset_elements(lam.D, lam.values, rep, mu.values)

    return hecke.collapse(h.terms, coset, y_stat)


def left_cosets_to_matrix_terms(mu: FlagSymbol, coords: dict) -> dict:
    """Collapse coordinates {q: c} on the left-coset sums T_q, q in the
    orbit of some lam, onto the [t] basis of the (lam, mu) block."""

    def coset(q):
        t = flag_comb.matrix_of_pair(q, mu)
        return t, [r for r, _ in flag_comb.left_cosets(t)]

    return hecke.collapse(coords, coset, y_stat)


def from_column_by_pairs(nu: FlagSymbol, coords: dict) -> dict:
    """`schur.from_column` with the matrix and left cosets of each
    coordinate worked out afresh: the reference for its memo."""
    xnu = x_stat(nu)
    return left_cosets_to_matrix_terms(
        nu, {r: c.shift(x_stat(r) - xnu) for r, c in coords.items()})


def schur_mul_by_hecke(a: SchurElement, b: SchurElement) -> SchurElement:
    """The product in H_D: each (lam, mu) block of a expands into one Hecke
    element of double-coset sums, which multiplies the T_{w_q} of every
    left coset q of each [t] in b, and the image is collapsed from the T_w
    basis onto double cosets.  The reference for `schur.schur_mul`, which
    reads the product back from the action on [nu]."""
    if (a.n, a.D) != (b.n, b.D):
        raise ValueError("shape mismatch")
    out = {}
    b_blocks = b.blocks()
    for (lam, mu), aterms in a.blocks().items():
        ah = block_to_hecke(aterms, lam, mu)
        for (mu2, nu), bterms in b_blocks.items():
            if mu2 != mu:
                continue
            for t, c in bterms.items():
                prod = {}
                for _, w in flag_comb.left_cosets(t):
                    add_scaled(prod, hecke.mul(ah, HeckeElement.t(w)).terms,
                               c.shift(y_stat(t)))
                add_scaled(out, hecke_to_matrix_terms(lam, nu, HeckeElement(a.D, prod)))
    return SchurElement(a.n, a.D, out)


def tau_schur_by_parabolic_bar(s: PeriodicMatrix) -> dict:
    """tau([s]) from one parabolic bar of the sum of the minimal left-coset
    reps T_{w_q} in the double coset of s: the reference for
    `schur._tau_terms`, which sums the module's per-symbol tau memo
    instead."""
    lam, mu = flag_comb.block_of(s)
    h = HeckeElement(s.D, {w: ONE for _, w in flag_comb.left_cosets(s)})
    terms = left_cosets_to_matrix_terms(mu, hecke.bar_parabolic(lam, h))
    twist = -2 * x_stat(mu) - y_stat(s)
    return {t: c.shift(twist) for t, c in terms.items()}


def string_relation_per_symbol(b: FlagSymbol, i: int) -> bool:
    """e_i <b> = [#J - l + 1] <e~_i b> and f_i <b> = [l + 1] <f~_i b> on b
    itself: the reference for the `strings` verdict of
    `crystal.word_verdicts`, which decides it once per local word."""
    part = crystal.bracket(b, i)
    nJ, l = len(part.unpaired), part.epsilon
    av = tmodule.angle_vector(b, i)
    down = crystal.kashiwara_e(b, i)
    expect_e = (ModuleVector.zero(b.n, b.D) if down is None
                else tmodule.angle_vector(down, i).scale(quantum_integer(nJ - l + 1)))
    up = crystal.kashiwara_f(b, i)
    expect_f = (ModuleVector.zero(b.n, b.D) if up is None
                else tmodule.angle_vector(up, i).scale(quantum_integer(l + 1)))
    return tmodule.apply_e(i, av) == expect_e and tmodule.apply_f(i, av) == expect_f


def bracketing_unique_per_symbol(b: FlagSymbol, i: int) -> bool:
    """The brute-force uniqueness check on b itself: the reference for the
    `unique` verdict of `crystal.word_verdicts`."""
    part = crystal.bracket(b, i)
    return crystal.all_bracketings(b, i) == [(part.unpaired, part.pairs)]


def inverse_failures_per_symbol(b: FlagSymbol, i: int) -> int:
    """How many of e~ f~ b = b and f~ e~ b = b, where defined, fail: the
    reference for the `inverse_failures` verdict of
    `crystal.word_verdicts`."""
    bad = 0
    b2 = crystal.kashiwara_f(b, i)
    if b2 is not None and crystal.kashiwara_e(b2, i) != b:
        bad += 1
    b3 = crystal.kashiwara_e(b, i)
    if b3 is not None and crystal.kashiwara_f(b3, i) != b:
        bad += 1
    return bad


def crystal_cases_per_symbol(cfg: cli.RunConfig) -> list:
    """The crystal suite's cases by four loops over the symbols at each
    residue, every check made on each symbol: the reference for
    `cli.suite_crystal`, which decides each check once per local word."""
    symbols = flag_comb.enumerate_flag_symbols(cfg.n, cfg.D, 1, cfg.window)
    cases = []
    for i in range(cfg.n):
        agree = 0
        for b in symbols:
            f_b, e_b = crystal.kashiwara_oracle(b, i)
            agree += f_b == crystal.kashiwara_f(b, i)
            agree += e_b == crystal.kashiwara_e(b, i)
        total = 2 * len(symbols)
        cases.append(cli._case(f"crystal/oracle/i{i}", agree == total,
                               f"{agree}/{total}"))
        bad = sum(inverse_failures_per_symbol(b, i) for b in symbols)
        cases.append(cli._case(f"crystal/inverse/i{i}", bad == 0,
                               f"{len(symbols)} symbols"))
        bad = sum(not string_relation_per_symbol(b, i) for b in symbols)
        cases.append(cli._case(f"crystal/strings/i{i}", bad == 0,
                               f"{len(symbols)} chains"))
        bad = sum(not bracketing_unique_per_symbol(b, i) for b in symbols)
        cases.append(cli._case(f"crystal/bracketing-unique/i{i}", bad == 0,
                               f"{len(symbols)} symbols"))
    return cases


def epsilon_sign(x: SchurElement, rho_value: LaurentScalar = ONE) -> LaurentScalar:
    """The sign character on the block lam = mu = (1, ..., n); zero elsewhere.

    T_{s_i} -> -1 on that block; length-zero rotations go to rho_value
    (a calibration constant, a Laurent monomial).  Summed from
    `schur.epsilon_degrees`; the reference for `transfer.evaluate_collapse`.
    """
    total = LaurentScalar.zero()
    for k, a in epsilon_degrees(x).items():
        total = total + a * (rho_value ** k if k >= 0
                             else inv_monomial(rho_value) ** (-k))
    return total


def inv_monomial(c: LaurentScalar) -> LaurentScalar:
    (e, a), = c.items()
    if a * a != 1:
        raise ArithmeticError("calibration constant must be invertible")
    return LaurentScalar({-e: a})


# ---------------------------------------------------------------------------
# Generator products block by block


def phi_f(n: int, D: int, i: int, lam_weight, k: int = 1) -> SchurElement:
    """Image of f_i^(k) a_{lam}: the transpose displacement, or 0."""
    if not schur._of_rank(n, D, lam_weight):
        return SchurElement.zero(n, D)
    _, f_mat = flag_comb.generator_matrices(lam_weight, i, k)
    if f_mat is None:
        return SchurElement.zero(n, D)
    return SchurElement.basis(f_mat)


def mul_gen_by_blocks(x: SchurElement, kind: str, i: int, k: int,
                      left: bool) -> SchurElement:
    """Left or right multiplication by e_i^(k) or f_i^(k), one block of x at
    a time, each times the basis element `schur.phi_e` or `phi_f` gives at
    the letter's weight: the reference for `schur._mul_gen`, which makes
    one product by the sum of the generator's basis matrices."""
    if k >= 2 and x.n == 1 and not x.is_zero():
        raise ArithmeticError(f"divided power of order {k} needs n >= 2")
    out = {}
    shift = schur._wshift(x.n, kind, i, k)
    sign = 1 if left else -1
    for terms in x.blocks().values():
        s = next(iter(terms))
        old_wt = s.row_weight() if left else s.col_weight()
        new_wt = tuple(a + sign * b for a, b in zip(old_wt, shift))
        # the left side checks the new weight for e and f, the right side
        # only for f
        if (left or kind == "f") and any(m < 0 for m in new_wt):
            continue
        # phi_e takes the letter's left weight, phi_f its right weight
        if kind == "e":
            g = schur.phi_e(x.n, x.D, i, new_wt if left else old_wt, k)
        else:
            g = phi_f(x.n, x.D, i, old_wt if left else new_wt, k)
        piece = SchurElement(x.n, x.D, terms)
        add_scaled(out, (schur.schur_mul(g, piece) if left
                         else schur.schur_mul(piece, g)).terms)
    return SchurElement(x.n, x.D, out)


# ---------------------------------------------------------------------------
# Divided powers as k generator products


def mul_gen_k_fold(x: SchurElement, kind: str, i: int, k: int,
                   left: bool) -> SchurElement:
    """schur._mul_gen as it was before a divided power was one basis
    element: each block multiplied k times by e_i or f_i, then divided by
    [k]! exactly."""
    out = {}
    shift = schur._wshift(x.n, kind, i, 1)
    sign = 1 if left else -1
    for terms in x.blocks().values():
        piece = SchurElement(x.n, x.D, terms)
        for _ in range(k):
            if piece.is_zero():
                break
            s = next(iter(piece.terms))
            old_wt = s.row_weight() if left else s.col_weight()
            new_wt = tuple(a + sign * b for a, b in zip(old_wt, shift))
            if (left or kind == "f") and any(m < 0 for m in new_wt):
                piece = SchurElement.zero(x.n, x.D)
                break
            if kind == "e":
                g = schur.phi_e(x.n, x.D, i, new_wt if left else old_wt)
            else:
                g = phi_f(x.n, x.D, i, old_wt if left else new_wt)
            piece = (schur.schur_mul(g, piece) if left
                     else schur.schur_mul(piece, g))
        fact = quantum_factorial(k)
        add_scaled(out, {s: divide_exact(c, fact) for s, c in piece.terms.items()})
    return SchurElement(x.n, x.D, out)


def phi_monomial_k_fold(m: UdotMonomial, D: int) -> SchurElement:
    """schur.phi_monomial with every Chevalley letter multiplied by
    mul_gen_k_fold."""
    with mock.patch.object(schur, "_mul_gen", mul_gen_k_fold):
        return phi_monomial(m, D)


# ---------------------------------------------------------------------------
# Word evaluation by weight profile: the oracles for the transfer folds


def _letter_right_weight(n: int, wt: tuple, kind: str, i: int, k: int):
    """Right weight of e_i^(k)/f_i^(k) given its left weight; None if it
    leaves N^n."""
    shift = schur._wshift(n, kind, i, k)  # left minus right
    out = tuple(a - b for a, b in zip(wt, shift))
    return None if any(m < 0 for m in out) else out


def resolve_weights(m: UdotMonomial):
    """The weight profile (gens, weights) of a monomial: weights[t] sits
    between gens[t-1] and gens[t].  None when an idempotent letter clashes
    or a weight leaves N^n (the monomial is zero)."""
    n = m.n
    anchors = [j for j, g in enumerate(m.letters) if g[0] == "a"]
    if not anchors:
        raise ValueError("monomial has no weight letter to anchor at")
    j = anchors[0]
    wt = m.letters[j][1]
    # walk left from the anchor to find the leftmost weight
    for g in reversed(m.letters[:j]):
        if g[0] == "a":
            if g[1] != wt:
                return None
        else:
            shift = schur._wshift(n, g[0], g[1], g[2])
            wt = tuple(a + b for a, b in zip(wt, shift))
            if any(x < 0 for x in wt):
                return None
    gens, weights = [], [wt]
    for g in m.letters:
        if g[0] == "a":
            if g[1] != wt:
                return None
        else:
            wt = _letter_right_weight(n, wt, g[0], g[1], g[2])
            if wt is None:
                return None
            gens.append(g)
            weights.append(wt)
    return gens, weights


def reduce_monomial(m: UdotMonomial):
    """Subtract (1, ..., 1) from every weight letter; None if some weight
    has a zero component."""
    letters = []
    for g in m.letters:
        if g[0] == "a":
            if any(x < 1 for x in g[1]):
                return None
            letters.append(("a", tuple(x - 1 for x in g[1])))
        else:
            letters.append(g)
    return UdotMonomial(m.n, letters)


def omega_route(m: UdotMonomial, D1: int, D2: int) -> dict:
    """Evaluate the monomial across the rank split, as a tensor dict
    {(matrix at D1, matrix at D2): scalar}: any word with an anchor, its
    letters resolved by weight profile, divided powers as k single steps
    over [k]!.  The oracle for transfer.omega_route."""
    n = m.n
    res = resolve_weights(m)
    if res is None:
        return {}
    gens, weights = res
    if sum(weights[0]) != D1 + D2:
        return {}
    terms = transfer._split_tensor(n, D1, weights[0])
    divisor = ONE
    for kind, i, k in gens:
        divisor = divisor * quantum_factorial(k)
        for _ in range(k):
            terms = transfer._omega_step(n, terms, kind, i)
        if not terms:
            return {}
    if not divisor.is_one():
        terms = {key: divide_exact(c, divisor) for key, c in terms.items()}
    return terms


@lru_cache(maxsize=None)
def phi_of_reduction(m: UdotMonomial, D: int) -> SchurElement:
    """phi at rank D of the weight-reduced monomial, through the Hecke
    route; zero when it has none."""
    m2 = reduce_monomial(m)
    if m2 is None:
        return SchurElement.zero(m.n, D)
    return phi_monomial(m2, D)


# ---------------------------------------------------------------------------
# The span that solves for word coefficients


def reduce_by_full_scan(rows, vec: dict):
    """transfer.MonomialSpan._reduce as it was before its pivot index: scan
    every row (pivot, rvec, rlow) in order and subtract it when vec holds
    its pivot, adding the same multiple of rlow to low.  Returns (vec, low);
    vec is reduced in place."""
    low = {}
    for pivot, rvec, rlow in rows:
        c = vec.get(pivot)
        if c is None:
            continue
        add_scaled(vec, rvec, -c)
        add_scaled(low, rlow, c)
    return vec, low


@dataclass
class CombinationSpan:
    """transfer.MonomialSpan as it was before its rows carried their
    transfers: each row keeps its combination over the span's words, and
    `solve` returns x as a combination of words.  With
    `combination_transfer_map`, the oracle for the row-image span."""
    n: int
    D: int
    monomials: list = field(default_factory=list)
    images: list = field(default_factory=list)
    _rows: list = field(default_factory=list)   # (pivot, vec, combo)
    _frontier: dict = field(default_factory=dict)  # anchor -> last rows
    _grown: dict = field(default_factory=dict)  # anchor -> word length

    def _vec_of(self, x: SchurElement) -> dict:
        return {s: RationalScalar.from_laurent(c) for s, c in x.terms.items()}

    def _reduce(self, vec: dict):
        return reduce_by_full_scan(self._rows, vec)

    def _insert(self, mono: UdotMonomial, image: SchurElement) -> bool:
        """Add image as a row unless it reduces to 0; True if it did."""
        vec = self._vec_of(image)
        vec, combo = self._reduce(vec)
        if not vec:
            return False
        if len(self._rows) >= transfer.MAX_ROWS:
            raise RuntimeError(f"span search exceeded {transfer.MAX_ROWS} rows")
        idx = len(self.monomials)
        self.monomials.append(mono)
        self.images.append(image)
        pivot = min(vec, key=lambda s: s.entries)
        inv = RationalScalar.one() / vec[pivot]
        vec = {s: inv * c for s, c in vec.items()}
        combo = {j: (RationalScalar.zero() - inv * c) for j, c in combo.items()}
        combo[idx] = inv
        self._rows.append((pivot, vec, combo))
        return True

    def grow(self, anchors, max_len: int):
        """Extend each anchor's breadth-first search to the given word
        length (incremental and idempotent per anchor)."""
        gens = [(kind, i) for kind in ("e", "f") for i in range(self.n)]
        for wt in anchors:
            wt = tuple(wt)
            if wt not in self._grown:
                if sum(wt) != self.D:
                    raise ValueError("anchor weight must sum to the rank")
                self._grown[wt] = 0
                mono = UdotMonomial(self.n, (("a", wt),))
                image = phi_idempotent(self.n, self.D, wt)
                self._insert(mono, image)
                self._frontier[wt] = [(mono, image)]
            while self._grown[wt] < max_len:
                self._grown[wt] += 1
                nxt = []
                for mono, image in self._frontier[wt]:
                    for kind, i in gens:
                        child = transfer._mul_gen_right_cached(image, kind, i)
                        if child.is_zero():
                            continue
                        cmono = UdotMonomial(self.n,
                                             mono.letters + ((kind, i, 1),))
                        if self._insert(cmono, child):
                            nxt.append((cmono, child))
                self._frontier[wt] = nxt

    def solve(self, x: SchurElement):
        """Exact coefficients {monomial: scalar} with x = sum of images, or
        None if x is outside the current span."""
        vec, combo = self._reduce(self._vec_of(x))
        if vec:
            return None
        return {self.monomials[j]: c for j, c in combo.items()}


def combination_transfer_map(x: SchurElement, span: CombinationSpan,
                             grow_to: int) -> SchurElement:
    """Solve x as a combination of words at rank D + n and evaluate the
    weight-reduced words at rank D through the Hecke route: the oracle for
    transfer.transfer_map, with grow_to in place of MAX_WORD_LEN."""
    n = x.n
    if span.D != x.D or span.n != n:
        raise ValueError("span rank mismatch")
    D = x.D - n
    if D < 1:
        raise ValueError("target rank must be positive")
    anchors = {s.row_weight() for s in x.terms}
    combo = span.solve(x)
    grown = 0
    while combo is None and grown < grow_to:
        grown += 1
        span.grow(anchors, grown)
        combo = span.solve(x)
    if combo is None:
        raise transfer.OutsideSpanError(f"element outside the monomial span "
                                        f"up to word length {grown}")
    out = {}
    for m, c in combo.items():
        add_scaled(out, ((s, RationalScalar.from_laurent(a))
                         for s, a in phi_of_reduction(m, D).terms.items()), c)
    terms = {}
    for s, c in out.items():
        if not c.is_laurent():
            raise ArithmeticError(
                f"transfer produced a non-polynomial coefficient at {s}; "
                "the solve is preimage-dependent")
        terms[s] = c.as_laurent()
    return SchurElement(n, D, terms)
