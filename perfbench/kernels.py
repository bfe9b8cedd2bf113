"""The kernel pass: fixed operands, one warm-up call, then the minimum of N.

Operands (rank n = 2, D = 4 unless noted):

- perm_mul: w * u, w = from_word(4, 0, (1, 2, 3, 0, 1, 2)) (length 6) and
  u = from_word(4, 1, (2, 3, 0, 1)) (length 4).
- Laurent add/mul: [4] + [3] and [4] * [3] (4 and 3 terms).
- Rational add/mul: [3]/[2] + [5]/[4] and [3]/[2] * [5]/[4] (every result
  is reduced by a polynomial gcd).
- hecke.bar: bar(T_w), w as in perm_mul (l(w) = 6).
- double_coset_sum, tau_label and mul_e: the matrix S with entries
  (1,1) = (1,2) = (2,1) = (2,2) = 1 in the ((2,2), (2,2)) block; tau_label
  is `tau_expand(S)` on a fresh `schur_system(2, 4)`; mul_e is
  `schur_mul([S], phi_e(2, 4, 1, (2, 2)))`.
- span_grow: a fresh `MonomialSpan(2, 3)` grown from the anchor (1, 2) to
  word length SPAN_DEPTH; span_solve solves the last image of that span.

The warm-up call fills the module-level lru caches, so these are warm-cache
costs; the suites pay the cold ones.
"""

import time

from affine_schur import affine_weyl, canonical, hecke, schur, transfer
from affine_schur.flag_comb import PeriodicMatrix
from affine_schur.laurent import RationalScalar, quantum_integer

SPAN_DEPTH = 5


def _best(fn, reps: int, number: int = 1) -> float:
    """Seconds per call: the minimum over reps batches of `number` calls."""
    fn()
    best = float("inf")
    clock = time.perf_counter
    for _ in range(reps):
        t = clock()
        for _ in range(number):
            fn()
        best = min(best, (clock() - t) / number)
    return best


def run() -> dict:
    w = affine_weyl.from_word(4, 0, (1, 2, 3, 0, 1, 2))
    u = affine_weyl.from_word(4, 1, (2, 3, 0, 1))
    if w.length() != 6:
        raise RuntimeError("bar operand must have length 6")
    a, b = quantum_integer(4), quantum_integer(3)
    r1 = RationalScalar(quantum_integer(3), quantum_integer(2))
    r2 = RationalScalar(quantum_integer(5), quantum_integer(4))
    tw = hecke.HeckeElement.t(w)

    s = PeriodicMatrix.make(2, 4, {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 1})
    lam, mu = canonical.block_of(s)
    e_gen = schur.phi_e(2, 4, 1, s.col_weight())
    if e_gen.is_zero():
        raise RuntimeError("mul_e operand is zero")
    basis = schur.SchurElement.basis(s)

    us = 1e6
    out = {
        "affine_weyl.perm_mul_us": _best(lambda: w * u, 20, 200) * us,
        "laurent.add_us": _best(lambda: a + b, 20, 500) * us,
        "laurent.mul_us": _best(lambda: a * b, 20, 500) * us,
        "laurent.rat_add_us": _best(lambda: r1 + r2, 20, 50) * us,
        "laurent.rat_mul_us": _best(lambda: r1 * r2, 20, 50) * us,
        "hecke.bar_us": _best(lambda: hecke.bar(tw), 20) * us,
        "hecke.double_coset_sum_us":
            _best(lambda: hecke.double_coset_sum(lam, mu, s), 20) * us,
        "canonical.tau_label_us":
            _best(lambda: canonical.schur_system(2, 4).tau_expand(s), 10) * us,
        "schur.mul_e_us": _best(lambda: schur.schur_mul(basis, e_gen), 10) * us,
    }

    def grow():
        span = transfer.MonomialSpan(2, 3)
        span.grow([(1, 2)], SPAN_DEPTH)
        return span

    out["transfer.span_grow_s"] = _best(grow, 3)
    span = grow()
    target = span.images[-1]
    out["transfer.span_solve_us"] = _best(lambda: span.solve(target), 10) * us
    return out
