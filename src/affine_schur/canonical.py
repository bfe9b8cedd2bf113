"""Canonical bases from bar involutions.

A generic solver for the standard triangularity lemma: given an antilinear
involution tau acting unitriangularly on a labeled standard basis, each label
x carries a unique tau-fixed element b_x = [x] + (coefficients in vZ[v]).
Specializations: the solver runs on the flag module alone (b_p,
`tmodule_system`), and the Schur algebra's b_s is read off it
(`canonical_schur`, see "The Schur basis" below).  `schur_system`, the
solver's system over matrices with the twisted involution on double-coset
sums, is kept only as the tests' oracle for that read and as a benchmark
kernel.

Grade.  The order is the dimension of the orbit that a label indexes: x_stat
on the flag module and y_stat on the Schur algebra (`BarSystem.grade`).
With lam the dominant symbol of p and w_p its minimal coset rep,
x_stat(p) = x_stat(lam) + l(w_p), the length of the longest element of the
coset S_lam w_p; and y_stat(s) = l(w) - l(w_mu), w the longest element of
the double coset of s and w_mu that of S_mu.  bar(T_w) is supported on
u <= w in the Bruhat order, so every label u != x of tau([x]) has a
strictly smaller grade.  `BarSystem.tau_expand` checks this on every label
it expands and raises ArithmeticError otherwise.

Discrepancy.  `solve_canonical` builds b_x as b = [x] + sum of p_y b_y and
keeps d = tau(b) - b beside it, starting from d = tau([x]) - [x].  A step
picks the label y of largest grade in the support of d (the first by
sort_key among equals), splits gamma = d[y] as p - bar(p) with p in vZ[v],
and sets b <- b + p b_y.  Since b_y is tau-fixed and tau is antilinear,

    tau(b + p b_y) - (b + p b_y) = d + bar(p) b_y - p b_y = d - gamma b_y,

so d is updated by subtracting gamma b_y and tau is never applied to b.
Every y has a smaller grade than x, so b keeps coefficient 1 at x, and b_y
has coefficient 1 at y and is otherwise supported on smaller grades, so the
update clears d at y and adds labels only of smaller grade; the solver
checks that d[y] is gone, so the loop, which ends when d = 0, cannot
revisit a label.
The labels b_y still to be solved sit on an explicit stack, so the depth of
the bar-support order is not bounded by Python's recursion limit.  Both
updates are `vector.add_scaled` on plain {label: scalar} dicts.

The column map.  An element z of column nu (its terms in blocks (lam, nu))
is fixed by its value z*[nu] = v^{x_nu} z on the dominant [nu].
`column_vector(s)` gives [s]*[nu] = v^{x_nu + y_s} T_s with no Hecke
product, T_s being the sum of the left-coset sums T_q = v^{-x_q} [q] over
the left S_lam-cosets q inside the double coset of s
(`flag_comb.left_cosets`).  `from_column` goes back: `hecke.collapse`
gathers z's coordinates v^{x_r - x_nu} c_r on the T_r into double cosets
[t] = v^{y_t} T_t, and raises ArithmeticError if a left coset of some
double coset is missing or carries another coefficient.  `schur.schur_mul`
reads products back through it.

Tau on the labels.  Neither side bars a whole coset sum, and both read
one memo.  On the flag module, tau([p]) is the per-symbol memo
`tmodule._tau_terms(p)`, which bars the minimal coset rep of p alone.
Tau is bar on the module and v^{-2 x_mu} bar on a (lam, mu) block, so
tau(x*m) = tau(x)*tau(m), and tau([mu]) = [mu] as bar(P_mu) = v^{2 x_mu}
P_mu.  So tau([s]) has the value tau(column_vector(s)) on [mu], a sum of
entries of the module memo (`_tau_schur_terms`; it bars nothing itself).

The Schur basis.  Let s lie in block (lam, mu) and let top be its left
coset of largest x_stat, the last of `flag_comb.left_cosets(s, lam, mu)`.
The coefficient of [q] in column_vector(s) is v^{x_mu + y_s - x_q}, and
x_top = x_mu + y_s (the longest element of the double coset lies in top),
so [s]*[mu] = [top] + (vZ[v] on the other cosets of s).  Every other t
of column mu has the exponents x_mu + y_t - x_q >= 0 in [t]*[mu], on its
own cosets, which are disjoint from those of s; as b_s has coefficients in
vZ[v] off s, b_s*[mu] = [top] + (vZ[v] on symbols other than top).  It is tau-fixed, as
tau(b_s*[mu]) = tau(b_s)*tau([mu]) = b_s*[mu], so it is b_top by the
uniqueness half of the lemma; and the column map is injective on column
mu.  Hence b_s = from_column(mu, b_top), read with no second solve (the
affine form of Du's identification of b_s with the Kazhdan-Lusztig element
of the longest element of its double coset).  `canonical_schur` raises
ArithmeticError unless x_top = x_mu + y_s.  The uniqueness lemma also
certifies the result on its own: an element that is tau-fixed, has
coefficient 1 at s and every other coefficient in vZ[v] is b_s, since the
difference of two such is tau-fixed with all coefficients in vZ[v], and its
coefficient at a label of largest grade is then bar-invariant, so 0.

Memos.  `block_of` is memoized per matrix, and tau([s]) on the Schur side
per matrix s (`_tau_schur_terms`), each in an unbounded `lru_cache` that
lives as long as the process.  Both are pure functions of the matrix: the
block is fixed by the row and column weights, and tau([s]) by s and the
quadratic relation, which `hecke` fixes and nothing else changes.
`PeriodicMatrix` and `FlagSymbol` are frozen and the cached values are
tuples, so the memos are safe to share between callers, `BarSystem`s and
threads.  Reading b_s solves b_top in the module system the caller
passes, so it adds to `tmodule._tau_terms` and to that system's solved b_x
only the symbols the module side has not met.  In `run-suite canonical
--n 2 --D 3 --window 5 --band 2` the memo holds 125 entries after the
module cases (the 125 window symbols) and 261 after the algebra cases, so
136 symbols are first met while reading b_s; the suite's tau check of
each b_s fills `_tau_schur_terms` (220 matrices) and adds no symbol.  The
systems pass `_tau_schur_terms` and `tmodule._tau_terms` themselves as
tau_fn; `BarSystem.tau_expand` makes the one copy that the solver changes, and a
`BarSystem` keeps nothing but its solved b_x.  The grade x_stat is cached
on each `FlagSymbol` object (`flag_comb.x_stat`).

Output.  `kl_coefficients` reads the stalk dimensions off one coefficient
of an expansion, given the dimension statistic of its labels; the
canonical suite checks that each is nonnegative (`cli._expansion_checks`).
`compute` writes an expansion as JSON (`expansion_to_json`), optionally
kept per block in a `CanonicalCache`.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from functools import lru_cache

from . import flag_comb, hecke, tmodule
from .flag_comb import FlagSymbol, PeriodicMatrix, x_stat, y_stat
from .laurent import LaurentScalar, ONE
from .vector import add_scaled


@dataclass
class BarSystem:
    """Bar data over a label set, read from a tau callback.

    tau_fn(label) returns tau([label]) as (label, scalar) pairs.  It must be
    unitriangular for the grade: the coefficient at label is exactly 1 and
    every other label of the support has a grade below grade(label).
    `tau_expand` checks both on every call, so the bar-support order is
    acyclic on every label the solver reaches.  sort_key breaks ties of the
    grade and orders the terms of an expansion.
    """
    tau_fn: object
    grade: object
    sort_key: object
    _canon: dict = field(default_factory=dict)

    def tau_expand(self, label) -> dict:
        """A fresh {label: scalar} dict of tau([label])."""
        out = dict(self.tau_fn(label))
        if out.get(label) != ONE:
            raise ArithmeticError(f"bar matrix not unitriangular at {label}")
        top = self.grade(label)
        for y in out:
            if y != label and self.grade(y) >= top:
                raise ArithmeticError(
                    f"tau([{label}]) has {y} of grade {self.grade(y)} >= {top}")
        return out


@dataclass(frozen=True)
class CanonicalExpansion:
    leading: object
    terms: tuple  # ((label, scalar), ...) sorted by sort key

    def coeff(self, label) -> LaurentScalar:
        for x, c in self.terms:
            if x == label:
                return c
        return LaurentScalar.zero()

    def as_dict(self) -> dict:
        return dict(self.terms)


def solve_canonical(system: BarSystem, label) -> CanonicalExpansion:
    """The unique tau-fixed b = [label] + sum of vZ[v]-corrections."""
    canon = system._canon
    # frames (x, b, d) with d = tau(b) - b; a frame waits while the b_y
    # its next step needs is solved on top of it
    stack = [] if label in canon else [_frame(system, label)]
    while stack:
        x, b, d = stack[-1]
        if not d:
            canon[x] = b
            stack.pop()
            continue
        y = _max_label(system, d)
        gamma = d[y]
        if gamma.bar() != -gamma:
            raise ArithmeticError(f"discrepancy at {y} is not bar-antisymmetric")
        p = gamma.positive_part()
        if p - p.bar() != gamma:
            raise ArithmeticError(f"cannot split {gamma} as p - bar(p), p in vZ[v]")
        by = canon.get(y)
        if by is None:
            stack.append(_frame(system, y))
            continue
        add_scaled(b, by, p)
        add_scaled(d, by, -gamma)
        if y in d:
            raise ArithmeticError(f"correction at {y} did not clear the discrepancy")

    b = canon[label]
    return CanonicalExpansion(label, tuple(sorted(b.items(),
                                                  key=lambda t: system.sort_key(t[0]))))


def _frame(system: BarSystem, x) -> tuple:
    """A new solver frame for x: b = [x] and d = tau([x]) - [x]."""
    d = system.tau_expand(x)
    del d[x]
    return x, {x: ONE}, d


def _max_label(system: BarSystem, labels):
    """The label of largest grade, the first by sort_key among equals."""
    return min(labels, key=lambda y: (-system.grade(y), system.sort_key(y)))


# ---------------------------------------------------------------------------
# Specialization to the flag module


def tmodule_system() -> BarSystem:
    """The flag module's bar system.  A `FlagSymbol` carries n and D, so one
    system serves every rank."""
    return BarSystem(tau_fn=tmodule._tau_terms, grade=x_stat,
                     sort_key=lambda p: p.values)


def canonical_tmodule(p: FlagSymbol, system: BarSystem = None) -> CanonicalExpansion:
    if system is None:
        system = tmodule_system()
    return solve_canonical(system, p)


def canonical_tmodule_vector(p: FlagSymbol, system: BarSystem = None) -> tmodule.ModuleVector:
    exp = canonical_tmodule(p, system)
    return tmodule.ModuleVector(p.n, p.D, dict(exp.terms))


# ---------------------------------------------------------------------------
# Specialization to the Schur algebra


@lru_cache(maxsize=None)
def block_of(s: PeriodicMatrix) -> tuple:
    """The block (lam, mu) of [s]: the dominant symbols of its row and
    column weights."""
    lam = flag_comb.dominant_from_weight(s.n, s.D, s.row_weight())
    mu = flag_comb.dominant_from_weight(s.n, s.D, s.col_weight())
    return lam, mu


def column_vector(s: PeriodicMatrix) -> tmodule.ModuleVector:
    """[s]*[mu], mu the column symbol of s, with no Hecke product: the sum
    of v^{x_mu + y_s - x_q} [q] over `flag_comb.left_cosets(s, lam, mu)`."""
    lam, mu = block_of(s)
    top = x_stat(mu) + y_stat(s)
    return tmodule.ModuleVector(s.n, s.D, {
        q: LaurentScalar.monomial(1, top - x_stat(q))
        for q, _ in flag_comb.left_cosets(s, lam, mu)})


def from_column(nu: FlagSymbol, coords: dict) -> dict:
    """The terms {t: c} of the z in column nu with z*[nu] = sum of c_r [r]
    over coords {r: c_r}; the row symbol of each t is read from r."""
    xnu = x_stat(nu)

    def coset(r):
        t = flag_comb.matrix_of_pair(r, nu)
        return t, [q for q, _ in flag_comb.left_cosets(t, r.dominant_rep(), nu)]

    return hecke.collapse({r: c.shift(x_stat(r) - xnu) for r, c in coords.items()},
                          coset, y_stat)


@lru_cache(maxsize=None)
def _tau_schur_terms(s: PeriodicMatrix) -> tuple:
    """tau([s]) as a tuple of (matrix, coeff) pairs, computed once per s:
    the z of column mu with z*[mu] = tau(column_vector(s))."""
    mu = block_of(s)[1]
    return tuple(from_column(mu, tmodule.tau(column_vector(s)).terms).items())


def schur_system(n: int, D: int) -> BarSystem:
    """The Schur algebra's own bar system over matrices.  No suite and no
    `compute` entity solves with it: `canonical_schur` reads b_s off the
    module basis.  It stays as the oracle that the tests compare
    `canonical_schur` with, and as the `tau_expand` kernel that the
    benchmark times; n and D do not change it."""
    return BarSystem(tau_fn=_tau_schur_terms, grade=y_stat,
                     sort_key=lambda s: s.entries)


def canonical_schur(s: PeriodicMatrix, system: BarSystem = None) -> CanonicalExpansion:
    """b_s = from_column(mu, b_top), top the left coset of largest x_stat in
    the double coset of s and system a module system (`tmodule_system`).

    Raises ArithmeticError unless [top] has coefficient 1 in
    `column_vector(s)`, i.e. x_stat(top) = x_stat(mu) + y_stat(s)."""
    if system is None:
        system = tmodule_system()
    lam, mu = block_of(s)
    top = flag_comb.left_cosets(s, lam, mu)[-1][0]
    gap = x_stat(mu) + y_stat(s) - x_stat(top)
    if gap:
        raise ArithmeticError(f"[{top}] has coefficient v^{gap} in [{s}]*[{mu}]")
    terms = from_column(mu, dict(canonical_tmodule(top, system).terms))
    return CanonicalExpansion(s, tuple(sorted(terms.items(),
                                              key=lambda t: t[0].entries)))


# ---------------------------------------------------------------------------
# KL-type coefficient extraction


def kl_coefficients(expansion: CanonicalExpansion, q_label, stat) -> list:
    """Decompose the coefficient of q_label as sum_i dim_i v^{-i + s_p - s_q}.

    stat maps a label to its dimension statistic (x_stat for symbols,
    y_stat for matrices); returns the nonzero (i, dim_i) pairs.
    """
    d = stat(expansion.leading) - stat(q_label)
    c = expansion.coeff(q_label)
    return [(d - e, a) for e, a in sorted(c.items())]


# ---------------------------------------------------------------------------
# Export and cache


def expansion_to_json(exp: CanonicalExpansion) -> dict:
    if isinstance(exp.leading, FlagSymbol):
        enc = lambda p: list(p.values)
    else:
        enc = lambda s: [[i, j, v] for (i, j), v in s.entries]
    return {"leading": enc(exp.leading),
            "terms": [{"label": enc(x), "coeff": c.to_json()}
                      for x, c in exp.terms]}


class CanonicalCache:
    """One JSON file per (n, D, lambda, mu) under a root directory."""

    def __init__(self, root):
        import pathlib
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, n, D, lam_wt, mu_wt):
        lam = "-".join(str(m) for m in lam_wt)
        mu = "-".join(str(m) for m in mu_wt) if mu_wt is not None else "T"
        return self.root / f"n{n}_D{D}_lam{lam}_mu{mu}.json"

    def load(self, n, D, lam_wt, mu_wt) -> dict:
        path = self._path(n, D, lam_wt, mu_wt)
        if not path.exists():
            return {}
        return json.loads(path.read_text())

    def store(self, n, D, lam_wt, mu_wt, key: str, payload: dict):
        """Add one entry to the block's file.  The new file is written beside
        the old one and renamed over it, so a failed or interrupted write
        leaves the previous file whole."""
        path = self._path(n, D, lam_wt, mu_wt)
        data = json.loads(path.read_text()) if path.exists() else {}
        data[key] = payload
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(data, f, sort_keys=True, indent=1)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
