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
picks the label y of largest grade in the support of d (the least label
among equals, in `flag_comb`'s label order), splits gamma = d[y] as
p - bar(p) with p in vZ[v], and sets b <- b + p b_y.  Since b_y is
tau-fixed and tau is antilinear,

    tau(b + p b_y) - (b + p b_y) = d + bar(p) b_y - p b_y = d - gamma b_y,

so d is updated by subtracting gamma b_y and tau is never applied to b.
Every y has a smaller grade than x, so b keeps coefficient 1 at x, and b_y
has coefficient 1 at y and is otherwise supported on smaller grades, so the
update clears d at y and adds labels only of smaller grade; the solver
checks that d[y] is gone, so the loop, which ends when d = 0, cannot
revisit a label.  The tie-break fixes only the order of the steps, not
the result: b_x is the unique tau-fixed element in [x] + sum of vZ[v] [y]
(the uniqueness half of the lemma, see "The Schur basis"), so any order of
the labels of equal grade solves the same b_x and the same b_y.
The labels b_y still to be solved sit on an explicit stack, so the depth of
the bar-support order is not bounded by Python's recursion limit.  Both
updates are `vector.add_scaled` on plain {label: scalar} dicts.

Tau on the labels.  Neither side bars a whole coset sum, and both read
one memo.  On the flag module, tau([p]) is the per-symbol memo
`tmodule._tau_terms(p)`, which bars the minimal coset rep of p alone; tau
on the Schur algebra sums its entries (`schur`'s "Tau on the labels").

The Schur basis.  Let s lie in block (lam, mu) and let top be its left
coset of largest x_stat, the last of `flag_comb.left_cosets(s)`.  By the
column map of `schur`, the coefficient of [q] in `schur.column_vector(s)`
is v^{x_mu + y_s - x_q}, and x_top = x_mu + y_s (the longest element of the
double coset lies in top), so [s]*[mu] = [top] + (vZ[v] on the other
cosets of s).  Every other t of column mu has the exponents
x_mu + y_t - x_q >= 0 in [t]*[mu], on its own cosets, which are disjoint
from those of s; as b_s has coefficients in vZ[v] off s,
b_s*[mu] = [top] + (vZ[v] on symbols other than top).  It is tau-fixed, as
tau(b_s*[mu]) = tau(b_s)*tau([mu]) = b_s*[mu], so it is b_top by the
uniqueness half of the lemma; and the column map is injective on column
mu.  Hence b_s = schur.from_column(mu, b_top), read with no second solve
(the affine form of Du's identification of b_s with the Kazhdan-Lusztig
element of the longest element of its double coset).  `canonical_schur`
raises ArithmeticError unless x_top = x_mu + y_s.  The uniqueness lemma
also certifies the result on its own: an element that is tau-fixed, has
coefficient 1 at s and every other coefficient in vZ[v] is b_s, since the
difference of two such is tau-fixed with all coefficients in vZ[v], and its
coefficient at a label of largest grade is then bar-invariant, so 0.

Memos.  The tau memos are `tmodule._tau_terms` per symbol and
`schur._tau_terms` per matrix (`schur`'s "Memos"), and the block of a
matrix is `flag_comb.block_of`.  Reading b_s solves b_top in the module
system the caller passes, so it adds to `tmodule._tau_terms` and to that
system's solved b_x only the symbols the module side has not met.  In
`run-suite canonical --n 2 --D 3 --window 5 --band 2` the memo holds 125
entries after the module cases (the 125 window symbols) and 261 after the
algebra cases, so 136 symbols are first met while reading b_s.  The
systems pass `schur._tau_terms` and `tmodule._tau_terms` themselves as
tau_fn; `BarSystem.tau_expand` makes the one copy that the solver changes,
and a `BarSystem` keeps nothing but its solved b_x.  The grades x_stat and
y_stat are cached on each label, and every label the suite builds is the
one interned object for its key (`flag_comb`'s "Memos"), so in that run
x_stat is counted 261 times, once per symbol.

Output.  A canonical element is the basis vector it is: `canonical_tmodule`
returns b_p as a `tmodule.ModuleVector` and `canonical_schur` returns b_s
as a `schur.SchurElement`, each a flat {label: scalar} dict in no order.
`kl_coefficients` reads the stalk dimensions off one coefficient of b_x,
given x and the dimension statistic of its labels; the canonical suite
checks that each is nonnegative (`cli._expansion_checks`).  Order is fixed
only where it is visible: `compute` writes b_x as JSON with its terms
sorted by label (`expansion_to_json`), optionally kept in a
`CanonicalCache` (one file per element, stamped with a schema number and
the quadratic relation, so a stale entry is recomputed), and a failing
check names the first bad label in that order.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field

from . import flag_comb, hecke, schur, tmodule
from .flag_comb import FlagSymbol, PeriodicMatrix, block_of, x_stat, y_stat
from .laurent import ONE
from .vector import add_scaled


@dataclass
class BarSystem:
    """Bar data over a label set, read from a tau callback.

    tau_fn(label) returns tau([label]) as (label, scalar) pairs.  It must be
    unitriangular for the grade: the coefficient at label is exactly 1 and
    every other label of the support has a grade below grade(label).
    `tau_expand` checks both on every call, so the bar-support order is
    acyclic on every label the solver reaches.  Labels must be ordered
    (`<`): among labels of equal grade the solver picks the least one
    next.  The order cannot change a solved b_x, which is unique (see
    "Discrepancy" above).
    """
    tau_fn: object
    grade: object
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


def solve_canonical(system: BarSystem, label) -> dict:
    """The unique tau-fixed b = [label] + sum of vZ[v]-corrections, as a
    fresh {label: scalar} dict."""
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

    return dict(canon[label])


def _frame(system: BarSystem, x) -> tuple:
    """A new solver frame for x: b = [x] and d = tau([x]) - [x]."""
    d = system.tau_expand(x)
    del d[x]
    return x, {x: ONE}, d


def _max_label(system: BarSystem, labels):
    """The label of largest grade, the least label among equals."""
    return min(labels, key=lambda y: (-system.grade(y), y))


# ---------------------------------------------------------------------------
# Specialization to the flag module


def tmodule_system() -> BarSystem:
    """The flag module's bar system.  A `FlagSymbol` carries n and D, so one
    system serves every rank."""
    return BarSystem(tau_fn=tmodule._tau_terms, grade=x_stat)


def canonical_tmodule(p: FlagSymbol, system: BarSystem = None) -> tmodule.ModuleVector:
    """b_p, solved in system (a fresh `tmodule_system` by default)."""
    if system is None:
        system = tmodule_system()
    return tmodule.ModuleVector(p.n, p.D, solve_canonical(system, p))


# ---------------------------------------------------------------------------
# Specialization to the Schur algebra


def schur_system(n: int, D: int) -> BarSystem:
    """The Schur algebra's own bar system over matrices.  No suite and no
    `compute` entity solves with it: `canonical_schur` reads b_s off the
    module basis.  It stays as the oracle that the tests compare
    `canonical_schur` with, and as the `tau_expand` kernel that the
    benchmark times; n and D do not change it."""
    return BarSystem(tau_fn=schur._tau_terms, grade=y_stat)


def canonical_schur(s: PeriodicMatrix, system: BarSystem = None) -> "schur.SchurElement":
    """b_s = schur.from_column(mu, b_top), top the left coset of largest
    x_stat in the double coset of s and system a module system
    (`tmodule_system`).

    Raises ArithmeticError unless [top] has coefficient 1 in
    `schur.column_vector(s)`, i.e. x_stat(top) = x_stat(mu) + y_stat(s)."""
    if system is None:
        system = tmodule_system()
    mu = block_of(s)[1]
    top = flag_comb.left_cosets(s)[-1][0]
    gap = x_stat(mu) + y_stat(s) - x_stat(top)
    if gap:
        raise ArithmeticError(f"[{top}] has coefficient v^{gap} in [{s}]*[{mu}]")
    return schur.SchurElement(s.n, s.D,
                              schur.from_column(mu, canonical_tmodule(top, system).terms))


# ---------------------------------------------------------------------------
# KL-type coefficient extraction


def kl_coefficients(leading, vec, q_label, stat) -> list:
    """Decompose the coefficient of q_label in vec, the canonical element of
    leading, as sum_i dim_i v^{-i + s_p - s_q}.

    stat maps a label to its dimension statistic (x_stat for symbols,
    y_stat for matrices); returns the nonzero (i, dim_i) pairs.
    """
    d = stat(leading) - stat(q_label)
    return [(d - e, a) for e, a in sorted(vec.coeff(q_label).items())]


# ---------------------------------------------------------------------------
# Export and cache


def label_to_json(x) -> list:
    """A flag symbol as its window, a matrix as its [i, j, value] cells."""
    if isinstance(x, FlagSymbol):
        return list(x.values)
    return [[i, j, v] for (i, j), v in x.entries]


def expansion_to_json(leading, vec) -> dict:
    """The canonical element vec of leading, its terms sorted by label."""
    return {"leading": label_to_json(leading),
            "terms": [{"label": label_to_json(x), "coeff": c.to_json()}
                      for x, c in sorted(vec.terms.items())]}


# The layout of a cache file; raise it when the layout or a payload changes.
CACHE_SCHEMA = 2
_CACHE_STAMP = {"schema": CACHE_SCHEMA, "relation": hecke.QUADRATIC_RELATION}


class CanonicalCache:
    """One JSON file per entry under a root directory, named by a digest of
    the entry's key.

    A file holds {"stamp": ..., "key": key, "payload": payload}.  The stamp
    names the file layout (`CACHE_SCHEMA`) and the quadratic relation the
    payload was solved under; `load` ignores a file with another stamp or
    another key, or one that is not such an object at all, and `store`
    replaces it, so stale and damaged entries are recomputed.
    A store writes its own file only, so concurrent stores of different
    keys keep every entry.
    """

    def __init__(self, root):
        import pathlib
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str):
        import hashlib  # loads OpenSSL, so only a run that caches pays for it
        return self.root / f"{hashlib.sha256(key.encode()).hexdigest()}.json"

    def load(self, key: str):
        """The payload stored under key, or None.  A file that is not a JSON
        object with this stamp, this key and a payload (cut short, say, or
        edited by hand) is a miss, so its entry is recomputed and stored
        over it."""
        path = self._path(key)
        if not path.exists():
            return None
        try:
            data = json.loads(path.read_text())
        except ValueError:  # invalid JSON or invalid UTF-8
            return None
        if (not isinstance(data, dict) or data.get("stamp") != _CACHE_STAMP
                or data.get("key") != key or "payload" not in data):
            return None
        return data["payload"]

    def store(self, key: str, payload: dict):
        """Write the entry's file.  The new file is written beside the old
        one and renamed over it, so a failed or interrupted write leaves the
        previous file whole."""
        path = self._path(key)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                json.dump({"stamp": _CACHE_STAMP, "key": key, "payload": payload},
                          f, sort_keys=True, indent=1)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
