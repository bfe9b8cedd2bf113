"""Command line surface.

Two entry points: `compute` evaluates a single quantity (statistics,
canonical expansions, crystal graphs, transfer verdicts) and `run-suite`
executes one of the verification suites (relations | crystal | canonical |
schur | transfer), writing a machine-readable report.  Exit code 0 iff
every case passes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
from dataclasses import dataclass

from . import canonical, crystal, flag_comb, hecke, schur, tmodule, transfer
from . import affine_weyl
from .flag_comb import FlagSymbol, PeriodicMatrix, x_stat, y_stat
from .hecke import HeckeElement
from .laurent import LaurentScalar, ONE, quantum_integer
from .schur import SchurElement, UdotMonomial
from .tmodule import ModuleVector

CACHE_ENV = "AFFINE_SCHUR_CACHE"

SUITES = ("relations", "crystal", "canonical", "schur", "transfer")
FORMATS = ("json", "csv")
COMMUTATOR = "upper"  # [mu_i - mu_{i+1}] acts on weight mu
SCALAR_FORM = "scalar form [mu_i - mu_{i+1}]"


@dataclass
class RunConfig:
    n: int = 2
    D: int = 2
    window: int = 4          # symbol values confined to [1, window]
    band: int = 2            # column offset bound for matrix enumerations
    word_len: int = 4        # monomial / Hecke word length bound
    suite: str = "relations"
    fmt: str = "json"
    seed: int = 0

    def validate(self):
        if min(self.n, self.D, self.window) < 1:
            raise ValueError("n, D and window must be >= 1")
        if min(self.band, self.word_len) < 0:
            raise ValueError("band and word_len must be >= 0")
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}")
        if self.suite == "crystal" and self.n < 2:
            # e_i is never nilpotent at n = 1, so no sl2-string exists
            raise ValueError("the crystal suite's sl2-string oracle needs n >= 2")
        if self.suite in ("relations", "transfer") and self.n < 2:
            raise ValueError(
                f"the {self.suite} suite needs n >= 2: affine sl_n's Chevalley "
                "generators need two residues, and (i-1) mod n and i mod n "
                "coincide at n = 1")
        if self.fmt not in FORMATS:
            raise ValueError(f"unknown format {self.fmt!r}")

    def flags(self) -> dict:
        return {"psi_flag": list(transfer.PSI_FLAG),
                "commutator": COMMUTATOR,
                "eps_rho": transfer.EPS_RHO.to_json()}


def _case(case_id: str, ok: bool, detail: str = "") -> dict:
    return {"id": case_id, "status": "pass" if ok else "fail", "detail": detail}


# ---------------------------------------------------------------------------
# relations suite: Hecke presentation and the statistics identities


def _hecke_cases(cfg: RunConfig):
    D = cfg.D
    unit = HeckeElement.unit(D)
    vm2 = LaurentScalar.v(-2)
    t = lambda i: HeckeElement.t(affine_weyl.simple(D, i))
    x = lambda j: hecke.x_element(D, j)

    for i in range(1, D):
        yield _case(f"hecke/quadratic/T{i}",
                    hecke.mul(t(i), t(i)) ==
                    t(i).scale(vm2 - ONE) + unit.scale(vm2))
        yield _case(f"hecke/inverse/T{i}",
                    hecke.mul(t(i), hecke.inverse_of_Tw(affine_weyl.simple(D, i))) == unit
                    and hecke.mul(hecke.inverse_of_Tw(affine_weyl.simple(D, i)), t(i)) == unit)
    for i in range(1, D - 1):
        lhs = hecke.mul(hecke.mul(t(i), t(i + 1)), t(i))
        rhs = hecke.mul(hecke.mul(t(i + 1), t(i)), t(i + 1))
        yield _case(f"hecke/braid/T{i}.T{i+1}", lhs == rhs)
    for i in range(1, D):
        for j in range(i + 2, D):
            yield _case(f"hecke/commute/T{i}.T{j}",
                        hecke.mul(t(i), t(j)) == hecke.mul(t(j), t(i)))
    for j in range(1, D + 1):
        yield _case(f"hecke/x-inverse/X{j}",
                    hecke.mul(x(j), hecke.x_inverse(D, j)) == unit)
        for k in range(j + 1, D + 1):
            yield _case(f"hecke/x-commute/X{j}.X{k}",
                        hecke.mul(x(j), x(k)) == hecke.mul(x(k), x(j)))
    for i in range(1, D):
        lhs = hecke.mul(hecke.mul(t(i), x(i)), t(i))
        yield _case(f"hecke/twist/T{i}.X{i}.T{i}", lhs == x(i + 1).scale(vm2))
        for j in range(1, D + 1):
            if j in (i, i + 1):
                continue
            yield _case(f"hecke/x-past/T{i}.X{j}",
                        hecke.mul(t(i), x(j)) == hecke.mul(x(j), t(i)))

    # product words: letterwise left fold equals right fold up to word_len
    words = [()]
    count = 0
    for _ in range(cfg.word_len):
        words = [w + (i,) for w in words for i in range(1, D)]
        for w in words:
            left = unit
            for i in w:
                left = hecke.mul(left, t(i))
            right = unit
            for i in reversed(w):
                right = hecke.mul(t(i), right)
            if left != right:
                yield _case(f"hecke/word/{w}", False, "fold mismatch")
                return
            count += 1
    yield _case("hecke/word-folds", True, f"{count} words, length <= {cfg.word_len}")


def _relation_violations(n: int, D: int, labels, weight, act) -> tuple:
    """The defining relations of the modified algebra on every label of a
    representation, where act(letters, label) applies a word of
    `UdotMonomial` letters to the label's vector, rightmost letter first,
    and weight(label) is that vector's weight wt:

      idempotents    a_wt x = x, and a_nu x = 0 for every other weight nu;
      weight-shifts  a_up e_i x = e_i x and a_down f_i x = f_i x, up and
                     down the weights e_i and f_i move wt to (skipped where
                     one has a negative part);
      commutator     [e_i, f_j] x = delta_ij [wt_i - wt_{i+1}] x, wt_i and
                     wt_{i+1} the two classes of `flag_comb.residue_classes`;
      serre          sum_k (-1)^k g_i^(k) g_j g_i^(m-k) x = 0 for g in
                     {e, f}, i != j and m = 1 - a_ij.

    Returns ({relation: violations}, the (residue, weight) pairs whose
    commutator scalar was checked)."""
    weights = list(flag_comb.weights(n, D))
    bad = {"idempotents": [], "weight-shifts": [], "commutator": [], "serre": []}
    forms = set()
    for lab in labels:
        wt = weight(lab)
        x = act((), lab)
        if act((("a", wt),), lab) != x:
            bad["idempotents"].append(("aa", lab))
        for nu in weights:
            if nu != wt and not act((("a", nu),), lab).is_zero():
                bad["idempotents"].append(("orth", nu, lab))
        for i in range(n):
            for kind in "ef":
                to = tuple(m + s for m, s in zip(wt, schur._wshift(n, kind, i, 1)))
                if (min(to) >= 0 and act((("a", to), (kind, i, 1)), lab)
                        != act(((kind, i, 1),), lab)):
                    bad["weight-shifts"].append((kind, i, lab))
        for i in range(n):
            for j in range(n):
                diff = (act((("e", i, 1), ("f", j, 1)), lab)
                        - act((("f", j, 1), ("e", i, 1)), lab))
                if i == j:
                    up, down = flag_comb.residue_classes(n, i)
                    diff = diff - x.scale(quantum_integer(wt[up] - wt[down]))
                    forms.add((i, wt))
                if not diff.is_zero():
                    bad["commutator"].append((i, j, lab))
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                m = 1 - _cartan(n, i, j)
                for kind in "ef":
                    acc = x.scale(LaurentScalar.zero())
                    for k in range(m + 1):
                        term = act(((kind, i, k), (kind, j, 1), (kind, i, m - k)), lab)
                        acc = acc - term if k % 2 else acc + term
                    if not acc.is_zero():
                        bad["serre"].append((kind, i, j, lab))
    return bad, forms


def _module_cases(cfg: RunConfig):
    """The defining relations of the modified algebra under the module
    action, checked on every basis vector of the window."""
    n, D = cfg.n, cfg.D
    symbols = flag_comb.enumerate_flag_symbols(n, D, 1, cfg.window)
    bad, forms = _relation_violations(
        n, D, symbols, FlagSymbol.weight,
        lambda letters, p: tmodule.apply_word(letters, ModuleVector.basis(p)))
    for rel, violations in bad.items():
        detail = (f"{SCALAR_FORM} on {len(forms)} weight spaces"
                  if rel == "commutator" else f"{len(symbols)} vectors")
        yield _case(f"module/{rel}/n{n}D{D}", not violations, detail)


def _xdiff_cases(cfg: RunConfig):
    n, D = cfg.n, cfg.D
    symbols = flag_comb.enumerate_flag_symbols(n, D, 1, cfg.window)
    bad = 0
    total = 0
    for p in symbols:
        for k in range(1, D + 1):
            c = p(k)
            minus = p.with_value(k, c - 1)
            plus = p.with_value(k, c + 1)
            lhs_m = x_stat(p) - x_stat(minus)
            rhs_m = (sum(1 for l in p.preimage(c) if l > k)
                     - sum(1 for l in p.preimage(c - 1) if l < k))
            lhs_p = x_stat(p) - x_stat(plus)
            rhs_p = (sum(1 for l in p.preimage(c) if l < k)
                     - sum(1 for l in p.preimage(c + 1) if l > k))
            total += 2
            bad += (lhs_m != rhs_m) + (lhs_p != rhs_p)
    yield _case(f"stats/x-differences/n{n}D{D}", bad == 0,
                f"{total - bad}/{total} positions")


def _ystat_cases(cfg: RunConfig):
    n, D = cfg.n, cfg.D
    bad = []
    for lam in flag_comb.all_dominant(n, D):
        wt = lam.weight()
        if y_stat(flag_comb.delta_matrix(lam)) != 0:
            bad.append((lam, "diag"))
        for i in range(n):
            e_mat, f_mat = flag_comb.generator_matrices(lam, i)
            up, down = flag_comb.residue_classes(n, i)
            if e_mat is not None and y_stat(e_mat) != wt[up] - 1:
                bad.append((lam, i, "e"))
            if f_mat is not None and y_stat(f_mat) != wt[down]:
                bad.append((lam, i, "f"))
    yield _case(f"stats/y-generators/n{n}D{D}", not bad, f"violations: {bad}")


def suite_relations(cfg: RunConfig) -> list:
    cases = list(_hecke_cases(cfg))
    cases += list(_module_cases(cfg))
    cases += list(_xdiff_cases(cfg))
    cases += list(_ystat_cases(cfg))
    return cases


# ---------------------------------------------------------------------------
# crystal suite: axioms, oracle agreement, string relations


def _crystal_cases(cfg: RunConfig, i: int) -> list:
    symbols = flag_comb.enumerate_flag_symbols(cfg.n, cfg.D, 1, cfg.window)
    cases = []

    def oracle_case(i):
        agree = 0
        total = 0
        for b in symbols:
            f_b, e_b = crystal.kashiwara_oracle(b, i)
            total += 2
            agree += f_b == crystal.kashiwara_f(b, i)
            agree += e_b == crystal.kashiwara_e(b, i)
        return _case(f"crystal/oracle/i{i}", agree == total, f"{agree}/{total}")

    def inverse_case(i):
        bad = 0
        for b in symbols:
            b2 = crystal.kashiwara_f(b, i)
            if b2 is not None and crystal.kashiwara_e(b2, i) != b:
                bad += 1
            b3 = crystal.kashiwara_e(b, i)
            if b3 is not None and crystal.kashiwara_f(b3, i) != b:
                bad += 1
        return _case(f"crystal/inverse/i{i}", bad == 0, f"{len(symbols)} symbols")

    def string_case(i):
        bad = sum(not crystal.string_relation(b, i) for b in symbols)
        return _case(f"crystal/strings/i{i}", bad == 0, f"{len(symbols)} chains")

    def uniqueness_case(i):
        bad = sum(not crystal.bracketing_unique(b, i) for b in symbols)
        return _case(f"crystal/bracketing-unique/i{i}", bad == 0,
                     f"{len(symbols)} symbols")

    cases.append(oracle_case(i))
    cases.append(inverse_case(i))
    cases.append(string_case(i))
    cases.append(uniqueness_case(i))
    return cases


def suite_crystal(cfg: RunConfig) -> list:
    return [c for i in range(cfg.n) for c in _crystal_cases(cfg, i)]


# ---------------------------------------------------------------------------
# canonical suite: both triangular bases and their compatibility


def _expansion_checks(exp, stat) -> str:
    if exp.coeff(exp.leading) != ONE:
        return "leading coefficient is not 1"
    for q, c in exp.terms:
        if q != exp.leading and not c.in_v_times_z_of_v():
            return f"off-diagonal coefficient {c} outside vZ[v]"
        for _, dim in canonical.kl_coefficients(exp, q, stat):
            if dim < 0:
                return f"negative stalk dimension at {q}"
    return ""


def suite_canonical(cfg: RunConfig) -> list:
    n, D = cfg.n, cfg.D
    cases = []

    tsys = canonical.tmodule_system()
    for p in flag_comb.enumerate_flag_symbols(n, D, 1, cfg.window):
        exp = canonical.canonical_tmodule(p, tsys)
        err = _expansion_checks(exp, tsys.grade)
        vec = ModuleVector(n, D, exp.as_dict())
        if not err and tmodule.tau(vec) != vec:
            err = "not tau-fixed"
        cases.append(_case(f"canonical/module/{p.values}", not err, err))

    # tau-fixed, 1 at s and vZ[v] elsewhere: by the uniqueness lemma this
    # alone certifies that the b_s read off the module basis is canonical
    mats = transfer.band_matrices(n, D, cfg.band)
    sexp = {}
    for s in mats:
        exp = canonical.canonical_schur(s, tsys)
        sexp[s] = exp
        err = _expansion_checks(exp, y_stat)
        if not err:
            el = SchurElement(n, D, exp.as_dict())
            if schur.tau_schur(el) != el:
                err = "not tau-fixed"
        cases.append(_case(f"canonical/algebra/{dict(s.entries)}", not err, err))

    # b_s([lambda]) is 0 or a canonical module basis vector (blockwise
    # v^{x_lambda} compatibility of the two bases); b_s was read off the
    # module basis by the column map, so this checks the Hecke route
    # `act_on_module` against it
    for s, exp in sexp.items():
        lam = flag_comb.dominant_from_weight(n, D, s.col_weight())
        el = SchurElement(n, D, exp.as_dict())
        img = schur.act_on_module(el, ModuleVector.basis(lam))
        if img.is_zero():
            ok, note = True, "0"
        else:
            consts = {p for p, c in img.terms.items() if c.constant_term() != 0}
            if len(consts) != 1:
                ok, note = False, "image not congruent to a basis class mod v"
            else:
                p, = consts
                ok = img == canonical.canonical_tmodule_vector(p, tsys)
                note = f"b_{list(p.values)}" if ok else "image is not canonical"
        cases.append(_case(f"canonical/compat/{dict(s.entries)}", ok, note))
    return cases


# ---------------------------------------------------------------------------
# schur suite: the homomorphism annihilates the defining relations


def _cartan(n: int, i: int, j: int) -> int:
    if n == 2:
        return 2 if i == j else -2
    d = (i - j) % n
    if d == 0:
        return 2
    return -1 if d in (1, n - 1) else 0


def suite_schur(cfg: RunConfig) -> list:
    n, D = cfg.n, cfg.D
    cases = []
    weights = list(flag_comb.weights(n, D))

    def img(letters):
        return schur.phi_monomial(UdotMonomial(n, letters), D)

    bad, _ = _relation_violations(n, D, weights, tuple,
                                  lambda letters, mu: img(letters + (("a", mu),)))
    for rel, violations in bad.items():
        note = f"; {SCALAR_FORM}" if rel == "commutator" else ""
        cases.append(_case(f"phi/{rel}", not violations,
                           f"violations: {violations}{note}"))

    # tau equivariance on generators and random monomials
    bad = []
    for mu in weights:
        for letters in [(("a", mu),)] + [((g, i, 1), ("a", mu))
                                         for g in "ef" for i in range(n)]:
            x = img(letters)
            if schur.tau_schur(x) != x:
                bad.append(letters)
    rng = random.Random(cfg.seed)
    checked = 0
    while checked < 200:
        mu = rng.choice(weights)
        length = rng.randint(0, cfg.word_len)
        letters = tuple((rng.choice("ef"), rng.randrange(n), 1)
                        for _ in range(length)) + (("a", mu),)
        x = img(letters)
        checked += 1
        if schur.tau_schur(x) != x:
            bad.append(letters)
    cases.append(_case("phi/tau-equivariance", not bad,
                       f"generators + {checked} random monomials; violations: {bad}"))

    # action through phi equals the direct module formulas
    bad = 0
    total = 0
    for m in transfer.enumerate_monomials(n, D, cfg.word_len):
        x = schur.phi_monomial(m, D)
        for lam in flag_comb.all_dominant(n, D):
            direct = tmodule.apply_word(m.letters, ModuleVector.basis(lam))
            via = (ModuleVector.zero(n, D) if x.is_zero()
                   else schur.act_on_module(x, ModuleVector.basis(lam)))
            total += 1
            if via != direct:
                bad += 1
    cases.append(_case("phi/action-consistency", bad == 0, f"{total - bad}/{total}"))
    return cases


# ---------------------------------------------------------------------------
# transfer suite


def suite_transfer(cfg: RunConfig) -> list:
    n = cfg.n
    cases = []

    flags, composition = transfer.walk_checks(n, cfg.word_len)
    psis = sorted({f[0] for f in flags})
    cases.append(_case("transfer/calibration",
                       psis == [transfer.PSI_FLAG],
                       f"surviving psi flags {psis}, rho candidates "
                       f"{len({str(f[1]) for f in flags})}"))
    for D, (passed, total) in composition.items():
        cases.append(_case(f"transfer/composition/D{D}", passed == total,
                           f"{passed}/{total} monomials, length <= {cfg.word_len}"))

    span = transfer.MonomialSpan(n, cfg.D + n)
    bad = 0
    total = 0
    for m in transfer.enumerate_monomials(n, cfg.D + n, 2):
        x = schur.phi_monomial(m, cfg.D + n)
        if x.is_zero():
            continue
        total += 1
        if transfer.transfer_map(x, span) != transfer.transfer_route_b(m, cfg.D):
            bad += 1
    cases.append(_case("transfer/dual-route", bad == 0, f"{total - bad}/{total}"))

    diag = [s for s in transfer.band_matrices(n, cfg.D + n, cfg.band)
            if all(s.lookup(i, i) >= 1 for i in range(1, n + 1))]
    bad = []
    skipped = 0
    for s in diag:
        r = transfer.check_leading_term(s, span)
        if r["ok"] is None:
            skipped += 1
        elif not r["ok"]:
            bad.append(dict(s.entries))
    cases.append(_case("transfer/leading-term", not bad,
                       f"{len(diag) - len(bad) - skipped}/{len(diag)} matrices ok, "
                       f"{skipped} outside the computable domain; failures {bad}"))

    tsys = canonical.tmodule_system()
    mats = transfer.aperiodic_band_matrices(n, cfg.D + n, cfg.band)
    verdicts = {}
    bad = []
    for s in mats:
        r = transfer.check_canonical_transfer(s, span, tsys)
        verdicts[r["verdict"]] = verdicts.get(r["verdict"], 0) + 1
        if r["verdict"] == "counterexample":
            bad.append(dict(s.entries))
    cases.append(_case("transfer/canonical-sweep", not bad,
                       f"{len(mats)} aperiodic matrices, verdicts {verdicts}"))
    return cases


# ---------------------------------------------------------------------------
# suite runner and report assembly


_SUITE_FN = {"relations": suite_relations, "crystal": suite_crystal,
             "canonical": suite_canonical, "schur": suite_schur,
             "transfer": suite_transfer}


def run_suite(cfg: RunConfig) -> dict:
    cfg.validate()
    cases = _SUITE_FN[cfg.suite](cfg)
    cases.sort(key=lambda c: c["id"])
    return {"suite": cfg.suite,
            "config": {"n": cfg.n, "D": cfg.D, "window": cfg.window,
                       "band": cfg.band, "word_len": cfg.word_len,
                       **cfg.flags()},
            "cases": cases}


def report_ok(report: dict) -> bool:
    return all(c["status"] == "pass" for c in report["cases"])


def report_to_text(report: dict, fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["id", "status", "detail"])
        for c in report["cases"]:
            w.writerow([c["id"], c["status"], c["detail"]])
        return buf.getvalue()
    return json.dumps(report, sort_keys=True, indent=1)


# ---------------------------------------------------------------------------
# compute subcommand


def _parse_symbol(text: str) -> FlagSymbol:
    try:
        return FlagSymbol.from_text(text)
    except Exception as e:
        raise SystemExit(f"cannot parse flag symbol {text!r}: {e}")


def _parse_matrix(text: str) -> PeriodicMatrix:
    try:
        parts = text.split(";")
        if len(parts) != 3 or not parts[0].startswith("n=") or not parts[1].startswith("D="):
            raise ValueError("expected three ';' parts starting n= and D=")
        n, D = int(parts[0][2:]), int(parts[1][2:])
        if n < 1 or D < 1:
            raise ValueError("n and D must be >= 1")
        cells = json.loads(parts[2])
        if any(type(x) is not int for cell in cells for x in cell):
            raise ValueError("cells must be integer triples")
        return PeriodicMatrix.make(n, D, {(i, j): v for i, j, v in cells})
    except SystemExit:
        raise
    except Exception as e:
        raise SystemExit(f"cannot parse matrix {text!r} "
                         f"(expected n=..;D=..;[[i,j,v],...]): {e}")


def _cache(args) -> "canonical.CanonicalCache | None":
    root = args.cache or os.environ.get(CACHE_ENV, "")
    return canonical.CanonicalCache(root) if root else None


def _cached_expansion(cache, n, D, lam_wt, mu_wt, key, solve):
    if cache is None:
        return canonical.expansion_to_json(solve())
    stored = cache.load(n, D, lam_wt, mu_wt).get(key)
    if stored is not None:
        return stored
    payload = canonical.expansion_to_json(solve())
    cache.store(n, D, lam_wt, mu_wt, key, payload)
    return payload


def compute(args) -> int:
    out = sys.stdout
    if args.entity == "xstat":
        p = _parse_symbol(args.p)
        print(x_stat(p), file=out)
    elif args.entity == "ystat":
        s = _parse_matrix(args.s)
        print(y_stat(s), file=out)
    elif args.entity == "canonical-t":
        p = _parse_symbol(args.p)
        payload = _cached_expansion(
            _cache(args), p.n, p.D, p.weight(), None, p.to_text(),
            lambda: canonical.canonical_tmodule(p))
        print(json.dumps(payload, sort_keys=True, indent=1), file=out)
    elif args.entity == "canonical-s":
        s = _parse_matrix(args.s)
        lam, mu = canonical.block_of(s)
        key = json.dumps(s.to_json()["entries"])
        payload = _cached_expansion(
            _cache(args), s.n, s.D, lam.weight(), mu.weight(), key,
            lambda: canonical.canonical_schur(s))
        print(json.dumps(payload, sort_keys=True, indent=1), file=out)
    elif args.entity == "crystal-graph":
        graph = crystal.crystal_graph(args.n, args.D, 1, args.window)
        if args.format == "dot":
            print(crystal.graph_to_dot(graph), file=out)
        else:
            print(json.dumps(crystal.graph_to_json(graph), sort_keys=True,
                             indent=1), file=out)
    elif args.entity == "transfer":
        s = _parse_matrix(args.s)
        if s.D <= s.n:
            raise SystemExit("transfer lowers the rank by n; need D > n")
        if not flag_comb.is_aperiodic(s):
            raise SystemExit("transfer expects an aperiodic matrix")
        span = transfer.MonomialSpan(s.n, s.D)
        r = transfer.check_canonical_transfer(s, span)
        print(json.dumps(
            {"matrix": s.to_json(),
             "verdict": r["verdict"],
             "shift": r["shift"].to_json() if r["shift"] is not None else None,
             "output": r["output"].to_json()},
            sort_keys=True, indent=1), file=out)
    else:
        raise SystemExit(f"unknown entity {args.entity!r}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="affine-schur",
        description="exact affine q-Schur computations and verification suites")
    sub = ap.add_subparsers(dest="command", required=True)

    rs = sub.add_parser("run-suite", help="run a verification suite")
    rs.add_argument("suite", choices=SUITES)
    rs.add_argument("--n", type=int, default=2)
    rs.add_argument("--D", type=int, default=2)
    rs.add_argument("--window", type=int, default=4)
    rs.add_argument("--band", type=int, default=2)
    rs.add_argument("--word-len", type=int, default=4)
    rs.add_argument("--format", choices=FORMATS, default="json")
    rs.add_argument("--seed", type=int, default=0)
    rs.add_argument("--out", default="", help="report path (default stdout)")

    cp = sub.add_parser("compute", help="compute a single quantity")
    cp.add_argument("entity", choices=("xstat", "ystat", "canonical-t",
                                       "canonical-s", "crystal-graph", "transfer"))
    cp.add_argument("--p", default="", help="flag symbol, n=..;D=..;[v1,...,vD]")
    cp.add_argument("--s", default="", help="matrix, n=..;D=..;[[i,j,v],...]")
    cp.add_argument("--n", type=int, default=2)
    cp.add_argument("--D", type=int, default=2)
    cp.add_argument("--window", type=int, default=4)
    cp.add_argument("--format", choices=("json", "dot"), default="json")
    cp.add_argument("--cache", default="", help=f"cache root (or ${CACHE_ENV})")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "compute":
        return compute(args)

    cfg = RunConfig(n=args.n, D=args.D, window=args.window, band=args.band,
                    word_len=args.word_len, suite=args.suite, fmt=args.format,
                    seed=args.seed)
    try:
        cfg.validate()
    except ValueError as e:
        print(f"invalid config: {e}", file=sys.stderr)
        return 2
    report = run_suite(cfg)
    text = report_to_text(report, cfg.fmt)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text + "\n")
    return 0 if report_ok(report) else 1


if __name__ == "__main__":
    sys.exit(main())
