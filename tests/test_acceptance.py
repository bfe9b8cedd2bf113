"""Acceptance gate: eight exact criteria, one pass/fail line each.

Every criterion runs with zero tolerance; a single failing case fails the
criterion. Run with -s to see the summary lines.
"""

import sys

from affine_schur import canonical, cli, flag_comb as fc, schur, tmodule, transfer
from affine_schur.flag_comb import FlagSymbol
from affine_schur.laurent import ONE


def _verdict(num: int, label: str, fails, total: int):
    status = "PASS" if not fails else "FAIL"
    line = f"[{status}] criterion {num}: {label} ({total - len(fails)}/{total})"
    print(line, file=sys.stderr)
    assert not fails, fails[:5]


def _failing(cases):
    return [c for c in cases if c["status"] != "pass"]


def test_criterion_1_hecke_presentation():
    cases = []
    for D in (2, 3):
        cfg = cli.RunConfig(n=2, D=D, word_len=5)
        cases += list(cli._hecke_cases(cfg))
    _verdict(1, "Hecke presentation, rank 2 and 3, words to length 5",
             _failing(cases), len(cases))


def test_criterion_2_module_relations():
    cases = []
    for n in (2, 3):
        for D in (1, 2, 3, 4):
            cfg = cli.RunConfig(n=n, D=D, window=2 * n)
            cases += list(cli._module_cases(cfg))
    # every commutator case must also report the constant scalar form
    assert all("scalar form" in c["detail"]
               for c in cases if c["id"].endswith("commutator"))
    _verdict(2, "module relations on all basis vectors, n <= 3, D <= 4",
             _failing(cases), len(cases))


def test_criterion_3_statistics_identities():
    cases = []
    for n in (2, 3):
        for D in (1, 2, 3, 4):
            cfg = cli.RunConfig(n=n, D=D, window=2 * n)
            cases += list(cli._xdiff_cases(cfg)) + list(cli._ystat_cases(cfg))
    _verdict(3, "x-difference and y-statistic identities, n <= 3, D <= 4",
             _failing(cases), len(cases))


def test_criterion_4_crystal_oracle():
    cases = []
    for n in (2, 3):
        for D in (1, 2, 3, 4):
            cfg = cli.RunConfig(n=n, D=D, window=2 * n)
            cases += cli.suite_crystal(cfg)
    # the oracle comparison must be exhaustive, not sampled
    assert any("oracle" in c["id"] for c in cases)
    _verdict(4, "crystal operators match the sl2-string oracle everywhere",
             _failing(cases), len(cases))


def test_criterion_5_canonical_bases():
    cfg = cli.RunConfig(n=2, D=2, window=4, band=2)
    cases = cli.suite_canonical(cfg)
    # stalk-dimension nonnegativity is folded into the module/algebra cases;
    # the compat cases carry the blockwise normalization check
    ids = {c["id"] for c in cases}
    assert any(i.startswith("canonical/algebra") for i in ids)
    assert any(i.startswith("canonical/compat") for i in ids)
    _verdict(5, "canonical bases tau-fixed, unitriangular, compatible",
             _failing(cases), len(cases))


def test_criterion_6_evaluation_homomorphism():
    cases = []
    for D in (1, 2, 3):
        cfg = cli.RunConfig(n=2, D=D, word_len=3)
        cases += cli.suite_schur(cfg)
    _verdict(6, "relations annihilate under phi; action consistency n=2, D <= 3",
             _failing(cases), len(cases))


def test_criterion_7_transfer():
    cfg = cli.RunConfig(n=2, D=2, band=2, word_len=4)
    cases = cli.suite_transfer(cfg)
    by_id = {c["id"]: c for c in cases}
    # exactly one psi convention survives calibration and it is the frozen one
    assert "offset" in by_id["transfer/calibration"]["detail"]
    assert transfer.PSI_FLAG == ("offset", -1)
    _verdict(7, "transfer composition, dual route, leading term, full sweep",
             _failing(cases), len(cases))


def test_criterion_8_determinism_roundtrip(tmp_path, capsys):
    fails = []
    total = 4

    cfg = cli.RunConfig(n=2, D=2, window=4, suite="relations", word_len=3)
    if cli.report_to_text(cli.run_suite(cfg), "json") != \
            cli.report_to_text(cli.run_suite(cfg), "json"):
        fails.append("repeated suite runs differ")

    labels = fc.enumerate_flag_symbols(2, 2, 1, 4)
    fwd = canonical.tmodule_system()
    rev = canonical.tmodule_system()
    a = {p: canonical.canonical_tmodule(p, fwd) for p in labels}
    b = {p: canonical.canonical_tmodule(p, rev) for p in reversed(labels)}
    if a != b:
        fails.append("solver output depends on processing order")

    p = FlagSymbol(2, 3, (2, 1, 3))
    vec = tmodule.apply_f(1, tmodule.ModuleVector.basis(p))
    x = schur.phi_e(2, 3, 0, (2, 1)) + schur.phi_idempotent(2, 3, (1, 2))
    if not (FlagSymbol.from_text(p.to_text()) == p
            and tmodule.ModuleVector.from_json(vec.to_json()) == vec
            and schur.SchurElement.from_json(x.to_json()) == x):
        fails.append("serialization round-trip broke")

    args = ["compute", "canonical-s", "--s", "n=2;D=2;[[1,2,1],[2,2,1]]",
            "--cache", str(tmp_path)]
    assert cli.main(args) == 0
    cold = capsys.readouterr().out
    assert cli.main(args) == 0
    if capsys.readouterr().out != cold:
        fails.append("warm-cache run not byte-identical")

    _verdict(8, "determinism, round-trip, warm-cache identity",
             fails, total)
