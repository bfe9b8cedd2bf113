"""Command line entry point: exit codes, report schema, determinism."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

from affine_schur import cli, flag_comb as fc, schur, tmodule, transfer
from affine_schur.laurent import LaurentScalar
from affine_schur.schur import UdotMonomial
from affine_schur.tmodule import ModuleVector

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_compute_xstat(capsys):
    assert cli.main(["compute", "xstat", "--p", "n=2;D=2;[2,1]"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_compute_canonical_t(capsys):
    assert cli.main(["compute", "canonical-t", "--p", "n=2;D=2;[2,1]"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["leading"] == [2, 1]
    assert len(payload["terms"]) == 2


def test_invalid_config_exits_2(capsys):
    assert cli.main(["run-suite", "schur", "--n", "0"]) == 2
    assert "invalid config" in capsys.readouterr().err


@pytest.mark.parametrize("flags, rule", [
    (["--n", "0"], "n, D and window must be >= 1"),
    (["--D", "0"], "n, D and window must be >= 1"),
    (["--window", "0"], "n, D and window must be >= 1"),
    (["--band", "-1"], "band and word_len must be >= 0"),
    (["--word-len", "-1"], "band and word_len must be >= 0"),
])
def test_invalid_config_names_the_rule(flags, rule, capsys):
    assert cli.main(["run-suite", "schur", *flags]) == 2
    assert capsys.readouterr().err.strip() == f"invalid config: {rule}"


@pytest.mark.parametrize("suite, flags", [
    ("relations", ["--D", "2"]),
    ("transfer", ["--D", "1", "--band", "1", "--word-len", "2"]),
])
def test_rank_one_exits_2_for_relations_and_transfer(suite, flags, capsys):
    # at n = 1 the residues (i-1) mod n and i mod n coincide, so these suites'
    # failures there would not be counterexamples
    assert cli.main(["run-suite", suite, "--n", "1", *flags]) == 2
    assert capsys.readouterr().err.strip() == (
        f"invalid config: the {suite} suite needs n >= 2: affine sl_n's "
        "Chevalley generators need two residues, and (i-1) mod n and i mod n "
        "coincide at n = 1")


def test_zero_band_and_word_len_are_valid():
    cli.RunConfig(band=0, word_len=0).validate()


@pytest.mark.parametrize("text", [
    "x=2;y=3;[[1,1,3]]",                # prefixes other than n= and D=
    "n=2;D=3;[[1,1,3]];junk",           # an extra ';' part
    "n=2;D=3;[[1,1,1.5],[2,2,1.5]]",    # cells that are not integers
    "n=2;D=0;[]",                       # an empty rank
])
@pytest.mark.parametrize("entity", ["ystat", "canonical-s"])
def test_compute_rejects_malformed_matrix(entity, text, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute", entity, "--s", text])
    assert str(exc.value.code).startswith(f"cannot parse matrix {text!r}")
    assert capsys.readouterr().out == ""


def test_validate_rejects_format_run_suite_cannot_write():
    # report_to_text writes json or csv; "dot" is a format of compute only
    with pytest.raises(ValueError, match="unknown format 'dot'"):
        cli.RunConfig(fmt="dot").validate()


def test_run_suite_report_schema(capsys):
    assert cli.main(["run-suite", "relations", "--n", "2", "--D", "2",
                     "--word-len", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["suite"] == "relations"
    assert report["config"]["n"] == 2
    # convention flags are embedded so reports are self-describing
    assert report["config"]["psi_flag"] == ["offset", -1]
    assert report["config"]["commutator"] == "upper"
    assert "eps_rho" in report["config"]
    for case in report["cases"]:
        assert set(case) == {"id", "status", "detail"}
        assert case["status"] in ("pass", "fail")
    ids = [c["id"] for c in report["cases"]]
    assert ids == sorted(ids)


def test_csv_format(capsys):
    assert cli.main(["run-suite", "schur", "--n", "2", "--D", "2",
                     "--word-len", "2", "--format", "csv"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
    assert lines[0] == "id,status,detail"
    assert all(line.split(",")[1] == "pass" for line in lines[1:])


def test_report_deterministic():
    cfg = cli.RunConfig(n=2, D=3, window=4, suite="crystal")
    a = cli.report_to_text(cli.run_suite(cfg), "json")
    b = cli.report_to_text(cli.run_suite(cfg), "json")
    assert a == b


def test_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(["run-suite", "canonical", "--n", "2", "--D", "2",
                     "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text())
    assert all(c["status"] == "pass" for c in report["cases"])


def test_cache_warm_run_identical(tmp_path, capsys):
    args = ["compute", "canonical-s", "--s", "n=2;D=2;[[1,2,1],[2,2,1]]",
            "--cache", str(tmp_path)]
    assert cli.main(args) == 0
    cold = capsys.readouterr().out
    assert any(tmp_path.iterdir())
    assert cli.main(args) == 0
    assert capsys.readouterr().out == cold


def test_transfer_compute_requires_lowering():
    with pytest.raises(SystemExit):
        cli.main(["compute", "transfer", "--s", "n=2;D=2;[[1,1,1],[2,2,1]]"])


def test_transfer_compute_rejects_periodic_matrix(capsys):
    # the offset-1 diagonal (1,2), (2,3) is full, so the matrix is periodic
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute", "transfer", "--s",
                  "n=2;D=4;[[1,1,1],[1,2,1],[2,2,1],[2,3,1]]"])
    assert exc.value.code == "transfer expects an aperiodic matrix"
    assert capsys.readouterr().out == ""


def test_canonical_report_same_cold_warm_and_across_hash_seeds(tmp_path):
    """Memo iteration order must not leak into a report: two fresh
    interpreters with different hash seeds and a warm in-process rerun all
    write the same bytes."""
    args = ["run-suite", "canonical", "--n", "2", "--D", "2", "--window", "4",
            "--band", "2"]
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    reports = []
    for seed in ("0", "1"):
        out = tmp_path / f"cold{seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "affine_schur.cli", *args,
                        "--out", str(out)], env=env, check=True, timeout=300)
        reports.append(out.read_bytes())
    for name in ("first", "warm"):
        out = tmp_path / f"{name}.json"
        assert cli.main([*args, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] and all(r == reports[0] for r in reports)


def test_transfer_suite_matches_benchmark_reference():
    """The benchmark's workloads, in process: every case must equal the
    checked-in reference record."""
    workloads = {
        "transfer": dict(n=2, D=1, band=1, word_len=3),
        "canonical": dict(n=2, D=3, window=5, band=2),
        "crystal": dict(n=3, D=3, window=6),
    }
    for suite, size in workloads.items():
        reference = json.loads(
            (ROOT / "perfbench" / "reference" / f"{suite}.json").read_text())
        report = cli.run_suite(cli.RunConfig(suite=suite, **size))
        assert ([(c["id"], c["status"], c["detail"]) for c in report["cases"]]
                == [(c["id"], c["status"], c["detail"]) for c in reference["cases"]]), suite


def test_benchmark_span_targets_resolve():
    """Every function the benchmark traces exists, so a rename fails here
    and not first in a benchmark run."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for name in spans.TARGETS:
        mod_name, *attrs = name.split(".")
        obj = importlib.import_module(f"{spans.PACKAGE}.{mod_name}")
        for attr in attrs:
            obj = getattr(obj, attr)
        assert callable(obj), name


_KERNELS_WITH_TRACE = """
import json
import child, kernels, spans
tracer = spans.Tracer()
tracer.install()
out = kernels.run()
print(json.dumps({"kernels": out, "trace": child._trace_summary(tracer)}))
"""


def test_benchmark_kernels_read_the_span():
    """The benchmark's kernel pass runs under its tracer, and the trace
    summary reads `len(span.monomials)` and `span.word_len` of every span
    it saw, as a benchmark child does, so a change to the span's API fails
    here and not first in a benchmark run.  A fresh interpreter keeps the
    tracer's rebinding out of this process."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", _KERNELS_WITH_TRACE], env=env,
                         capture_output=True, text=True, check=True, timeout=300)
    got = json.loads(res.stdout)
    assert got["kernels"] and all(t > 0 for t in got["kernels"].values())
    spec = importlib.util.spec_from_file_location(
        "perfbench_kernels", ROOT / "perfbench" / "kernels.py")
    kernels = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernels)
    span = transfer.MonomialSpan(2, 3)
    span.grow([(1, 2)], kernels.SPAN_DEPTH)
    trace = got["trace"]
    assert trace["span_depth"] == span.word_len == kernels.SPAN_DEPTH
    # every span the pass grows is this one, built afresh
    assert trace["span_images"] and trace["span_images"] % len(span.monomials) == 0


_HEAVY_UNDER_TRACE = """
import json, sys
import run, spans
from affine_schur import cli
if len(sys.argv) == 1:
    print(json.dumps(sorted(run.WORKLOADS)))
    raise SystemExit
workload, out = sys.argv[1:]
tracer = spans.Tracer()
tracer.install()
rc = cli.main(["run-suite", *run.WORKLOADS[workload], "--out", out])
calls = tracer.counts()
print(json.dumps({"rc": rc, "calls": {name: calls[name] for name in run.HEAVY[workload]}}))
"""


def test_benchmark_heavy_functions_record_calls(tmp_path):
    """Each benchmark workload, run under the benchmark's tracer, records a
    call on every function its traced run requires (`run.HEAVY`), so a
    change that blinds the traced run fails here and not first in a
    benchmark run.  One fresh interpreter per workload keeps the
    tracer's rebinding out of this process and out of the other
    workloads."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")])))

    def child(*args):
        res = subprocess.run([sys.executable, "-c", _HEAVY_UNDER_TRACE, *args],
                             env=env, capture_output=True, text=True, check=True,
                             timeout=300)
        return json.loads(res.stdout.splitlines()[-1])

    for workload in child():
        got = child(workload, str(tmp_path / f"{workload}.json"))
        assert got["rc"] == 0, workload
        assert [name for name, n in got["calls"].items() if n == 0] == [], workload


def test_transfer_suite_at_rank_three(tmp_path):
    """The transfer theorems at n = 3: every verdict count of
    `run-suite transfer --n 3 --D 1 --band 1 --word-len 2` is pinned."""
    out = tmp_path / "transfer-n3.json"
    assert cli.main(["run-suite", "transfer", "--n", "3", "--D", "1",
                     "--band", "1", "--word-len", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert {c["id"]: (c["status"], c["detail"]) for c in report["cases"]} == {
        "transfer/calibration":
            ("pass", "surviving psi flags [('offset', -1)], rho candidates 14"),
        "transfer/canonical-sweep":
            ("pass", "477 aperiodic matrices, verdicts "
                     "{'matches-(a)': 468, 'matches-(b)': 9}"),
        "transfer/composition/D1": ("pass", "645/645 monomials, length <= 2"),
        "transfer/composition/D2": ("pass", "903/903 monomials, length <= 2"),
        "transfer/dual-route": ("pass", "339/339"),
        "transfer/leading-term":
            ("pass", "9/9 matrices ok, 0 outside the computable domain; failures []"),
    }


def test_relations_suite_at_rank_three():
    """`run-suite relations --n 3 --D 3 --window 6 --word-len 4`: every case
    is pinned."""
    cases = cli.suite_relations(cli.RunConfig(n=3, D=3, window=6, word_len=4))
    hecke_ids = ["braid/T1.T2", "inverse/T1", "inverse/T2", "quadratic/T1",
                 "quadratic/T2", "twist/T1.X1.T1", "twist/T2.X2.T2",
                 "x-commute/X1.X2", "x-commute/X1.X3", "x-commute/X2.X3",
                 "x-inverse/X1", "x-inverse/X2", "x-inverse/X3",
                 "x-past/T1.X3", "x-past/T2.X1"]
    assert {c["id"]: (c["status"], c["detail"]) for c in cases} == {
        **{f"hecke/{h}": ("pass", "") for h in hecke_ids},
        "hecke/word-folds": ("pass", "30 words, length <= 4"),
        "module/commutator/n3D3":
            ("pass", "scalar form [mu_i - mu_{i+1}] on 30 weight spaces"),
        "module/idempotents/n3D3": ("pass", "216 vectors"),
        "module/serre/n3D3": ("pass", "216 vectors"),
        "module/weight-shifts/n3D3": ("pass", "216 vectors"),
        "stats/x-differences/n3D3": ("pass", "1296/1296 positions"),
        "stats/y-generators/n3D3": ("pass", "violations: []"),
    }


def _module_act(letters, p):
    return tmodule.apply_word(letters, ModuleVector.basis(p))


def _schur_act(letters, mu):
    return schur.phi_monomial(UdotMonomial(len(mu), letters + (("a", mu),)),
                              sum(mu))


def _f_scaled_by_v(act):
    """act with every f letter scaled by v."""
    def scaled(letters, label):
        return act(letters, label).scale(
            LaurentScalar.v(sum(g[0] == "f" for g in letters)))
    return scaled


def _e_f_swapped(act):
    """act with e_i and f_i exchanged, so each moves the weight the other's
    way."""
    swap = {"e": "f", "f": "e"}

    def swapped(letters, label):
        return act(tuple((swap[g[0]],) + g[1:] if g[0] in swap else g
                         for g in letters), label)
    return swapped


_REPRESENTATIONS = {
    "module": lambda n, D: (fc.enumerate_flag_symbols(n, D, 1, 2 * n),
                            fc.FlagSymbol.weight, _module_act),
    "schur": lambda n, D: (list(fc.weights(n, D)), tuple, _schur_act),
}


@pytest.mark.parametrize("rep", sorted(_REPRESENTATIONS))
@pytest.mark.parametrize("n, D", [(2, 2), (3, 2)])
def test_relation_checker_passes_and_has_teeth(rep, n, D):
    labels, weight, act = _REPRESENTATIONS[rep](n, D)
    bad, forms = cli._relation_violations(n, D, labels, weight, act)
    assert bad == {"idempotents": [], "weight-shifts": [], "commutator": [],
                   "serre": []}
    assert forms == {(i, weight(lab)) for lab in labels for i in range(n)}

    bad, _ = cli._relation_violations(n, D, labels, weight, _f_scaled_by_v(act))
    assert bad["commutator"]
    assert not bad["idempotents"] and not bad["weight-shifts"]

    bad, _ = cli._relation_violations(n, D, labels, weight, _e_f_swapped(act))
    assert bad["weight-shifts"]
