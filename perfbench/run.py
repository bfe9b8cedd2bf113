#!/usr/bin/env python3
"""The affine-schur benchmark: verification suites run as a CLI user runs them.

    python3 perfbench/run.py --workload canonical --seed 0 --seconds 30 --trace 0

Each sample is a fresh interpreter calling
`affine_schur.cli.main(["run-suite", SUITE, SIZE FLAGS..., "--out", PATH])`,
one at a time (a closed loop with one client).  A run lasts about
--seconds: it starts no sample that would end after that, judging by the
previous one.  With --trace 0 it makes one warm-up sample, then repeats
samples and reports the medians of the end-to-end metrics; with --trace 1 it
makes one kernel pass, then untraced and traced samples in turn, and reports
the per-layer metrics.  Every sample's report, the warm-up's too, is checked
case by case against perfbench/reference/.

The last line of standard output is one JSON object: correct, attempted and
failed (suite cases), and metrics.  The line before it holds the run's
provenance.  Exit status is 0 only when every case matched the reference.
See perfbench/README.md for the workloads and the metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
import spans  # noqa: E402  (the target table; imports no affine_schur module)

# Only size flags: options that do not change the work stay at their
# defaults, so removing them from the CLI does not break the benchmark.
WORKLOADS = {
    "transfer": ["transfer", "--n", "2", "--D", "1", "--band", "1",
                 "--word-len", "3"],
    "canonical": ["canonical", "--n", "2", "--D", "3", "--window", "5",
                  "--band", "2"],
    "crystal": ["crystal", "--n", "3", "--D", "3", "--window", "6"],
}

_TRANSFER = [t for t in spans.TARGETS if t.startswith("transfer.")]
_CLI = ["cli.run_suite", "cli.report_to_text"]
# Functions that must record calls on a workload; zero calls means the
# wrappers went blind (or the workload stopped exercising the layer).
HEAVY = {
    "transfer": ["laurent.laurent_gcd", "hecke.bar", "hecke.double_coset_sum",
                 "hecke.mul_by_simple", "hecke.mul", "schur.schur_mul",
                 "schur.phi_monomial", *_TRANSFER, *_CLI],
    "canonical": ["affine_weyl.double_coset_elements",
                  "affine_weyl.young_subgroup_elements",
                  "flag_comb.double_coset_min_rep",
                  "flag_comb.enumerate_flag_symbols", "hecke.bar",
                  "hecke.double_coset_sum", "hecke.mul_by_simple", "hecke.mul",
                  "tmodule.tau", "canonical.solve_canonical",
                  "canonical.BarSystem.tau_expand", "schur.tau_schur",
                  "schur.act_on_module", *_CLI],
    "crystal": ["laurent.laurent_gcd", "tmodule.apply_e",
                "tmodule.angle_vector", "crystal.kashiwara_oracle",
                "crystal.string_decomposition", "crystal.bracket", *_CLI],
}

# wall_rel: the run's median suite wall time in units of the median time of
# the reference loop (child.reference_loop) timed on the same CPU around
# each sample.  Raw seconds drift with the shared host's speed by more than
# any usable bound; the ratio cancels most of that drift.  Raw wall_s is
# printed with every run and is a per-layer metric (cli.run_suite.wall_s).
END_TO_END = {"wall_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
KERNELS = {
    "affine_weyl.perm_mul_us": "us", "laurent.add_us": "us",
    "laurent.mul_us": "us", "laurent.rat_add_us": "us",
    "laurent.rat_mul_us": "us", "hecke.bar_us": "us",
    "hecke.double_coset_sum_us": "us", "canonical.tau_label_us": "us",
    "schur.mul_e_us": "us", "transfer.span_grow_s": "s",
    "transfer.span_solve_us": "us",
}
DERIVED = {
    "canonical.tau_labels": "count", "canonical.tau_hit_ratio": "ratio",
    "transfer.span_images": "count", "transfer.span_depth": "count",
    "transfer.leading_decided_ratio": "ratio", "cli.run_suite.cpu_s": "s",
    "cli.run_suite.wall_s": "s",
    "trace.overhead_ratio": "ratio",
}
# Self time is a share of the traced sample's wall time: a function that a
# workload never calls then reads 0 as a ratio, not as a constant time, and
# shares compare across hosts of different speed.
PER_LAYER = {**{f"{t}.{kind}": unit for t in spans.TARGETS
                for kind, unit in (("calls", "count"), ("self_share", "ratio"))},
             **DERIVED, **KERNELS}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# Samples are pinned to these CPUs in turn (see child.py), so that each
# CPU's share of the samples is the same in every run.
CPUS = (sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else [-1])
# Workloads on the CLI's thread pool are not pinned: on one CPU the pool's
# threads hand the GIL on in one of two ways, from sample to sample, and
# crystal's wall time jumps between about 1.6 s and 2.4 s.
UNPINNED = {"crystal"}


def _child(job: list, turn: int = 0) -> dict:
    """Run perfbench/child.py in a fresh interpreter, pinned to the CPU
    whose turn it is (turn None: not pinned); its last line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # fixed string hashing, so that set iteration order and hence the
    # traced call counts repeat exactly between runs
    env["PYTHONHASHSEED"] = "0"
    t0 = _now()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), repr(t0),
         str(-1 if turn is None else CPUS[turn % len(CPUS)])] + job,
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        return {"error": f"child exited with {proc.returncode}"}
    return json.loads(lines[-1])


def _reference(workload: str) -> dict:
    report = json.loads((HERE / "reference" / f"{workload}.json").read_text())
    return {c["id"]: c for c in report["cases"]}


def _failed_cases(reference: dict, report_path: Path) -> int:
    """Cases that fail, differ from the reference record, or are missing
    or extra."""
    try:
        cases = {c["id"]: c for c in json.loads(report_path.read_text())["cases"]}
    except (OSError, ValueError, KeyError):
        return len(reference)
    bad = sum(1 for c in cases.values()
              if c["status"] != "pass" or c != reference.get(c["id"]))
    return bad + sum(1 for cid in reference if cid not in cases)


def _suite_argv(workload: str) -> list:
    report = (OUT / f"{workload}.report.json").relative_to(ROOT)
    return ["run-suite", *WORKLOADS[workload], "--out", str(report)]


def _suite_sample(workload: str, traced: bool, turn: int = 0) -> tuple:
    """One suite run: (child measurements, cases failed).  Its ref_s is the
    mean of the reference loop's times just before and just after it."""
    report = OUT / f"{workload}.report.json"
    report.unlink(missing_ok=True)
    spans_path = str(OUT / f"{workload}.spans.tsv") if traced else ""
    if workload in UNPINNED:
        turn = None
    before = _child(["ref"], turn)
    res = _child(["suite", spans_path, "--"] + _suite_argv(workload), turn)
    failed = _failed_cases(_reference(workload), report)
    after = _child(["ref"], turn)
    for r in (before, after):
        if "error" in r:
            res = r
    if "error" not in res:
        res["ref_s"] = (before["ref_s"] + after["ref_s"]) / 2
    if "error" in res:
        failed = max(failed, 1)
    report.unlink(missing_ok=True)
    return res, failed


def _fits(deadline: float, started: float) -> bool:
    """Whether one more step, as long as the one begun at `started`, ends
    by the deadline."""
    now = _now()
    return now + (now - started) <= deadline


def measure_end_to_end(workload: str, seconds: float) -> tuple:
    deadline = _now() + seconds
    # warm-up: compiles bytecode in a fresh checkout and loads the files into
    # the page cache; checked, not timed
    res, failed = _suite_sample(workload, traced=False)
    if "error" in res:
        return {}, max(failed, 1), 1, {}
    samples, runs = [], 1
    while True:
        started = _now()
        res, bad = _suite_sample(workload, traced=False, turn=len(samples))
        failed += bad
        runs += 1
        if "error" in res:
            break
        samples.append(res)
        if not _fits(deadline, started):
            break
    setups = [s["setup_s"] for s in samples]
    while samples and len(setups) < 5:
        res = _child(["setup"], len(setups))
        if "error" in res:
            failed = max(failed, 1)
            break
        setups.append(res["setup_s"])
    if not samples:
        return {}, failed, runs, {}
    wall = statistics.median(s["wall_s"] for s in samples)
    ref = statistics.median(s["ref_s"] for s in samples)
    metrics = {
        # a ratio of medians: the reference loop's time of one sample
        # follows its suite's only loosely, the run's median follows closely
        "wall_rel": wall / ref,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }
    extra = {"samples": len(samples), "setup_samples": len(setups),
             "wall_s": wall, "ref_s": ref,
             "wall_s_all": [s["wall_s"] for s in samples],
             "ref_s_all": [s["ref_s"] for s in samples]}
    return metrics, failed, runs, extra


def measure_per_layer(workload: str, seconds: float) -> tuple:
    """Kernel pass, then untraced and traced samples in turn until the time
    is up; self times and the overhead are medians, counts come from the
    first traced sample (the others must repeat them)."""
    deadline = _now() + seconds
    kern = _child(["kernels"])
    if "error" in kern:
        return {}, 1, 0, {}
    plain, traced, failed = [], [], 0
    while True:
        started = _now()
        for runs, is_traced in ((plain, False), (traced, True)):
            res, bad = _suite_sample(workload, is_traced, len(traced))
            failed += bad
            if "error" in res:
                return {}, max(failed, 1), len(plain) + len(traced) + 1, {}
            runs.append(res)
        if not _fits(deadline, started):
            break
    tr = traced[0]["trace"]
    metrics = {}
    for t in spans.TARGETS:
        metrics[f"{t}.calls"] = tr["calls"][t]
        metrics[f"{t}.self_share"] = statistics.median(
            r["trace"]["self_s"][t] / r["wall_s"] for r in traced)
    tau_calls = tr["calls"]["canonical.BarSystem.tau_expand"]
    attempted = tr["leading_attempted"]
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    metrics.update({
        "canonical.tau_labels": tr["tau_labels"],
        "canonical.tau_hit_ratio":
            1 - tr["tau_labels"] / tau_calls if tau_calls else 0.0,
        "transfer.span_images": tr["span_images"],
        "transfer.span_depth": tr["span_depth"],
        "transfer.leading_decided_ratio":
            tr["leading_decided"] / attempted if attempted else 0.0,
        "cli.run_suite.cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "cli.run_suite.wall_s": plain_wall,
        "trace.overhead_ratio":
            statistics.median(r["wall_s"] for r in traced) / plain_wall,
    })
    metrics.update(kern["kernels"])
    exact = ("calls", "tau_labels", "span_images", "span_depth",
             "leading_attempted", "leading_decided")
    extra = {"untraced_samples": len(plain), "traced_samples": len(traced),
             "counts_repeat": all({k: r["trace"][k] for k in exact}
                                  == {k: tr[k] for k in exact} for r in traced),
             "spans": tr["span_count"], "covered_s": tr["covered_s"],
             "traced_wall_s": traced[0]["wall_s"],
             "zero_heavy": [t for t in HEAVY[workload] if tr["calls"][t] == 0]}
    return metrics, failed, len(plain) + len(traced), extra


def _provenance(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "affine_schur").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = ""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10).stdout.strip()
        except OSError:
            pass
    return {"git_sha": sha or None, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "argv": _suite_argv(args.workload)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    # inert: every workload is an exhaustive enumeration with no random input
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "affine_schur" / "cli.py").is_file():
        print(f"no affine_schur package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    if args.trace:
        values, failed, runs, extra = measure_per_layer(args.workload, args.seconds)
        units = PER_LAYER
    else:
        values, failed, runs, extra = measure_end_to_end(args.workload, args.seconds)
        units = END_TO_END
    cases = len(_reference(args.workload))
    result = {"correct": failed == 0 and bool(values),
              "attempted": max(1, cases * runs), "failed": failed,
              "metrics": {k: {"value": values[k], "unit": u}
                          for k, u in units.items() if k in values}}
    if extra.get("zero_heavy"):
        print(f"traced run is blind: zero calls on {extra['zero_heavy']}",
              file=sys.stderr)
        result["correct"] = False
    prov = _provenance(args)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": prov, "extra": extra, "result": result},
                   indent=1, sort_keys=True))
    for k, u in END_TO_END.items() if not args.trace else ():
        if k in values:
            print(f"{args.workload} {k} = {values[k]:.4f} {u}")
    for k in ("wall_s", "ref_s") if "ref_s" in extra else ():
        print(f"{args.workload} {k} = {extra[k]:.4f} s (raw, not bounded)")
    print(f"{args.workload} cases = {result['attempted']}, "
          f"cases_failed = {failed}, samples = {runs}")
    print(json.dumps({"provenance": prov, "extra": extra}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
