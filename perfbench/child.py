"""One fresh interpreter of the benchmark: import the package, then do one job.

    python3 perfbench/child.py T0 CPU setup
    python3 perfbench/child.py T0 CPU suite SPANS_PATH -- run-suite SUITE ARGS...
    python3 perfbench/child.py T0 CPU kernels
    python3 perfbench/child.py T0 CPU ref

T0 is the CLOCK_MONOTONIC reading taken by the parent just before it started
this interpreter, so setup_s covers interpreter start-up and the package
imports.  The interpreter first pins itself, and every thread it starts, to
CPU number CPU (-1: no pinning).  The arguments after -- go to
`affine_schur.cli.main` unchanged; SPANS_PATH is empty for an untraced run.  The last line of standard output
is one JSON object with the measurements.

A ref job times the reference loop (`reference_loop`) and does not import
the package, so nothing the package does can change it.  The parent runs
one on the same CPU just before and just after each suite job.  The suite's
wall_s divided by their mean measures the suite in units of a fixed
computation timed on the same CPU around it, which cancels most of the
host's drift in speed.  Pinning is what makes it the same CPU: on a shared
host one CPU can run at half the speed of another for minutes.
"""

import json
import os
import resource
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference_loop() -> int:
    """A fixed pure-Python computation bound by memory, as the suites are:
    a table of about 20 MB with tuple keys and values, read in a scattered
    order.  About 0.3 s on the 2-core VM the benchmark was written on."""
    n = 1 << 17
    table = {(i, i * 7 % 13): (i, -i, i * i) for i in range(n)}
    keys = list(table)
    acc, j = 0, 1
    for _ in range(250000):
        j = (j * 1103515245 + 12345) & (n - 1)
        v = table[keys[j]]
        acc += v[0] - v[1]
    return acc


def main() -> int:
    t0, cpu, job = float(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
    if cpu >= 0:
        os.sched_setaffinity(0, {cpu})
    if job == "ref":
        r0 = _now()
        reference_loop()
        print(json.dumps({"ref_s": _now() - r0}))
        return 0
    from affine_schur import cli
    out = {"setup_s": _now() - t0}

    if job == "suite":
        spans_path, argv = sys.argv[4], sys.argv[6:]
        tracer = None
        if spans_path:
            import spans
            tracer = spans.Tracer()
            tracer.install()
        cpu0 = time.process_time()
        w0 = _now()
        out["rc"] = cli.main(argv)
        out["wall_s"] = _now() - w0
        out["cpu_s"] = time.process_time() - cpu0
        if tracer is not None:
            out["trace"] = _trace_summary(tracer)
            tracer.write_spans(spans_path)
    elif job == "kernels":
        import kernels
        out["kernels"] = kernels.run()
    elif job != "setup":
        raise SystemExit(f"unknown job {job!r}")

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out, sort_keys=True))
    return 0


def _trace_summary(tracer) -> dict:
    spans_of = tracer.spans_seen
    return {
        "calls": tracer.counts(),
        "self_s": tracer.self_times(),
        "tau_labels": len(tracer.tau_labels),
        "span_images": sum(len(s.monomials) for s in spans_of),
        "span_depth": max((s.word_len for s in spans_of), default=0),
        "leading_attempted": tracer.leading_attempted,
        "leading_decided": tracer.leading_decided,
        "span_count": tracer.span_count(),
        "covered_s": {name: tracer.covered_seconds(name)
                      for name in ("cli.run_suite", "crystal.kashiwara_oracle",
                                   "transfer.check_leading_term")},
    }


if __name__ == "__main__":
    sys.exit(main())
