#!/usr/bin/env python3
"""Run every verification suite at its reference size and summarize.

Writes one JSON report per run into --out-dir (default ./reports), named
after the run's key (the suite, then "-" and a tag when a suite runs at
more than one size), and prints a one-line verdict per run. Exit status is
nonzero if any run has a failing case. The transfer suite sweeps 501
matrices and took 2.7 s at its reference size on a shared 2-core x86-64
VM (Python 3.11, median of three runs, 2.6-2.7 s; the whole reference set
took about 4.4 s) and peaked at 42 MB RSS when run on its own; pass --quick
to shrink the bounds. The reference sizes run canonical,
schur and crystal at n = 3 as well (crystal at D = 4, with symbols whose
local word is empty and residue 0 wrapping past position 1), and the quick
sizes run transfer at n = 3 (about 2 s), since the theorems hold for every n.
Relations, schur and crystal also run at n = 4, the smallest rank with two
residues that commute (a_ij = 0), so that the Serre relations take their
m = 1 form and the crystal checks meet residues whose local positions are
disjoint.
"""

import argparse
import json
import pathlib
import sys
import time

from affine_schur import cli

REFERENCE = {
    "relations": dict(n=3, D=3, window=6, word_len=4),
    "relations-n4": dict(n=4, D=3, window=5, word_len=2),
    "crystal": dict(n=2, D=3, window=4),
    "crystal-n3": dict(n=3, D=4, window=5),
    "crystal-n4": dict(n=4, D=4, window=6),
    "canonical": dict(n=2, D=3, window=5, band=3),
    "canonical-n3": dict(n=3, D=3, window=4, band=1),
    "schur": dict(n=2, D=2, word_len=3),
    "schur-n3": dict(n=3, D=3, word_len=2),
    "schur-n4": dict(n=4, D=2, word_len=2),
    "transfer": dict(n=2, D=2, band=2, word_len=4),
}
QUICK = {
    "relations": dict(n=2, D=2, window=4, word_len=3),
    "crystal": dict(n=2, D=2, window=4),
    "canonical": dict(n=2, D=2, window=4, band=1),
    "schur": dict(n=2, D=2, word_len=2),
    "transfer": dict(n=2, D=2, band=1, word_len=3),
    "transfer-n3": dict(n=3, D=1, band=1, word_len=2),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="reports")
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sizes = QUICK if args.quick else REFERENCE

    bad = 0
    for name, size in sizes.items():
        cfg = cli.RunConfig(suite=name.split("-")[0], **size)
        t0 = time.monotonic()
        report = cli.run_suite(cfg)
        dt = time.monotonic() - t0
        path = out_dir / f"{name}.json"
        path.write_text(cli.report_to_text(report, "json"))
        fails = [c for c in report["cases"] if c["status"] != "pass"]
        bad += len(fails)
        verdict = "ok" if not fails else f"{len(fails)} FAILING"
        print(f"{name:11s} {len(report['cases']):4d} cases  {verdict}"
              f"  ({dt:.1f}s)  -> {path}")
        for c in fails[:5]:
            print(f"    fail: {c['id']}: {c['detail']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
