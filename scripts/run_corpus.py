#!/usr/bin/env python3
"""Sweep the example corpus over several characteristics, comparing the
combinatorial classifier with the homological oracle, and print a summary
table plus the number of disagreements.  The check column reads "ok" when
the oracle bears out the classifier, "cap" when the classifier says
Gorenstein but the oracle stopped at the cap, and "MISMATCH" otherwise; only
MISMATCH rows count as disagreements.

Usage: python3 scripts/run_corpus.py [--seed N] [--cap N] [--chars 0,2,3,5]

A negative --cap, or a --chars entry that is not 0 or a prime, is refused
with exit 2 and a one-line message.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from eicat.cli import sweep
from eicat.families import corpus
from eicat.linalg import Field

CHECK = {True: "ok", None: "cap", False: "MISMATCH"}


def cap(text):
    """A cap: an int >= 0."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"the cap must be >= 0, got {n}")
    return n


def characteristics(text):
    """A comma-separated list of characteristics, each 0 or a prime."""
    chars = []
    for entry in text.split(","):
        try:
            chars.append(Field(int(entry)).characteristic)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{entry!r} is not 0 or a prime") from None
    return chars


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cap", type=cap, default=8)
    ap.add_argument("--chars", type=characteristics, default="0,2,3,5")
    args = ap.parse_args()
    chars = args.chars

    t0 = time.time()
    results = sweep(corpus(args.seed), chars, args.cap)
    rows = []
    for (name, ch), r in results.items():
        rep, verdict = r.report, r.verdict
        rows.append((name, ch, r.algebra.dim, rep.free, rep.gorenstein,
                     rep.one_gorenstein, rep.hereditary, verdict.left.value,
                     verdict.right.value, r.gldim.value, CHECK[r.agrees]))
    disagreements = [r for r in results.values() if r.agrees is False]
    elapsed = time.time() - t0

    hdr = ("instance", "char", "dim", "free", "gor", "1gor", "her",
           "id_l", "id_r", "gldim", "check")
    widths = [max(len(str(r[i])) for r in rows + [hdr]) for i in range(len(hdr))]
    for r in [hdr] + rows:
        print("  ".join(str(x).ljust(w) for x, w in zip(r, widths)))
    print(f"\n{len(rows)} runs in {elapsed:.1f}s; "
          f"{len(disagreements)} disagreement(s)")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
