"""The cap-convergence table: survey means of shared preperiodic points at
d = 6 for X in {5, 10, 20}, at caps (2, 1) and (3, 2).

A shared count at caps (m, n) is a lower bound on the pair's full count, so
the table shows how far the mean moves when the caps grow.  Every cell of one
X uses the same seed, so both caps count the same sampled pairs.

Run from the root of a checkout:

    PYTHONPATH=src python scripts/cap_convergence.py --samples 10000 --out data/cap_convergence.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

import numpy as np

from arithdyn.survey import SurveyConfig, survey_average_prep

D = 6
XS = (5, 10, 20)
CAPS = ((2, 1), (3, 2))


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], capture_output=True, text=True, check=True).stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--samples", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    cells = []
    for X in XS:
        for m_cap, n_cap in CAPS:
            cfg = SurveyConfig(d=D, X=X, samples=args.samples, seed=args.seed, m_cap=m_cap, n_cap=n_cap)
            start = time.process_time()
            res = survey_average_prep(cfg)
            seconds = time.process_time() - start
            summary = res.to_json()
            cells.append(
                {
                    "d": D,
                    "X": X,
                    "caps": [m_cap, n_cap],
                    "seed": args.seed,
                    "samples": summary["samples"],
                    "failures": summary["failures"],
                    "mean_shared": summary["mean_shared"],
                    "ci": summary["ci"],
                    "case_freq": summary["case_freq"],
                    "inconclusive": summary["inconclusive"],
                    "rows_sharing": sum(r.shared_count > 0 for r in res.rows),
                    "cpu_s": round(seconds, 2),
                }
            )
            print(json.dumps(cells[-1]), file=sys.stderr, flush=True)
    doc = {
        "schema": 1,
        "kind": "cap-convergence",
        "command": "PYTHONPATH=src python scripts/cap_convergence.py "
        + " ".join(f"--{k} {v}" for k, v in vars(args).items()),
        "revision": _git("rev-parse", "HEAD"),
        "src_modified": bool(_git("status", "--porcelain", "--", "src")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_s_note": "process time of one survey_average_prep call, one process",
        "cells": cells,
    }
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
