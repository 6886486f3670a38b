#!/usr/bin/env python3
"""Check that the deterministic end-to-end metrics repeat exactly: run each
workload twice on one seed, untraced, and compare them.

    python3 bench/determinism.py [--workload all] [--seed 0]

Exits 1 if a run fails or a value differs between the two runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DETERMINISTIC = ("precision", "diversity", "h_score", "precision_gap", "recall_at_10",
                 "candidate_fraction", "underfilled_rate", "setup_peak_mb")


def run_once(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited with {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads((ROOT / ".bench_work" / f"{workload}-seed{seed}-trace0.json").read_text())["metrics"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        first, second = run_once(name, args.seed), run_once(name, args.seed)
        for metric in DETERMINISTIC:
            same = first[metric] == second[metric]
            ok &= same
            print(f"{name:17s} {metric:20s} {first[metric]!r:>22} {second[metric]!r:>22} {'same' if same else 'DIFFERS'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
