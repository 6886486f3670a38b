#!/usr/bin/env python3
"""Two-class toy benchmark: every selector under every hash family.

Generates the synthetic dataset in a temporary directory, runs the
retrieval grid, and prints a Table-1-shaped comparison (precision /
diversity / h-score / time); --out also keeps it as a CSV. The
diversity column here is scaled mean pairwise distance since the toy data
has no subtopic labels.

Run: python scripts/toy_benchmark.py [--n-per-class 500] [--out results.csv]
"""

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hashdiv.cli import main as cli_main


def run(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--n-per-class", type=int, default=500)
    parser.add_argument("--n-queries", type=int, default=50)
    parser.add_argument("--d", type=int, default=8)
    parser.add_argument("--spread", type=float, default=0.25)
    parser.add_argument("--k", default="10")
    parser.add_argument("--lambda", dest="lam", type=float, default=0.5)
    parser.add_argument("--l", type=int, default=12)
    parser.add_argument("--L", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="hashdiv-toy-") as workdir:
        data = Path(workdir) / "data.csv"
        queries = Path(workdir) / "queries.csv"
        out = Path(args.out) if args.out else Path(workdir) / "results.csv"

        rc = cli_main([
            "toy-gen", "--out", str(data), "--queries-out", str(queries),
            "--n-per-class", str(args.n_per_class), "--n-queries", str(args.n_queries),
            "--d", str(args.d), "--spread", str(args.spread), "--seed", str(args.seed),
        ])
        if rc:
            return rc
        rc = cli_main([
            "retrieve", "--data", str(data), "--queries", str(queries),
            "--methods", "nn,rerank,greedy,mmr,qprel",
            "--hashes", "nh,lshdiv,lshsdiv", "--ks", args.k,
            "--lambda", str(args.lam), "--l", str(args.l), "--L", str(args.L),
            "--seed", str(args.seed), "--out", str(out),
        ])
        if rc:
            return rc
        print(out.read_text())
    if args.out:
        print(f"results in {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(run())
