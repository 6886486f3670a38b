"""Command-line harness.

Verbs: toy-gen, index build, index query, retrieve, multilabel, tune.
Progress and warnings go to stderr; results go to the output file (or
stdout for the inspection verbs), so the tool composes in pipelines.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import lsh
from .data import ToyConfig, load_dense, make_toy, save_dense
from .experiment import (
    ExperimentConfig,
    MultilabelConfig,
    emit,
    run_multilabel_experiment,
    run_retrieval_experiment,
)
from .hashing import KIND_BY_NAME, PCA, PCA_DIRECT, new_family


def _parse_list(text: str) -> tuple[str, ...]:
    return tuple(t.strip() for t in text.split(",") if t.strip())


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in _parse_list(text))


def _cmd_toy_gen(args) -> int:
    d = args.d
    centers = (tuple([1.0] + [0.0] * (d - 1)), tuple([-1.0] + [0.0] * (d - 1)))
    config = ToyConfig(n_per_class=args.n_per_class, class_centers=centers, spread=args.spread, seed=args.seed)
    save_dense(make_toy(config), args.out)
    print(f"wrote {2 * args.n_per_class} points to {args.out}", file=sys.stderr)
    if args.queries_out:
        qconf = ToyConfig(
            n_per_class=args.n_queries // 2 + args.n_queries % 2,
            class_centers=centers,
            spread=args.spread,
            seed=args.seed + 1,
        )
        qset = make_toy(qconf)
        save_dense(qset, args.queries_out)
        print(f"wrote {qset.n} queries to {args.queries_out}", file=sys.stderr)
    return 0


def _cmd_index_build(args) -> int:
    dataset = load_dense(args.data)
    kind = KIND_BY_NAME[args.kind]
    needs_data = kind in (PCA, PCA_DIRECT)
    family = new_family(
        kind, args.l, args.L, dataset.d,
        alpha=args.alpha, seed=args.seed,
        dataset=dataset if needs_data else None,
    )
    index = lsh.build(dataset, family)
    lsh.save_index(index, args.out)
    sizes = index.bucket_sizes()
    print(
        f"indexed {dataset.n} points into {sizes.size} non-empty buckets across {args.L} tables "
        f"(bucket size max {sizes.max()}, p99 {np.percentile(sizes, 99):g})",
        file=sys.stderr,
    )
    return 0


def _cmd_index_query(args) -> int:
    dataset = load_dense(args.data)
    index = lsh.load_index(args.index, dataset)
    queries = load_dense(args.queries)
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for i in range(queries.n):
            cand = lsh.query(index, queries.point(i).dense(), max_candidates=args.max_candidates, radius=args.radius)
            rec = {"query_id": i, "candidates": cand.ids.tolist(), "touched": cand.touched}
            out.write(json.dumps(rec) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _retrieve_config(args) -> ExperimentConfig:
    base = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            base = json.load(fh)
    overrides = {
        "data": args.data,
        "queries": args.queries,
        "out": args.out,
        "methods": _parse_list(args.methods) if args.methods else None,
        "hashes": _parse_list(args.hashes) if args.hashes else None,
        "ks": _parse_int_list(args.ks) if args.ks else None,
        "lam": args.lam,
        "l": args.l,
        "L": args.L,
        "alpha": args.alpha,
        "seed": args.seed,
        "format": args.format,
        "pool_factor": args.pool_factor,
        "max_candidates": args.max_candidates,
        "allow_expensive": args.allow_expensive or None,
        "timing": False if args.no_timing else None,
    }
    base.update({k: v for k, v in overrides.items() if v is not None})
    if args.timing_fair and base.get("max_candidates") is None:
        # cap candidate sets at 50k so hashed and exhaustive rows do
        # comparable selection work per query
        base["max_candidates"] = 50 * max(base.get("ks") or (10,))
    return ExperimentConfig.from_dict(base)


def _cmd_retrieve(args) -> int:
    config = _retrieve_config(args)
    rows = run_retrieval_experiment(config)
    emit(rows, config.out, config.format, json_twin=config.format == "csv")
    print(f"wrote {len(rows)} rows to {config.out}", file=sys.stderr)
    return 0


def _cmd_multilabel(args) -> int:
    base = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            base = json.load(fh)
    overrides = {
        "out": args.out,
        "data": args.data,
        "d": args.d,
        "test": args.test,
        "factors": args.factors,
        "hierarchy": args.hierarchy,
        "synthetic": args.synthetic or None,
        "n_labels": args.n_labels,
        "n_queries": args.n_queries,
        "rank": args.rank,
        "ridge": args.ridge,
        "methods": _parse_list(args.methods) if args.methods else None,
        "alpha": args.alpha,
        "pool": args.pool,
        "lam": args.lam,
        "l": args.l,
        "L": args.L,
        "seed": args.seed,
        "format": args.format,
        "timing": False if args.no_timing else None,
        "predictions_out": args.predictions_out,
        "predictions_json": args.predictions_json,
    }
    base.update({k: v for k, v in overrides.items() if v is not None})
    config = MultilabelConfig.from_dict(base)
    rows = run_multilabel_experiment(config)
    emit(rows, config.out, config.format, json_twin=config.format == "csv")
    print(f"wrote {len(rows)} rows to {config.out}", file=sys.stderr)
    return 0


def _cmd_tune(args) -> int:
    dataset = load_dense(args.data)
    result = lsh.tune(dataset, args.target_recall, args.epsilon, seed=args.seed)
    print(json.dumps(dataclasses.asdict(result)))
    if not result.feasible:
        print("warning: no (l, L) pair reached the target recall; best effort returned", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hashdiv", description="Diverse retrieval with sign-projection hashing")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("toy-gen", help="generate the two-class synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--queries-out")
    p.add_argument("--n-per-class", type=int, default=500)
    p.add_argument("--n-queries", type=int, default=50)
    p.add_argument("--d", type=int, default=8)
    p.add_argument("--spread", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_toy_gen)

    p_index = sub.add_parser("index", help="build or query an LSH index")
    isub = p_index.add_subparsers(dest="index_command", required=True)

    p = isub.add_parser("build")
    p.add_argument("--data", required=True)
    p.add_argument("--kind", choices=sorted(KIND_BY_NAME), default="lshdiv")
    p.add_argument("--l", type=int, default=16)
    p.add_argument("--L", type=int, default=8)
    p.add_argument("--alpha", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_index_build)

    p = isub.add_parser("query")
    p.add_argument("--index", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--max-candidates", type=int)
    p.add_argument("--radius", type=float)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_index_query)

    p = sub.add_parser("retrieve", help="run the retrieval experiment grid")
    p.add_argument("--config", help="JSON file of ExperimentConfig fields; flags override")
    p.add_argument("--data")
    p.add_argument("--queries")
    p.add_argument("--out")
    p.add_argument("--methods", help="comma list from: nn,rerank,greedy,mmr,qprel")
    p.add_argument("--hashes", help="comma list from: nh,lshdiv,lshsdiv,pcahash")
    p.add_argument("--ks", help="comma list of result sizes, e.g. 10,20,30")
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--l", type=int)
    p.add_argument("--L", type=int)
    p.add_argument("--alpha", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--pool-factor", type=float)
    p.add_argument("--max-candidates", type=int)
    p.add_argument("--timing-fair", action="store_true", help="cap candidate sets at 50k per query")
    p.add_argument("--allow-expensive", action="store_true")
    p.add_argument("--no-timing", action="store_true", help="report 0.0 times for byte-reproducible output")
    p.set_defaults(fn=_cmd_retrieve)

    p = sub.add_parser("multilabel", help="run the multi-label prediction experiment")
    p.add_argument("--config")
    p.add_argument("--out")
    p.add_argument("--data", help="LIBSVM-style file: 'lab1,lab2 idx:val ...'")
    p.add_argument("--d", type=int, help="feature dimension of the sparse data")
    p.add_argument("--test")
    p.add_argument("--factors", help="binary factor-model file")
    p.add_argument("--hierarchy", help="'child parent' edge list for tree diversity")
    p.add_argument("--synthetic", action="store_true")
    p.add_argument("--n-labels", type=int)
    p.add_argument("--n-queries", type=int)
    p.add_argument("--rank", type=int)
    p.add_argument("--ridge", type=float)
    p.add_argument("--methods", help="comma list from: exact,mmr,pcahash,lshdiv,lshsdiv")
    p.add_argument("--alpha", type=int)
    p.add_argument("--pool", type=int)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--l", type=int)
    p.add_argument("--L", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--no-timing", action="store_true")
    p.add_argument("--predictions-out", help="write 'query_id: label,label,...' lines")
    p.add_argument("--predictions-json", help="write JSON prediction records with scores")
    p.set_defaults(fn=_cmd_multilabel)

    p = sub.add_parser("tune", help="grid-search (l, L) for a recall target")
    p.add_argument("--data", required=True)
    p.add_argument("--target-recall", type=float, default=0.8)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_tune)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
