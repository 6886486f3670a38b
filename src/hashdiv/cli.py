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
import typing

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
from .hashing import KINDS, PLAIN, new_family


def _add_config_flags(parser: argparse.ArgumentParser, cls) -> None:
    """`--config` plus one flag per field of the config dataclass `cls`:
    `--field-name` (`--lambda` for `lam`), a bool that defaults to False
    is a flag that sets it, one that defaults to True is `--no-field-name`,
    `tuple[T, ...]` takes a comma list of T and `T | None` takes a T. The
    field's metadata holds the remaining argparse keywords. An unset flag
    stores nothing, so it never overrides the config file."""
    parser.add_argument("--config", help=f"JSON file of {cls.__name__} fields; flags override")
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        flag = "--" + ("lambda" if f.name == "lam" else f.name.replace("_", "-"))
        kwargs = dict(f.metadata, dest=f.name, default=argparse.SUPPRESS)
        if hint is bool:
            kwargs["action"] = "store_false" if f.default else "store_true"
            if f.default:
                flag = "--no-" + flag[2:]
        elif typing.get_origin(hint) is tuple:
            item = typing.get_args(hint)[0]
            kwargs["type"] = lambda text, item=item: tuple(item(t.strip()) for t in text.split(",") if t.strip())
        else:  # T or T | None
            kwargs["type"] = next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
        parser.add_argument(flag, **kwargs)


def _config(cls, args):
    """The `--config` file's fields, overlaid by the flags given."""
    values = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            values = json.load(fh)
    names = {f.name for f in dataclasses.fields(cls)}
    return cls.from_dict(values, **{k: v for k, v in vars(args).items() if k in names})


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
    family = new_family(args.kind, args.l, args.L, dataset.d, alpha=args.alpha, seed=args.seed, dataset=dataset)
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
            cand = lsh.query(index, queries.vectors[i])
            rec = {"query_id": i, "candidates": cand.ids.tolist(), "touched": cand.touched}
            out.write(json.dumps(rec) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _cmd_retrieve(args) -> int:
    return _run(_config(ExperimentConfig, args), run_retrieval_experiment)


def _cmd_multilabel(args) -> int:
    return _run(_config(MultilabelConfig, args), run_multilabel_experiment)


def _run(config, experiment) -> int:
    rows = experiment(config)
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
    p.add_argument("--kind", choices=sorted(KINDS), default=PLAIN)
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
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_index_query)

    p = sub.add_parser("retrieve", help="run the retrieval experiment grid")
    _add_config_flags(p, ExperimentConfig)
    p.set_defaults(fn=_cmd_retrieve)

    p = sub.add_parser("multilabel", help="run the multi-label prediction experiment")
    _add_config_flags(p, MultilabelConfig)
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
