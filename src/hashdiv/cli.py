"""Command-line harness.

Verbs: toy-gen, index build, index query, retrieve, multilabel, tune.
Progress and warnings go to stderr; results go to the output file (or
stdout for the inspection verbs), so the tool composes in pipelines.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import sys
import typing

import numpy as np

from . import lsh
from .data import Dataset, ParseError, ToyConfig, check_points, load_dense, make_toy, save_dense
from .experiment import (
    ExperimentConfig,
    MultilabelConfig,
    emit,
    run_multilabel_experiment,
    run_retrieval_experiment,
)
from .hashing import KINDS, PLAIN, new_family


def _read_as(kind):
    """A flag's reader of `kind` values: `kind(text)`, or the text itself
    where `kind` cannot read it, for the configs' one type rule to refuse
    in the words it gives the same value from a `--config` file."""
    def read(text: str):
        try:
            return kind(text)
        except ValueError:
            return text
    return read


def _add_config_flags(parser: argparse.ArgumentParser, cls) -> None:
    """`--config` plus one flag per field of the config dataclass `cls`:
    `--field-name` (`--lambda` for `lam`), a bool that defaults to False
    is a flag that sets it, one that defaults to True is `--no-field-name`,
    `tuple[T, ...]` takes a comma list of T (of str for `T = Literal[names]`,
    whose help lists the names) and `T | None` takes a T; text that is no
    T is passed on as text (`_read_as`). The field's metadata holds the
    remaining argparse keywords. An unset flag stores nothing, so it never
    overrides the config file."""
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
            if typing.get_origin(item) is typing.Literal:
                kwargs["help"], item = "comma list from: " + ",".join(typing.get_args(item)), str
            kwargs["type"] = lambda text, read=_read_as(item): tuple(read(t.strip()) for t in text.split(",") if t.strip())
        else:  # T or T | None
            kwargs["type"] = _read_as(next(t for t in typing.get_args(hint) or (hint,) if t is not type(None)))
        parser.add_argument(flag, **kwargs)


def _config(cls, args):
    """The `--config` file's fields, overlaid by the flags given."""
    values = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                values = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParseError(args.config, exc.lineno, exc.msg) from None
    names = {f.name for f in dataclasses.fields(cls)}
    return cls.from_dict(values, **{k: v for k, v in vars(args).items() if k in names})


def _check_out_dirs(values) -> None:
    """Refuse each output path of `values` (the parsed flags, or a config)
    whose directory does not exist, naming the flag, so that a run that
    cannot write its results neither reads an input nor writes a file."""
    for name in ("out", "queries_out", "predictions_json"):
        path = getattr(values, name, None)
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"--{name.replace('_', '-')} {path}: directory {os.path.dirname(path)} does not exist")


@contextlib.contextmanager
def _naming(role: str, path):
    """Prefix a ValueError raised inside with `<role> file <path>: `."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{role} file {path}: {exc}") from None


def _cmd_toy_gen(args) -> int:
    d = args.d
    if d < 1:
        raise ValueError(f"--d must be at least 1, got {d}")
    if args.n_per_class < 0:
        raise ValueError(f"--n-per-class must be at least 0, got {args.n_per_class}")
    if args.n_queries < 0:
        raise ValueError(f"--n-queries must be at least 0, got {args.n_queries}")
    centers = (tuple([1.0] + [0.0] * (d - 1)), tuple([-1.0] + [0.0] * (d - 1)))
    config = ToyConfig(n_per_class=args.n_per_class, class_centers=centers, spread=args.spread, seed=args.seed)
    save_dense(make_toy(config), args.out)
    print(f"wrote {2 * args.n_per_class} points to {args.out}", file=sys.stderr)
    if args.queries_out:
        # the next seed, wrapping to 0 past the largest that check_seed takes
        half = args.n_queries // 2 + args.n_queries % 2
        qset = make_toy(dataclasses.replace(config, n_per_class=half, seed=(args.seed + 1) % 2**63))
        if args.n_queries % 2:  # class 0 gets the odd query, class 1 drops its last
            qset = Dataset(vectors=qset.vectors[:-1], categories=qset.categories[:-1])
        save_dense(qset, args.queries_out)
        print(f"wrote {qset.n} queries to {args.queries_out}", file=sys.stderr)
    return 0


def _cmd_index_build(args) -> int:
    dataset = check_points(load_dense(args.data), args.data)
    family = new_family(args.kind, args.l, args.L, dataset.d, alpha=args.alpha, seed=args.seed, dataset=dataset)
    index = lsh.build(dataset, family)
    lsh.save_index(index, args.out)
    sizes = np.diff(index.offsets)
    print(
        f"indexed {dataset.n} points into {sizes.size} non-empty buckets across {args.L} tables "
        f"(bucket size max {sizes.max()}, p99 {np.percentile(sizes, 99):g})",
        file=sys.stderr,
    )
    return 0


def _cmd_index_query(args) -> int:
    dataset = check_points(load_dense(args.data), args.data)
    with _naming("index", args.index):
        index = lsh.load_index(args.index, dataset)
    queries = load_dense(args.queries)
    lines = (json.dumps({"query_id": i, "candidates": cand.ids.tolist(), "touched": cand.touched}) + "\n"
             for i, cand in enumerate(lsh.query(index, q) for q in queries.vectors))
    with _naming("queries", args.queries):
        # the first query meets the query rule before --out is opened, so a
        # query file that the rule refuses leaves no file behind
        first = next(lines, "")
        out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
        try:
            out.write(first)
            out.writelines(lines)
        finally:
            if out is not sys.stdout:
                out.close()
    return 0


def _run_experiment(cls, experiment, args) -> int:
    """Run the experiment that the config dataclass `cls` describes, then
    write its CSV and the full-precision `<out>.json` twin."""
    config = _config(cls, args)
    _check_out_dirs(config)  # the paths a --config file gives
    rows = experiment(config)
    emit(rows, config.out)
    print(f"wrote {len(rows)} rows to {config.out} and {config.out}.json", file=sys.stderr)
    return 0


def _cmd_tune(args) -> int:
    dataset = check_points(load_dense(args.data), args.data)
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
    p.set_defaults(fn=functools.partial(_run_experiment, ExperimentConfig, run_retrieval_experiment))

    p = sub.add_parser("multilabel", help="run the multi-label prediction experiment")
    _add_config_flags(p, MultilabelConfig)
    p.set_defaults(fn=functools.partial(_run_experiment, MultilabelConfig, run_multilabel_experiment))

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
        _check_out_dirs(args)
        code = args.fn(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # a reader of stdout that stops early is no error; stdout goes to
        # devnull, as Python's signal docs advise, so the flush at exit
        # cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
