#!/usr/bin/env python3
"""hashdiv benchmark: one closed-loop client, no extra threads.

    python3 bench/run.py --workload clustered-greedy --seed 0 --seconds 15 --trace 0
    python3 bench/run.py                       # every workload, untraced

Run from the root of a source checkout; hashdiv is imported from `src/`.
With `--trace 0` the run times several setups (median), measures the
tracemalloc peak of one more, and sends requests back to back for
`--seconds` seconds in three chunks placed between those setups; it reports
the end-to-end metrics. With `--trace 1` it sets up once inside spans,
sends requests untraced for half the time and traced for the other half,
probes the calls public functions hide, and reports the per-layer metrics.
Every run checks the outputs against brute-force oracles. Human-readable
lines go first; the last line of stdout is one JSON object. Full results
and the spans go to `.bench_work/` in the checkout. The exit code is 0
only if every check passed and no request raised.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter, perf_counter_ns

# One client and no extra threads: BLAS runs on the calling thread unless
# the caller says otherwise. Set before numpy loads BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
RECORDED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PYTHONHASHSEED")

# Metrics reported beside BENCHMARK.json's, with no bound: absolute times
# move with the machine's speed, and the others can be 0 or negative or
# exist only on some workloads.
DETAIL_UNITS = {
    "query_p50_us": "us",
    "query_p90_us": "us",
    "query_p99_us": "us",
    "qps": "1/s",
    "speed_probe_us": "us",
    "precision_gap": "fraction",
    "underfilled_rate": "fraction",
    "error_rate": "fraction",
    "tuned_l": "count",
    "tuned_L": "count",
}

# (span name, per-layer metric): one call, reported in seconds
ONCE_S = (
    ("data.load_dense", "data.load_dense_s"),
    ("hashing.new_family", "hashing.new_family_s"),
    ("hashing.hash_matrix", "hashing.hash_matrix_s"),
    ("linalg.truncated_svd", "linalg.truncated_svd_s"),
    ("lsh.tune", "lsh.tune_s"),
    ("lsh.build", "lsh.build_s"),
    ("lsh.index_to_bytes", "lsh.save_s"),
    ("lsh.index_from_bytes", "lsh.load_s"),
    ("multilabel.build_label_index", "multilabel.build_label_index_s"),
)
# (span name, per-layer metric): median over calls, in microseconds
PER_CALL_US = (
    ("data.dense_rows", "data.dense_rows_us"),
    ("hashing.hash_vector", "hashing.hash_vector_us"),
    ("linalg.project_capped_simplex", "linalg.project_us"),
    ("select.problem", "select.problem_us"),
    ("select.greedy_div", "select.greedy_us"),
    ("select.qp_rel", "select.qprel_us"),
    ("select.nn_full", "select.exact_nn_us"),
    ("metrics.eval", "metrics.eval_us"),
    ("multilabel.predict_diverse", "multilabel.predict_diverse_us"),
    ("multilabel.predict_exact", "multilabel.predict_exact_us"),
)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(seed: int, seconds: float, process: dict) -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        **process,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "env": {k: os.environ.get(k) for k in RECORDED_ENV},
        "git_commit": git_commit(),
        "seed": seed,
        "seconds": seconds,
    }


def attempt(fn, *args):
    """One guarded request: (output, None) or (None, error text). The run
    goes on after a request raises; the failure is counted."""
    try:
        return fn(*args), None
    except Exception as exc:  # a request may fail in any way; count it, keep going
        return None, f"{type(exc).__name__}: {exc}"


_PROBE_X = np.random.default_rng(0).standard_normal((80, 20))
_PROBE_Q = 0.5 * _PROBE_X[0]
_PROBE_RUNS = [np.arange(j, j + 30) for j in range(0, 60, 10)]
_PROBE_KEYS = {i: 3 * i for i in range(50)}
PROBE_EVERY_NS = 5_000_000


def speed_probe():
    """A fixed piece of work shaped like a request but not using hashdiv:
    small-array numpy calls, a ten-step greedy loop, a union and dict
    lookups. The loop times it every 5 ms between requests; its median is
    the run's measure of machine speed."""
    diff = _PROBE_X - _PROBE_Q
    score = 0.5 * np.einsum("ij,ij->i", diff, diff)
    gram = _PROBE_X @ _PROBE_X.T
    picked = []
    for _ in range(10):
        j = int(np.argmin(score))
        picked.append(j)
        score[j] = np.inf
        score = score - 0.01 * gram[:, j]
    union = np.unique(np.concatenate(_PROBE_RUNS))
    return picked, union, sum(_PROBE_KEYS.get(i, 0) for i in range(0, 100, 3))


class Record:
    """Outputs of every request of a run, kept for the checks."""

    def __init__(self, n_queries: int):
        self.first = [None] * n_queries   # first output per query
        self.repeats = []                 # (query, result ids) of later sends
        self.errors = []
        self.attempted = 0                # also the next request id
        self.probe_ns = []                # speed_probe timings


def timed_loop(wl, st, seconds: float, rec: Record, tr=None, until: int = 0, base: int = 0):
    """Closed loop for `seconds`, and on until `until` requests were sent in
    the whole run. Request r asks query (r - base) mod n. Returns
    (query, request id, latency ns) rows of the requests that completed,
    and the loop's wall time without the speed probes. With a tracer the
    requests are traced; their latency is the request span's, read later."""
    nq = st.queries.shape[0]
    rows = []
    probing = 0
    gc.collect()
    start = perf_counter()
    next_probe = perf_counter_ns()
    while rec.attempted < until or perf_counter() - start < seconds:
        rid = rec.attempted
        qi = (rid - base) % nq
        t0 = perf_counter_ns()
        if tr is None:
            out, err = attempt(wl.request, st, qi)
        else:
            out, err = attempt(wl.request_traced, st, qi, tr, rid)
        t1 = perf_counter_ns()
        rec.attempted += 1
        if t1 >= next_probe:
            speed_probe()
            next_probe = perf_counter_ns()
            rec.probe_ns.append(next_probe - t1)
            probing += next_probe - t1
            next_probe += PROBE_EVERY_NS
        if err is not None:
            rec.errors.append(f"query {qi}: {err}")
            continue
        rows.append((qi, rid, t1 - t0))
        if rec.first[qi] is None:
            rec.first[qi] = out
        else:
            rec.repeats.append((qi, wl.result_ids(out)))
    return rows, perf_counter() - start - probing / 1e9


def harness_check(seed: int, failures: list) -> dict:
    """The C10 grid twice through run_retrieval_experiment and twice through
    `cli.main retrieve --no-timing`: all four CSVs must be byte-identical."""
    from hashdiv import cli
    from hashdiv.data import ToyConfig, make_toy, save_dense
    from hashdiv.experiment import ExperimentConfig, emit, run_retrieval_experiment

    centers = ((1.0,) + (0.0,) * 7, (-1.0,) + (0.0,) * 7)
    data, queries = WORK / f"c10-data-{seed}.csv", WORK / f"c10-queries-{seed}.csv"
    save_dense(make_toy(ToyConfig(200, centers, 0.25, seed)), data)
    save_dense(make_toy(ToyConfig(15, centers, 0.25, seed + 1)), queries)
    grid = {"methods": ("nn", "greedy", "mmr"), "hashes": ("nh", "lshdiv", "lshsdiv"), "ks": (5, 10),
            "l": 10, "L": 4, "seed": 7 + seed}
    argv = ["retrieve", "--data", str(data), "--queries", str(queries), "--methods", ",".join(grid["methods"]),
            "--hashes", ",".join(grid["hashes"]), "--ks", "5,10", "--l", "10", "--L", "4",
            "--seed", str(grid["seed"]), "--no-timing"]
    outputs, times = [], {}
    with contextlib.redirect_stderr(io.StringIO()):
        for rep in range(2):
            out = WORK / f"c10-api-{rep}.csv"
            t0 = perf_counter()
            rows = run_retrieval_experiment(
                ExperimentConfig(data=str(data), queries=str(queries), out=str(out), timing=False, **grid))
            emit(rows, out, "csv")
            times["experiment.grid_s"] = perf_counter() - t0
            outputs.append(out.read_bytes())
        for rep in range(2):
            out = WORK / f"c10-cli-{rep}.csv"
            t0 = perf_counter()
            rc = cli.main(argv + ["--out", str(out)])
            times["cli.retrieve_s"] = perf_counter() - t0
            if rc != 0:
                failures.append(f"cli retrieve exited with {rc}")
                return times
            outputs.append(out.read_bytes())
    if len(set(outputs)) != 1:
        failures.append("the C10 grid CSV differs between runs or between the API and the CLI")
    return times


def time_setups(wl, inp, reps: int, times: list):
    """Set up `reps` times, appending each duration; returns the last state."""
    st = None
    for _ in range(reps):
        st = None
        gc.collect()
        t0 = perf_counter()
        st = wl.setup(inp)
        times.append(perf_counter() - t0)
    return st


def setup_peak_mib(wl, inp) -> float:
    gc.collect()
    tracemalloc.start()
    try:
        wl.setup(inp)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def run_workload(wl, seed: int, seconds: float, trace: bool, process: dict) -> dict:
    from tracing import Tracer

    inp = wl.make_inputs(seed, WORK)
    tr = Tracer() if trace else None
    metrics: dict[str, float] = {}
    setup_times: list[float] = []
    if trace:
        st = wl.setup(inp, tr)
    else:
        st = time_setups(wl, inp, (wl.setup_reps + 2) // 3, setup_times)
        # before any request, so Python's free lists hold the same objects
        # on every run
        metrics["setup_peak_mb"] = setup_peak_mib(wl, inp)
    wl.prepare(st, inp)

    failures: list[str] = []
    bad = type(st)(st.index, st.data, np.ones((1, st.queries.shape[1] + 1)), st.extra)
    if attempt(wl.request, bad, 0)[1] is None:
        failures.append("a request with a query of the wrong dimension did not raise")

    rec = Record(st.queries.shape[0])
    if trace:
        # untraced then traced, half the time each, both from the first query
        plain, _ = timed_loop(wl, st, seconds / 2, rec)
        traced, _ = timed_loop(wl, st, seconds / 2, rec, tr, base=rec.attempted)
        plain = np.array(plain, dtype=np.int64).reshape(-1, 3)
    else:
        # The machine's speed drifts over tens of seconds. Three loop chunks
        # between the timed setups spread both samples over the run. The
        # last chunk completes a pass over the queries.
        chunks, wall = [], 0.0
        for step in range(3):
            rows, dt = timed_loop(wl, st, seconds / 3, rec, until=st.queries.shape[0] if step == 2 else 0)
            chunks += rows
            wall += dt
            if step == 0:
                time_setups(wl, inp, (wl.setup_reps - len(setup_times) + 1) // 2, setup_times)
            elif step == 1:
                time_setups(wl, inp, wl.setup_reps - len(setup_times), setup_times)
        plain = np.array(chunks, dtype=np.int64).reshape(-1, 3)
    failed = len(rec.errors)
    if failed:
        failures.append(f"{failed} of {rec.attempted} requests raised")
    wl.check(st, rec.first, failures)
    if any(not np.array_equal(ids, wl.result_ids(rec.first[qi])) for qi, ids in rec.repeats):
        failures.append("a repeated query returned different ids")
    harness_times = harness_check(seed, failures)

    plain_us = plain[:, 2] / 1e3
    metrics["speed_probe_us"] = float(np.median(rec.probe_ns)) / 1e3
    if trace:
        metrics.update(wl.layer_probes(st, tr, WORK))
        metrics.update(harness_times)
        for span, name in ONCE_S:
            metrics[name] = float(tr.durations_us(span)[0]) / 1e6
        for span, name in PER_CALL_US:
            metrics[name] = float(np.median(tr.durations_us(span)))
        lookup, hashed = tr.by_request("lsh.query"), tr.by_request("hashing.hash_vector")
        metrics["lsh.query_us"] = float(np.median([lookup[r] - hashed[r] for r in lookup if r in hashed]))
        # overhead: p50 of the traced minus the untraced request span, over
        # the queries both halves sent (first send of each)
        spans = tr.by_request("request")
        traced_us = {qi: spans[rid] for qi, rid, _ in traced[::-1]}
        plain_by_q = {int(qi): float(us) for qi, us in zip(plain[::-1, 0], plain_us[::-1])}
        both = sorted(set(traced_us) & set(plain_by_q))
        metrics["trace.query_p50_us"] = float(np.median([traced_us[q] for q in both]))
        metrics["trace.overhead_us"] = metrics["trace.query_p50_us"] - float(np.median([plain_by_q[q] for q in both]))
        # request time outside the layer calls: the benchmark's own glue
        metrics["trace.request_self_us"] = float(np.median(tr.self_times_us("request")))
        tr.write(WORK / f"{wl.name}-seed{seed}.spans.json")
    else:
        metrics["setup_s"] = float(np.median(setup_times))
        metrics["query_p50_us"] = float(np.percentile(plain_us, 50))
        metrics["query_p90_us"] = float(np.percentile(plain_us, 90))
        # the same percentiles in units of the run's speed probe: the
        # machine's speed drifts by a quarter between minutes, a ratio of
        # two times taken side by side does not
        metrics["query_p50_ref"] = metrics["query_p50_us"] / metrics["speed_probe_us"]
        metrics["query_p90_ref"] = metrics["query_p90_us"] / metrics["speed_probe_us"]
        if plain_us.size >= 1000:
            metrics["query_p99_us"] = float(np.percentile(plain_us, 99))
        metrics["qps"] = plain_us.size / wall
        metrics["error_rate"] = failed / rec.attempted
        if all(f is not None for f in rec.first):
            metrics.update(wl.quality(st, rec.first))
        tuned = st.extra.get("tuned")
        if tuned is not None:
            metrics["tuned_l"], metrics["tuned_L"] = tuned.l, tuned.L
    return {
        "workload": wl.name,
        "trace": int(trace),
        "correct": not failures,
        "attempted": rec.attempted,
        "failed": failed,
        "failures": failures,
        "errors": rec.errors[:10],
        "requests_timed": int(plain_us.size),
        "metrics": metrics,
        "environment": environment(seed, seconds, process),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", help="toy-qprel, clustered-greedy, multilabel or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "hashdiv" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a hashdiv source checkout ({ROOT}/src/hashdiv and BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import hashdiv

    if Path(hashdiv.__file__).resolve().parent != ROOT / "src" / "hashdiv":
        print(f"error: imported hashdiv from {hashdiv.__file__}, not from this checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)} or all", file=sys.stderr)
        return 2
    # one client on one CPU, and no worker threads in the experiment harness
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    process = {"cpus_usable": len(cpus), "pinned_cpu": min(cpus),
               "HASHDIV_WORKERS (removed)": os.environ.pop("HASHDIV_WORKERS", None)}
    spec = json.loads(spec_path.read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    WORK.mkdir(exist_ok=True)

    results = []
    for name in names:
        res = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), process)
        (WORK / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(res, indent=2) + "\n")
        units = {**DETAIL_UNITS, **listed}
        for metric, value in res["metrics"].items():
            print(f"{name:17s} {metric:32s} {value:>16.6f} {units.get(metric, 'count')}")
        for line in res["failures"] + res["errors"]:
            print(f"{name:17s} FAILED {line}")
        results.append(res)
    print(f"# environment {json.dumps(results[0]['environment'])}")

    def reported(res, prefix=""):
        missing = set(listed) - set(res["metrics"])
        if missing:
            raise RuntimeError(f"{res['workload']} did not measure {sorted(missing)}")
        return {prefix + m: {"value": res["metrics"][m], "unit": u} for m, u in listed.items()}

    ok = all(r["correct"] and not r["failed"] for r in results)
    metrics = reported(results[0]) if len(results) == 1 else {
        k: v for r in results for k, v in reported(r, r["workload"] + "/").items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
