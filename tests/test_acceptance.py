"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line. Quantitative checks run on seeded synthetic data at desk
scale; all thresholds are pinned here, not configurable.

Run: pytest tests/test_acceptance.py -s
"""

import time
from itertools import combinations

import numpy as np
import pytest

import hashdiv as hd
from conftest import bit_agreement, clustered_dataset, pair_at_angle, toy_centers, unit_vector
from hashdiv.data import Dataset, ToyConfig, make_toy, save_dense
from hashdiv.experiment import ExperimentConfig, emit, make_planted, run_retrieval_experiment
from hashdiv.metrics import bfs_prune, entropy_diversity, f_score, h_score, subtopic_recall


def report(criterion: str, passed: bool, detail: str = "") -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] {criterion}" + (f" ({detail})" if detail else ""))
    assert passed, f"{criterion}: {detail}"


class TestC01CollisionLaw:
    def test_monte_carlo_matches_arccos_law(self):
        t0 = time.perf_counter()
        worst = 0.0
        for theta in (15.0, 45.0, 60.0, 90.0, 150.0):
            a, b = pair_at_angle(theta)
            # 50 bits in each of 1,000 tables: 50,000 of the library's planes
            family = hd.new_family(hd.PLAIN, 50, 1_000, a.size, seed=int(theta))
            est = bit_agreement(hd.hash_matrix(family, np.stack([a, b])), family.l)[0]
            worst = max(worst, abs(est - (1.0 - theta / 180.0)))
        elapsed = time.perf_counter() - t0
        report(
            "C1 collision law within 0.01 over 50k hyperplanes",
            worst <= 0.01 and elapsed < 5.0,
            f"worst gap {worst:.4f}, {elapsed:.1f}s",
        )


class TestC02HammingConcentration:
    def test_hamming_concentration_bound(self):
        t0 = time.perf_counter()
        d, m, l, r = 16, 200, 4096, 1.0
        p = np.arccos(1 - r**2 / 2) / np.pi
        bound = np.sqrt(np.log(2 / 0.05) / (2 * l))  # 0.0212 at these parameters
        within = total = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            q = unit_vector(rng, d)
            basis = np.linalg.qr(np.column_stack([q, rng.standard_normal((d, d - 1))]))[0]
            phi = np.arccos(1 - r**2 / 2)
            dirs = rng.standard_normal((m, d - 1))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            X = np.cos(phi) * q + np.sin(phi) * (dirs @ basis[:, 1:].T)
            # the l bits as 64 tables of 64 of the library's planes
            family = hd.new_family(hd.PLAIN, 64, l // 64, d, seed=seed)
            ham = 1.0 - bit_agreement(hd.hash_matrix(family, np.vstack([q, X])), family.l)
            within += int(np.sum(np.abs(ham - p) <= bound))
            total += m
        elapsed = time.perf_counter() - t0
        frac = within / total
        report(
            "C2 Hamming concentration for equidistant points (l=4096, m=200, 20 seeds, bound 0.0212)",
            frac >= 0.95 and elapsed < 30.0,
            f"{frac:.3f} of points within bound, {elapsed:.1f}s",
        )


def eq2_objective(q, X, subset, lam):
    subset = list(subset)
    c = sum(-float(np.dot(q, X[i])) for i in subset)
    g = sum(float(np.dot(X[i], X[j])) for i in subset for j in subset)
    return lam * c + g


class TestC03QpRelaxation:
    def test_soundness_and_rounding(self):
        t0 = time.perf_counter()
        n, k, lam = 12, 3, 0.5
        sound = close = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            q = unit_vector(rng, 6)
            X = q + 0.3 * rng.standard_normal((n, 6))
            X /= np.linalg.norm(X, axis=1, keepdims=True)
            problem = hd.SelectionProblem(query=q, ids=np.arange(n), vectors=X, k=k, lam=lam)
            rep = hd.qp_relax_solve(problem)
            optimum = min(eq2_objective(q, X, s, lam) for s in combinations(range(n), k))
            # 1e-12 float guard: when the relaxed optimum is itself integral
            # the two sides agree to roundoff
            sound += rep.relaxed_objective <= optimum + 1e-12
            res = hd.select_qp_rel(problem)
            rounded = eq2_objective(q, X, res.ids.tolist(), lam)
            close += rounded <= optimum + 0.10 * abs(optimum)
        elapsed = time.perf_counter() - t0
        report(
            "C3 QP relaxation: lower bound 100/100, rounding within 10% on >= 90/100",
            sound == 100 and close >= 90 and elapsed < 60.0,
            f"sound {sound}/100, close {close}/100, {elapsed:.1f}s",
        )


class TestC04SelectorOracles:
    def test_exact_match_on_500_instances(self):
        from test_select import ref_greedy, ref_mmr, ref_nn, ref_rerank

        rng = np.random.default_rng(2024)
        mismatches = 0
        for _ in range(500):
            n = int(rng.integers(2, 31))
            k = int(rng.integers(1, 7))
            d = int(rng.integers(2, 8))
            lam = float(rng.uniform(0, 1))
            q = unit_vector(rng, d)
            X = rng.standard_normal((n, d))
            X /= np.linalg.norm(X, axis=1, keepdims=True)
            prob = hd.SelectionProblem(query=q, ids=np.arange(n), vectors=X, k=k, lam=lam)
            ids, vecs = prob.ids.tolist(), prob.vectors.tolist()
            pairs = [
                (hd.select_nn(prob).ids.tolist(), ref_nn(q, ids, vecs, k)),
                (hd.select_greedy_div(prob).ids.tolist(), ref_greedy(q, ids, vecs, k, lam)),
                (hd.select_mmr(prob).ids.tolist(), ref_mmr(q, ids, vecs, k, lam)),
                (hd.select_rerank(prob).ids.tolist(), ref_rerank(q, ids, vecs, k)),
            ]
            mismatches += any(got != want for got, want in pairs)
        report(
            "C4 selector oracle equivalence on 500 instances (ids and order)",
            mismatches == 0,
            f"{mismatches} mismatching instances",
        )


class TestC05ToyComparison:
    def test_lshdiv_beats_nn_on_diversity_and_h(self):
        d, spread, l, L, lam, k, seed = 8, 0.25, 12, 6, 0.5, 10, 0
        centers = toy_centers(d)
        ds = make_toy(ToyConfig(n_per_class=500, class_centers=centers, spread=spread, seed=seed))
        qs = make_toy(ToyConfig(n_per_class=25, class_centers=centers, spread=spread, seed=seed + 1))
        fam = hd.new_family(hd.PLAIN, l, L, d, seed=seed)
        index = hd.build(ds, fam)
        stats = {"nn": [], "lshdiv": []}
        for qi in range(qs.n):
            qv = qs.vectors[qi]
            full = hd.SelectionProblem(qv, np.arange(ds.n), ds.vectors, k, lam)
            r_nn = hd.select_nn(full)
            cand = hd.query(index, qv).ids
            prob = hd.SelectionProblem(qv, cand, ds.dense_rows(cand), k, lam)
            r_div = hd.select_greedy_div(prob)
            for name, res in (("nn", r_nn), ("lshdiv", r_div)):
                prec = hd.precision_at_k(res.ids, lambda i: ds.categories[i] == qs.categories[qi], k)
                div = hd.mean_pairwise_distance(ds.dense_rows(res.ids)) / 4.0
                stats[name].append((prec, div, hd.h_score(prec, div)))
        nn = np.mean(stats["nn"], axis=0)
        lsh_div = np.mean(stats["lshdiv"], axis=0)
        ok = lsh_div[1] > nn[1] and lsh_div[0] >= 0.85 and lsh_div[2] > nn[2]
        report(
            "C5 toy reproduction: LSH-Div diversity > NN, precision >= 0.85, h > NN",
            ok,
            f"NN P={nn[0]:.3f} D={nn[1]:.3f} h={nn[2]:.3f}; LSH-Div P={lsh_div[0]:.3f} D={lsh_div[1]:.3f} h={lsh_div[2]:.3f}",
        )

    def test_deterministic_under_fixed_seed(self):
        def run_once():
            ds = make_toy(ToyConfig(n_per_class=100, class_centers=toy_centers(8), spread=0.25, seed=5))
            fam = hd.new_family(hd.PLAIN, 12, 6, 8, seed=5)
            index = hd.build(ds, fam)
            cand = hd.query(index, ds.vectors[3]).ids
            prob = hd.SelectionProblem(ds.vectors[3], cand, ds.dense_rows(cand), 10, 0.5)
            return hd.select_greedy_div(prob).ids.tolist()

        assert run_once() == run_once()


class TestC06SublinearGrowth:
    def test_candidate_fraction_decreases(self):
        t0 = time.perf_counter()
        seed, n_fams, Q = 42, 6, 1024
        master = clustered_dataset(2**16, seed=seed)
        tune_res = hd.tune(Dataset(vectors=master.vectors[: 2**12]), target_recall=0.8, epsilon=1.0, seed=seed)
        l, L = tune_res.l, tune_res.L
        qvecs = master.vectors[:Q]
        fracs = np.zeros((n_fams, 4))
        recalls = []
        for f in range(n_fams):
            fam = hd.new_family(hd.PLAIN, l, L, master.d, seed=seed * 1000 + f)
            for j, exp in enumerate((10, 12, 14, 16)):
                n = 2**exp
                index = hd.build(Dataset(vectors=master.vectors[:n]), fam)
                sizes = np.array([hd.query(index, qvecs[i]).ids.size for i in range(Q)])
                fracs[f, j] = sizes.mean() / n
                if exp == 16 and f == 0:
                    X = master.vectors
                    for i in range(0, Q, 4):
                        d2 = np.einsum("ij,ij->i", X - qvecs[i], X - qvecs[i])
                        true10 = set(np.argsort(d2, kind="stable")[:10].tolist())
                        cand = set(hd.query(index, qvecs[i]).ids.tolist())
                        recalls.append(len(cand & true10) / 10)
        mean_fracs = fracs.mean(axis=0)
        decreasing = bool(np.all(np.diff(mean_fracs) < 0))
        recall = float(np.mean(recalls))
        elapsed = time.perf_counter() - t0
        ok = decreasing and mean_fracs[-1] <= 0.10 and recall >= 0.8 and elapsed < 300.0
        report(
            "C6 sub-linear candidate growth with (l, L) tuned at 2^12",
            ok,
            f"tuned=({l},{L}) fracs={np.array2string(mean_fracs, precision=5)} recall@10={recall:.3f}, {elapsed:.0f}s",
        )


class TestC07MultilabelPipeline:
    def test_diverse_prediction_fast_and_accurate(self):
        n_labels, rank, d, n_q = 10_000, 20, 50, 200
        alpha, lam, seed = 10, 0.9, 5
        model, X, truth = make_planted(n_labels, rank, d, n_q, n_clusters=50, seed=seed)
        index = hd.build_label_index(model, 14, 12, seed=seed)
        for i in range(10):  # warm the caches before timing
            hd.predict_exact(model, X[i], alpha)
            hd.predict_diverse(model, index, X[i], alpha, lam)
        t_exact = t_div = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            exact = [hd.predict_exact(model, X[i], alpha) for i in range(n_q)]
            t_exact = min(t_exact, time.perf_counter() - t0)
            t0 = time.perf_counter()
            diverse = [hd.predict_diverse(model, index, X[i], alpha, lam) for i in range(n_q)]
            t_div = min(t_div, time.perf_counter() - t0)
        p_exact = float(np.mean([len(set(e.labels.tolist()) & truth[i]) / alpha for i, e in enumerate(exact)]))
        p_div = float(np.mean([len(set(p.labels.tolist()) & truth[i]) / alpha for i, p in enumerate(diverse)]))
        max_evals = max(p.eval_count for p in diverse)
        speedup = t_exact / t_div
        ok = p_div >= p_exact - 0.05 and max_evals <= 0.2 * n_labels and speedup >= 3.0
        report(
            "C7 multilabel pipeline: precision gap <= 0.05, evals <= 0.2L, speedup >= 3x",
            ok,
            f"P_exact={p_exact:.3f} P_div={p_div:.3f} max_evals={max_evals} speedup={speedup:.2f}x",
        )


class TestC08NearDuplicateSuppression:
    def test_diverse_drops_duplicates_exact_keeps_them(self):
        good = 0
        details = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            k, n_labels, d = 16, 2000, 40
            centers = rng.standard_normal((40, k))
            centers /= np.linalg.norm(centers, axis=1, keepdims=True)
            w_star = centers[0]
            dups = 1.5 * (w_star + 1e-3 * rng.standard_normal((5, k)))
            assign = rng.integers(1, 40, size=n_labels - 5)
            others = centers[assign] + 0.1 * rng.standard_normal((n_labels - 5, k))
            model = hd.FactorModel(W=np.vstack([dups, others]), H=np.linalg.qr(rng.standard_normal((d, k)))[0])
            x = model.H @ (w_star + 0.02 * rng.standard_normal(k))
            index = hd.build_label_index(model, 10, 8, seed=seed)
            exact = hd.predict_exact(model, x, 5)
            diverse = hd.predict_diverse(model, index, x, 5, lam=0.1)
            n_exact = int(np.sum(exact.labels < 5))
            n_div = int(np.sum(diverse.labels < 5))
            good += n_exact == 5 and n_div <= 2
            details.append(f"{n_exact}/{n_div}")
        report(
            "C8 near-duplicate suppression on 10/10 seeds (exact keeps 5, diverse <= 2)",
            good == 10,
            f"exact/diverse dup counts: {' '.join(details)}",
        )


class TestC09MetricUnits:
    def test_all_metric_examples(self):
        checks = []
        # entropy diversity
        ds = Dataset(
            vectors=np.eye(8),
            categories=np.zeros(8, dtype=int),
            subtopics=np.array([0, 0, 1, 1, 2, 2, 3, 3]),
        )
        checks.append(entropy_diversity([0, 1], ds, 0) == 0.0)
        checks.append(abs(entropy_diversity([0, 2, 4, 6], ds, 0) - 1.0) < 1e-12)
        checks.append(abs(entropy_diversity([0, 1, 2, 3], ds, 0) - 0.5) < 1e-12)
        # subtopic recall
        ds2 = Dataset(
            vectors=np.eye(5),
            categories=np.zeros(5, dtype=int),
            subtopics=np.arange(5),
        )
        checks.append(subtopic_recall([0, 1, 2, 3, 4], ds2, 0, 5) == 1.0)
        checks.append(abs(subtopic_recall([0, 0, 0], ds2, 0, 3) - 0.2) < 1e-12)
        checks.append(abs(subtopic_recall([1, 3], ds2, 0, 2) - 0.4) < 1e-12)
        # h-score / f-score
        checks.append(h_score(0.5, 0.5) == 0.5)
        checks.append(h_score(1.0, 0.0) == 0.0)
        checks.append(abs(h_score(0.93, 0.86) - 0.894) < 5e-4)
        checks.append(f_score(0.25, 0.25) == 0.25)
        checks.append(f_score(1.0, 0.0) == 0.0)
        checks.append(abs(f_score(0.5, 0.25) - 1.0 / 3.0) < 1e-12)
        # bfs prune
        tree = bfs_prune([(1, 0), (2, 0), (3, 1), (3, 2)], 0)
        checks.append(tree.parent[3] == 1)
        tree2 = bfs_prune([(1, 0), (5, 4), (4, 5)], 0)
        checks.append(tree2.excluded == (4, 5))
        report(
            "C9 metric unit suite (entropy, SR, h, f, bfs_prune)",
            all(checks),
            f"{sum(checks)}/{len(checks)} examples exact",
        )


class TestC10Determinism:
    def test_byte_identical_experiment_outputs(self, tmp_path):
        data = tmp_path / "data.csv"
        queries = tmp_path / "queries.csv"
        save_dense(make_toy(ToyConfig(n_per_class=200, class_centers=toy_centers(8), spread=0.25, seed=0)), data)
        save_dense(make_toy(ToyConfig(n_per_class=15, class_centers=toy_centers(8), spread=0.25, seed=1)), queries)

        def run(out, timing):
            config = ExperimentConfig(
                data=str(data), queries=str(queries), out=str(out),
                methods=("nn", "greedy", "mmr"), hashes=("nh", "lshdiv", "lshsdiv"),
                ks=(5, 10), l=10, L=4, seed=7, timing=timing,
            )
            rows = run_retrieval_experiment(config)
            emit(rows, out)
            return rows

        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(a, timing=False)
        run(b, timing=False)
        byte_identical = a.read_bytes() == b.read_bytes()
        # with timing on, every non-time value still matches exactly
        rows_t1 = run(tmp_path / "c.csv", timing=True)
        rows_t2 = run(tmp_path / "d.csv", timing=True)
        values_match = all(
            (r1.method, r1.hash, r1.k, r1.precision, r1.subtopic_recall, r1.diversity, r1.h_score, r1.candidate_fraction)
            == (r2.method, r2.hash, r2.k, r2.precision, r2.subtopic_recall, r2.diversity, r2.h_score, r2.candidate_fraction)
            for r1, r2 in zip(rows_t1, rows_t2)
        )
        report(
            "C10 determinism: identical config+seed gives byte-identical output",
            byte_identical and values_match,
            "reproducibility mode byte-identical; timed runs metric-identical",
        )
