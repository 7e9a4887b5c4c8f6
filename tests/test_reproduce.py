import json
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import subprocess_env
from looise import numerics
from looise.errors import UnknownExperiment
from looise.reproduce import (
    run_experiment,
    run_fig1,
    run_fig8,
    run_suppF1,
    run_table1,
    run_table2,
)

TABLE2_N, TABLE2_DESIGN = 2**12, 200  # table2's support and design sizes


def test_unknown_experiment(tmp_path):
    with pytest.raises(UnknownExperiment):
        run_experiment("nope", str(tmp_path))


def test_table1_csv_structure(tmp_path):
    out = run_table1(str(tmp_path))
    lines = (tmp_path / "table1.csv").read_text().strip().splitlines()
    assert lines[0] == "row,quantity,value,reference_value,rel_err"
    assert len(lines) == 13  # 2 rows x 6 quantities
    manifest = json.loads((tmp_path / "table1_manifest.json").read_text())
    assert manifest["tolerance_rel"] == 0.02
    assert manifest["blas"] == numerics.BLAS_PIN.as_dict()


def test_fig1_ratio_curves(tmp_path):
    out = run_fig1(str(tmp_path))
    rows = np.array(out["rows"])
    ratio_loo, ratio_blp = rows[:, 1], rows[:, 2]
    # the unweighted estimate swings from severe under- to overestimation
    assert ratio_loo.min() < 1.0 < ratio_loo.max()
    # the weighted estimate stays within a modest band around the truth
    assert np.max(np.abs(np.log10(ratio_blp))) < 0.55
    assert np.max(np.abs(np.log10(ratio_blp))) < np.max(np.abs(np.log10(ratio_loo)))
    # exact expectation ratios show the same contrast
    eratio_loo, eratio_blp = rows[:, 3], rows[:, 4]
    assert eratio_loo.min() < 0.5 and eratio_loo.max() > 2.0
    assert np.max(np.abs(np.log10(eratio_blp))) < 0.55


def test_fig8_trend_correction_helps_at_selected_range(tmp_path):
    out = run_fig8(str(tmp_path))
    ise = out["ise_true"]
    theta_sel = out["theta_loo_constant"]
    row = min(out["rows"], key=lambda r: abs(r[0] - theta_sel))
    assert abs(row[0] - theta_sel) < 1e-9  # the selected range is on the grid
    plain, corrected = row[1], row[2]
    assert abs(corrected - ise) < abs(plain - ise)
    # the correction helps across the whole sweep for this rough predictor
    better = [abs(r[2] - ise) <= abs(r[1] - ise) for r in out["rows"]]
    assert np.mean(better) > 0.8


def test_fig5_unbiased_exactly_at_matched_range(tmp_path):
    from looise.reproduce import run_fig5

    out = run_fig5(str(tmp_path))
    # zero bias where the assumed kernel equals the generating one; biased
    # elsewhere
    assert abs(out["bias_at_theta0"]) < 1e-12
    biases = [r[3] for r in out["rows"]]
    assert max(abs(b) for b in biases) > 1e-3


def test_dominance_gap_at_independent_limit_grid_study():
    # on the polynomial row of the grid study, the unweighted estimator's MSE
    # exceeds even the weighted estimator's worst case (the infinite-range
    # limit) by about 12.70
    import numpy as np

    from looise import estimators
    from looise.designs import regular_grid, sobol_measure
    from looise.kernels import KernelSpec
    from looise.moments import build_bundle, independent_limit_bundle
    from looise.predictors import BayesPolynomial, poly_basis

    design = regular_grid(2, 10)
    idx, lam = poly_basis(2, 50)
    pred = BayesPolynomial(idx, lam, 0.1, design)
    measure = sobol_measure(2, 2**10)
    bundle_true = build_bundle(pred, KernelSpec("matern32", 10.0), measure, compute_Vn=True)
    lim = independent_limit_bundle(pred, measure)
    # graft the limit weights into a dominance record via the generic checker
    rec_loo = estimators.performance_report(np.full(100, 0.01), bundle_true)
    rec_lim = estimators.performance_report(lim.solve_S(lim.b), bundle_true)
    gap = rec_loo.mse - rec_lim.mse
    assert abs(gap - (12.785 - 0.082)) <= 0.02 * (12.785 - 0.082)


def test_each_predictor_draws_its_weights_over_the_support_once(tmp_path, monkeypatch):
    # fig2 evaluates 19 predictors, each in one walk for its bundle, its
    # residuals and its true ISE; fig3 puts the oracle and all 26 assumed
    # ranges of its one predictor on one weight source and one walk, and
    # the oracle's V_n draws the whole support once more
    from looise import moments
    from looise.reproduce import run_fig2, run_fig3

    rows = []
    draw = moments.WeightSource.block

    def counting(self, lo, hi, *dist):
        rows.append(hi - lo)
        return draw(self, lo, hi, *dist)

    monkeypatch.setattr(moments.WeightSource, "block", counting)
    N = 2**10  # the support of both targets
    run_fig2(str(tmp_path))
    assert sum(rows) == 19 * N
    rows.clear()
    run_fig3(str(tmp_path))
    assert sum(rows) == 2 * N


def test_suppf1_replications_differ(tmp_path):
    out = run_suppF1(str(tmp_path), n_reps=3)
    vals = np.array(out["rows"])[:, 1]
    assert len(np.unique(vals)) == 3


def test_table2_is_bit_identical_for_any_pool_and_blas_thread_count(tmp_path):
    """Two replications run twice in fresh interpreters, with one pool thread
    and one BLAS thread, then with two of each, where each replication's
    candidate ranges run on a pool of two: the CSVs match byte for byte,
    because the pin at import overrides OPENBLAS_NUM_THREADS."""
    probe = ("import os, sys\n"
             "from looise.reproduce import run_table2\n"
             "run_table2(sys.argv[1], threads=int(os.environ['LOOISE_THREADS']), n_designs=2)\n")
    runs = []
    for threads in ("1", "2"):
        env = subprocess_env(LOOISE_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                             OMP_NUM_THREADS=None)
        out = tmp_path / f"threads{threads}"
        runs.append((out, subprocess.Popen([sys.executable, "-c", probe, str(out)], env=env)))
    try:
        for out, proc in runs:
            assert proc.wait(timeout=600) == 0
    finally:
        for _, proc in runs:
            proc.kill()  # no-op for a process that has exited
    first, second = [(out / "table2.csv").read_bytes() for out, _ in runs]
    assert first == second


def test_table2_keeps_one_support_cache_alive(tmp_path):
    # the candidates of one replication share its D and C_e on the support,
    # 2·N·n doubles: the bound leaves room for that one cache, not for two
    tracemalloc.start()
    try:
        run_table2(str(tmp_path), threads=2, n_designs=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * TABLE2_N * TABLE2_DESIGN * 8


def test_table2_builds_its_support_cache_once_per_replication(tmp_path, monkeypatch):
    # the first candidate's walk fills the cache before the pool's walks read it;
    # walks that raced to fill it would build some blocks twice
    from looise import moments

    counts = {"distances": 0, "cross_matrix": 0}
    lock = threading.Lock()

    def counting(name):
        fn = getattr(moments, name)

        def wrapped(*args, **kwargs):
            with lock:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    for name in counts:
        monkeypatch.setattr(moments, name, counting(name))
    run_table2(str(tmp_path), threads=2, n_designs=2)
    blocks = TABLE2_N // moments.block_rows(TABLE2_DESIGN)
    assert blocks == 8
    assert counts == {"distances": 2 * blocks, "cross_matrix": 2 * blocks}


def test_table2_builds_k_e_once_per_replication(tmp_path, monkeypatch):
    # the first candidate's bundle builds K_e's record, and the other 45 share it
    from looise import moments

    walk, build = moments.predictor_walk, moments.kernel_matrix
    records, builds = [], []

    def capturing(*args, **kwargs):
        bundles, ise = walk(*args, **kwargs)
        records.extend((b.design, b.components[0].record) for b in bundles)
        return bundles, ise

    monkeypatch.setattr(moments, "predictor_walk", capturing)
    monkeypatch.setattr(moments, "kernel_matrix",
                        lambda spec, *args: builds.append(spec) or build(spec, *args))
    run_table2(str(tmp_path), threads=2, n_designs=2)
    per_design = {}  # designs and records hash by identity
    for design, record in records:
        per_design.setdefault(design, set()).add(record)
    assert len(records) == 2 * 46
    assert [len(kept) for kept in per_design.values()] == [1, 1]
    assert [spec.family for spec in builds] == ["matern52", "matern52"]
