"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete. The invariant checks of `looise selftest` are not repeated
here: tests/test_selftest.py runs each of them as its own test.
"""

import time

import numpy as np

from reference_oracle import ise_wloo_blp, loo_residuals_bruteforce

from looise import estimators, moments, numerics
from looise.designs import (
    Design,
    sobol_points,
    uniform_measure,
)
from looise.kernels import KernelSpec, cross_matrix, kernel_matrix
from looise.moments import build_bundle, independent_limit_bundle, pointwise_c_rho
from looise.predictors import (
    BayesPolynomial,
    EmpiricalMean,
    OrdinaryKriging,
    SimpleKriging,
    poly_basis,
)
from looise.reproduce import (
    TABLE1_REFERENCE,
    run_fig3,
    run_fig7,
    run_suppC,
    run_suppF2,
    run_table2,
    table1_values,
)
from looise.rng import stream
from looise.testbed import sample_gp


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}")


def _check_budget(criterion, start, budget_s):
    elapsed = time.time() - start
    assert elapsed < budget_s, f"{criterion} exceeded its runtime budget: {elapsed:.0f}s"


def _table1_row(criterion: str, row: str, budget_s: float):
    start = time.time()
    got = table1_values(row)
    ref = TABLE1_REFERENCE[row]
    errs = {k: abs(got[k] - ref[k]) / abs(ref[k]) for k in ref}
    ok = all(e <= 0.02 for e in errs.values())
    detail = ", ".join(f"{k}={got[k]:.4f} ({100 * errs[k]:.2f}%)" for k in ref)
    report(criterion, ok, detail)
    _check_budget(criterion, start, budget_s)
    bad = {k: e for k, e in errs.items() if e > 0.02}
    assert not bad, (
        f"values beyond 2% of the published table: {bad} "
        "(see decisions ledger: the published row-1 limit MSE is inconsistent "
        "with the published formulas; every faithful variant lands at 0.0802)"
    )


def test_criterion_01_table1_row1():
    _table1_row("1 (table 1, polynomial row)", "poly", 120)


def test_criterion_02_table1_row2():
    _table1_row("2 (table 1, kriging row)", "blup", 120)


def test_criterion_03_oracle_minimum(tmp_path):
    start = time.time()
    out = run_fig3(str(tmp_path), threads=1)
    ok = out["mse_argmin_theta"] == 10.0
    report("3 (oracle minimum)", ok,
           f"MSE argmin over the sweep grid at theta={out['mse_argmin_theta']}")
    _check_budget("3", start, 300)
    assert ok


def _dominance_configs():
    cases = []
    specs = [(1, 10), (1, 50), (2, 10), (2, 50), (2, 100)]
    makers = ["sk", "ok", "em", "poly"]
    idx = 0
    for d, n in specs:
        for maker in makers:
            cases.append((d, n, maker, idx))
            idx += 1
    return cases  # 20 configurations


def _make_predictor(maker: str, design: Design):
    if maker == "sk":
        return SimpleKriging(KernelSpec("matern52", 8.0), design)
    if maker == "ok":
        return OrdinaryKriging(KernelSpec("matern32", 6.0), design)
    if maker == "em":
        return EmpiricalMean(design)
    return BayesPolynomial(*poly_basis(design.d, 8, c=10.0), 0.05, design)


def _mse_gaps(bundle_e, bundle_true) -> dict:
    """MSEs under the generating kernel of the unweighted estimator and of the
    BLP weights of the assumed and of the generating kernel, and their gaps."""
    n = bundle_true.n
    mse_loo, mse_blp, mse_oracle = (
        estimators.performance_report(gamma, bundle_true).mse
        for gamma in (np.full(n, 1.0 / n), bundle_e.gamma_blp, bundle_true.gamma_blp))
    return {"mse_loo": mse_loo, "mse_blp": mse_blp, "gap_oracle": mse_blp - mse_oracle,
            "gap_loo_oracle": mse_loo - mse_oracle}


def test_criterion_04_dominance_identities():
    start = time.time()
    ktrue = KernelSpec("matern32", 9.0)
    theta_grid = np.geomspace(2.0, 40.0, 10)
    worst_loo, worst_oracle = np.inf, np.inf
    for d, n, maker, idx in _dominance_configs():
        design = Design(points=sobol_points(d, n, scramble_seed=700 + idx))
        pred = _make_predictor(maker, design)
        measure = uniform_measure(sobol_points(d, 256, scramble_seed=900 + idx))
        bundle_true = build_bundle(pred, ktrue, measure)
        rec = _mse_gaps(bundle_true, bundle_true)
        worst_loo = min(worst_loo, rec["gap_loo_oracle"] / max(rec["mse_loo"], 1e-300))
        assert rec["gap_loo_oracle"] >= -1e-9 * rec["mse_loo"]
        for theta in theta_grid:
            bundle_e = build_bundle(pred, KernelSpec("matern52", theta), measure)
            rec = _mse_gaps(bundle_e, bundle_true)
            scale = max(abs(rec["mse_blp"]), abs(rec["mse_loo"]))
            worst_oracle = min(worst_oracle, rec["gap_oracle"] / scale)
            assert rec["gap_oracle"] >= -1e-9 * scale
            assert rec["gap_loo_oracle"] >= -1e-9 * rec["mse_loo"]
    report("4 (dominance identities)", True,
           f"20 configs x 10 misspecified ranges; worst normalized gaps: "
           f"loo-oracle {worst_loo:.2e}, oracle {worst_oracle:.2e}")
    _check_budget("4", start, 180)


def test_criterion_05_loo_oracle_equivalence():
    start = time.time()
    sizes = [12, 20, 35, 60]
    worst = 0.0
    for case in range(50):
        d = 1 + case % 2
        n = sizes[case % 4]
        design = Design(points=sobol_points(d, n, scramble_seed=1500 + case))
        maker = ["sk", "ok", "poly", "em"][case % 4]
        pred = _make_predictor(maker, design)
        y = sample_gp(KernelSpec("matern32", 7.0), design.points, 1600, case)
        gap = float(np.max(np.abs(pred.loo_residuals(y)
                                  - loo_residuals_bruteforce(pred, y))))
        worst = max(worst, gap)
    ok = worst < 1e-8
    report("5 (closed-form LOO vs refits)", ok, f"max abs deviation {worst:.2e}")
    _check_budget("5", start, 60)
    assert ok


def test_criterion_06_unbiasedness():
    start = time.time()
    design = Design(points=sobol_points(1, 20, scramble_seed=31))
    kern = KernelSpec("matern32", 8.0)
    pred = SimpleKriging(kern, design)
    measure = uniform_measure(sobol_points(1, 512, scramble_seed=32))
    bundle = build_bundle(pred, kern, measure)
    gamma = estimators.blup_weights(bundle)
    constraint = abs(gamma @ bundle.u - bundle.J)
    assert constraint < 1e-10 * bundle.J
    K = kernel_matrix(kern, design.points)
    L = np.linalg.cholesky(K)
    vals = np.empty(500)
    for rep in range(500):
        y = L @ stream(33, rep).standard_normal(20)
        vals[rep] = gamma @ (bundle.R.T @ y) ** 2
    se = vals.std() / np.sqrt(len(vals))
    z = abs(vals.mean() - bundle.J) / se
    ok = z <= 3.0
    report("6 (unbiasedness)", ok,
           f"mean {vals.mean():.4f} vs J {bundle.J:.4f} ({z:.2f} standard errors); "
           f"constraint residual {constraint:.1e}")
    _check_budget("6", start, 120)
    assert ok


def test_criterion_07_monte_carlo_moments():
    start = time.time()
    design = Design(points=np.linspace(0, 1, 10)[:, None])
    ktrue = KernelSpec("matern32", 6.0)
    pred = SimpleKriging(KernelSpec("matern52", 9.0), design)
    probes = np.array([[0.07], [0.31], [0.52], [0.74], [0.96]])
    measure = uniform_measure(probes)
    bundle = build_bundle(pred, ktrue, measure)
    joint = np.vstack([design.points, probes])
    L = np.linalg.cholesky(kernel_matrix(ktrue, joint) + 1e-12 * np.eye(15))
    ndraw = 100000
    Y = stream(101).standard_normal((ndraw, 15)) @ L.T
    eps_sq = (Y[:, :10] @ bundle.R) ** 2
    prods = eps_sq[:, :, None] * eps_sq[:, None, :]
    z_S = np.max(np.abs(prods.mean(0) - bundle.S) / (prods.std(0) / np.sqrt(ndraw)))
    errs2 = (Y[:, 10:] - Y[:, :10] @ pred.weights_matrix(probes).T) ** 2
    c_rows, _ = pointwise_c_rho(bundle, probes)
    z_c = 0.0
    for j in range(5):
        pj = errs2[:, j : j + 1] * eps_sq
        se = pj.std(0) / np.sqrt(ndraw)
        z_c = max(z_c, float(np.max(np.abs(pj.mean(0) - c_rows[j]) / se)))
    ok = z_S <= 3.0 and z_c <= 3.0
    report("7 (Monte Carlo moments)", ok,
           f"max |z|: S entries {z_S:.2f}, c entries {z_c:.2f} over 1e5 draws")
    _check_budget("7", start, 120)
    assert ok


def test_criterion_08_environmental_study(tmp_path):
    start = time.time()
    out = run_fig7(str(tmp_path), threads=1, n_designs=20)
    rows = np.array([r[1:5] for r in out["rows"]])  # omega, true, loo, blp
    ratio_loo = rows[:, 2] / rows[:, 1]
    ratio_blp = rows[:, 3] / rows[:, 1]
    med_blp = float(np.median(np.abs(ratio_blp - 1.0)))
    med_loo = float(np.median(np.abs(ratio_loo - 1.0)))
    med_ratio_loo = float(np.median(ratio_loo))
    ok = med_blp < med_loo and med_ratio_loo > 1.5
    report("8 (environmental study)", ok,
           f"median |blp/ise-1| {med_blp:.3f} < median |loo/ise-1| {med_loo:.3f}; "
           f"median loo/ise {med_ratio_loo:.2f} > 1.5")
    _check_budget("8", start, 600)
    assert ok


def test_criterion_09_model_selection(tmp_path):
    start = time.time()
    # the pool size moves no bit (test_reproduce.py and CI's table2 cmp guard that)
    out = run_table2(str(tmp_path), threads=numerics.default_workers(), n_designs=20)
    m = out["means"]
    ok = (m["blp"] <= 0.5 * m["empirical_mean"]
          and m["loo"] <= 0.5 * m["empirical_mean"]
          and m["oracle"] <= m["blp"] and m["oracle"] <= m["loo"])
    report("9 (model selection)", ok,
           f"mean selected ISE/omega: oracle {m['oracle']:.3f}, loo {m['loo']:.3f}, "
           f"blp {m['blp']:.3f}, empirical mean {m['empirical_mean']:.3f}")
    _check_budget("9", start, 900)
    assert ok


def test_criterion_10_reference_oracle():
    start = time.time()
    worst = 0.0
    for case, (variant, nugget, constant) in enumerate(
        [("sk", 0.0, False), ("ok", 0.0, False), ("em", 0.0, False),
         ("sk", 0.0625, True), ("sk", 0.0, True)]
    ):
        design = Design(points=sobol_points(2, 15, scramble_seed=41 + case))
        kern_e = KernelSpec("matern52", 6.0, nugget=nugget)
        pred = _make_predictor(variant if variant != "em" else "em", design)
        measure = uniform_measure(sobol_points(2, 64, scramble_seed=61 + case))
        y = sample_gp(KernelSpec("matern32", 8.0), design.points, 71, case)
        if constant:
            y = y + 3.0
        ref = ise_wloo_blp(y, pred.loo.matrix, measure.weights,
                           pred.weights_matrix(measure.points).T,
                           kernel_matrix(kern_e, design.points),
                           cross_matrix(kern_e, design.points, measure.points).T,
                           nugget, constant)
        eps = pred.loo_residuals(y)
        bundle = build_bundle(pred, kern_e, measure)
        mine_loo = estimators.ise_loo(eps).value
        if constant:
            mine_blp = estimators.trend_corrected_ise(bundle, y, estimator="blp").value
            mine_blup = estimators.trend_corrected_ise(bundle, y, estimator="blup").value
        else:
            mine_blp = estimators.ise_blp(bundle, eps, clamp=True).value
            mine_blup = estimators.ise_blup(bundle, eps, clamp=True).value
        for mine, theirs in [(mine_loo, ref["ise_LOOCV"]), (mine_blp, ref["ise_BLP"]),
                             (mine_blup, ref["ise_BLP_unbiased"])]:
            worst = max(worst, abs(mine - theirs) / abs(theirs))
    ok = worst < 1e-9
    report("10 (reference-code oracle)", ok, f"max relative deviation {worst:.2e}")
    _check_budget("10", start, 30)
    assert ok


def test_criterion_11_limit_consistency():
    start = time.time()
    design = Design(points=sobol_points(2, 25, scramble_seed=81))
    pred = SimpleKriging(KernelSpec("matern52", 5.0), design)
    measure = uniform_measure(sobol_points(2, 512, scramble_seed=82))
    big = build_bundle(pred, KernelSpec("matern32", 1e6), measure)
    lim = independent_limit_bundle(pred, measure)
    rels = {}
    for field in ("u", "S", "b"):
        a, b = getattr(big, field), getattr(lim, field)
        rels[field] = float(np.linalg.norm(a - b) / np.linalg.norm(b))
    rels["J"] = abs(big.J - lim.J) / abs(lim.J)
    ok = all(v <= 1e-3 for v in rels.values())
    report("11 (independent-limit consistency)", ok,
           ", ".join(f"{k}: {v:.1e}" for k, v in rels.items()))
    _check_budget("11", start, 30)
    assert ok


def test_criterion_12_noisy_data_study(tmp_path):
    start = time.time()
    out = run_suppF2(str(tmp_path), threads=1, n_reps=20)
    rows = np.array(out["rows"])
    level = {}
    for factor in (1.0, 10.0):
        sel = rows[rows[:, 1] == factor]
        level[factor] = {
            "blp": float(np.median(np.abs(sel[:, 4] - sel[:, 2]))),
            "loo": float(np.median(np.abs(sel[:, 3] - sel[:, 2]))),
        }
    ok = (level[1.0]["blp"] < level[1.0]["loo"]
          and level[10.0]["blp"] <= 3.0 * level[1.0]["blp"])
    report("12 (noisy observations)", ok,
           f"median |err| at r=gamma^2: blp {level[1.0]['blp']:.4f} < "
           f"loo {level[1.0]['loo']:.4f}; at r=10 gamma^2: blp "
           f"{level[10.0]['blp']:.4f} <= 3x{level[1.0]['blp']:.4f}")
    _check_budget("12", start, 600)
    assert ok


def test_suppc_reduced_scale(tmp_path):
    # the full-scale d=8 sweeps are out of reach at desk scale; the reduced
    # runs must keep the qualitative conclusions
    start = time.time()
    out = run_suppC(str(tmp_path), threads=1)
    overestimates = []
    blp_blup_gap = []
    for row in out["rows"]:
        n, dn5, tp, te, J, e_loo, mse_loo, e_blp, mse_blp, e_blup, mse_blup = row
        overestimates.append(e_loo > J)
        blp_blup_gap.append(abs(mse_blup - mse_blp) / mse_blp)
    ok = all(overestimates) and max(blp_blup_gap) < 0.1
    report("suppC (reduced scale)", ok,
           f"LOO overestimates at every n: {all(overestimates)}; "
           f"max relative BLP/BLUP MSE gap {max(blp_blup_gap):.3f}")
    _check_budget("suppC", start, 300)
    assert ok
