import json

import numpy as np
import pytest

from looise import numerics
from looise.cli import main
from looise.config import apply_overrides, parse_config
from looise.designs import design_to_csv, regular_grid
from looise.errors import ConfigError


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


BASE_CONFIG = """
# one-dimensional smoke configuration
design.generator = grid
design.d = 1
design.per_axis = 10
measure.sobol_n = 256
predictor.variant = simple-kriging
predictor.kernel.family = matern52
predictor.kernel.theta = 6.0
estimator.kernel.family = matern32
estimator.kernel.theta = 8.0
"""


def serialize_config(cfg: dict[str, str]) -> str:
    return "".join(f"{k} = {cfg[k]}\n" for k in sorted(cfg))


def test_config_roundtrip():
    cfg = parse_config(BASE_CONFIG)
    again = parse_config(serialize_config(cfg))
    assert cfg == again


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        parse_config("desing.generator = grid\n")
    with pytest.raises(ConfigError):
        apply_overrides({}, {"nope.key": "1"})


def test_config_rejects_duplicates_and_garbage():
    with pytest.raises(ConfigError):
        parse_config("seed = 1\nseed = 2\n")
    with pytest.raises(ConfigError):
        parse_config("just some words\n")


def test_estimate_zero_data(tmp_path, capsys):
    ycsv = write(tmp_path, "y.csv", "y\n" + "\n".join(["0.0"] * 10) + "\n")
    cfg = write(tmp_path, "run.cfg", BASE_CONFIG + f"data.file = {ycsv}\n")
    code = main(["estimate", "--config", cfg])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["ise_loo"] == 0.0
    assert out["ise_blp"] == 0.0
    assert out["ise_blp_unbiased"] == 0.0
    assert out["theta_used"] == 8.0


def test_estimate_flag_overrides_and_manifest(tmp_path, capsys):
    ycsv = write(tmp_path, "y.csv", "y\n" + "\n".join(["0.5"] * 10) + "\n")
    cfg = write(tmp_path, "run.cfg", BASE_CONFIG + f"data.file = {ycsv}\n")
    code = main(["estimate", "--config", cfg, "--estimator.kernel.theta=12.5",
                 "--out", str(tmp_path / "out")])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["theta_used"] == 12.5
    assert out["manifest"]["config"]["estimator.kernel.theta"] == "12.5"
    assert out["diagnostics"]["blas"] == numerics.BLAS_PIN.as_dict()
    on_disk = json.loads((tmp_path / "out" / "estimate.json").read_text())
    assert on_disk == out


def test_a_package_without_bundled_openblas_is_left_unpinned(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(numerics, "_find_openblas", lambda package, pattern: None)
    monkeypatch.setattr(numerics, "BLAS_PIN", numerics.pin_blas_threads())
    ycsv = write(tmp_path, "y.csv", "y\n" + "\n".join(["0.5"] * 10) + "\n")
    cfg = write(tmp_path, "run.cfg", BASE_CONFIG + f"data.file = {ycsv}\n")
    assert main(["estimate", "--config", cfg]) == 0
    blas = json.loads(capsys.readouterr().out)["diagnostics"]["blas"]
    assert set(blas["pools"]) == {"numpy", "scipy"}
    for package, pool in blas["pools"].items():
        assert pool["library"] is None and pool["threads_after"] is None
        assert pool["unpinned_reason"] == f"no bundled OpenBLAS in {package}"
    assert blas["overridden"] == {}  # nothing was pinned, so nothing was overridden


def test_lapack_from_scipy_linalg_gives_the_same_estimate_bytes(tmp_path, capsys, monkeypatch):
    # a scipy without the bundled OpenBLAS: the four routines come from scipy.linalg
    gen = np.random.default_rng(5)
    ycsv = write(tmp_path, "y.csv", "y\n" + "".join(f"{v:.17g}\n" for v in gen.standard_normal(10)))
    cfg = write(tmp_path, "run.cfg", BASE_CONFIG + f"data.file = {ycsv}\ntrend.mode = constant\n")
    argv = ["estimate", "--config", cfg, "--estimator.kernel.theta=loo"]
    assert main(argv) == 0
    direct = capsys.readouterr().out
    monkeypatch.setattr(numerics, "_find_openblas", lambda package, pattern: None)
    monkeypatch.setattr(numerics, "LAPACK", numerics.load_lapack())
    assert isinstance(numerics.LAPACK, numerics.ScipyLapack)
    assert main(argv) == 0
    assert capsys.readouterr().out == direct


def test_estimate_exit_code_config_error(tmp_path, capsys):
    cfg = write(tmp_path, "bad.cfg", "design.generator = grid\n")
    assert main(["estimate", "--config", cfg]) == 2


def test_estimate_exit_code_numerical_failure(tmp_path, capsys):
    # non-sum-to-one predictor with a tiny assumed range: S degenerates
    gen = np.random.default_rng(3)
    y = "y\n" + "\n".join(f"{v:.17g}" for v in gen.standard_normal(10)) + "\n"
    ycsv = write(tmp_path, "y.csv", y)
    cfg = write(tmp_path, "run.cfg", BASE_CONFIG + f"data.file = {ycsv}\n")
    code = main(["estimate", "--config", cfg, "--estimator.kernel.theta=1e-6"])
    assert code == 3
    assert "FlatLimitSingular" in capsys.readouterr().err


@pytest.mark.parametrize("variant", ["empirical-mean", "ordinary-kriging"])
def test_estimate_names_the_undefined_loo_of_one_sum_to_one_point(tmp_path, capsys, variant):
    from looise.designs import Design

    design = write(tmp_path, "design.csv", design_to_csv(Design(points=np.array([[0.4]]))))
    ycsv = write(tmp_path, "y.csv", "y\n1.5\n")
    cfg = write(tmp_path, "run.cfg", f"design.file = {design}\ndata.file = {ycsv}\n"
                "predictor.kernel.family = matern52\npredictor.kernel.theta = 6.0\n"
                "estimator.kernel.family = matern32\nestimator.kernel.theta = 8.0\n")
    assert main(["estimate", "--config", cfg, f"--predictor.variant={variant}"]) == 3
    err = capsys.readouterr().err
    assert "DegenerateData" in err and "one-point sum-to-one predictor" in err


def test_estimate_bad_file_exit_code(tmp_path):
    cfg = write(tmp_path, "run.cfg", BASE_CONFIG + "data.file = /nonexistent.csv\n")
    assert main(["estimate", "--config", cfg]) == 2


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_estimate_rejects_non_finite_data(tmp_path, capsys, bad):
    ycsv = write(tmp_path, "y.csv", "y\n" + "\n".join(["0.5"] * 9 + [bad]) + "\n")
    cfg = write(tmp_path, "run.cfg", BASE_CONFIG + f"data.file = {ycsv}\n")
    assert main(["estimate", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{ycsv} holds a non-finite value" in captured.err


NON_FINITE_FLAGS = {
    "estimator.kernel.nugget": ["--estimator.kernel.nugget=nan"],
    "estimator.kernel.theta": ["--estimator.kernel.theta=inf"],
    "predictor.kernel.nugget": ["--predictor.kernel.nugget=nan"],
    "estimator.mixture.weights": ["--estimator.mixture.families=matern32,gaussian",
                                  "--estimator.mixture.thetas=4,9",
                                  "--estimator.mixture.weights=nan,1"],
}


@pytest.mark.parametrize("key", NON_FINITE_FLAGS)
def test_estimate_rejects_non_finite_numbers_in_the_config(tmp_path, capsys, key):
    ycsv = write(tmp_path, "y.csv", "y\n" + "\n".join(["0.5"] * 10) + "\n")
    cfg = write(tmp_path, "run.cfg", BASE_CONFIG + f"data.file = {ycsv}\n")
    assert main(["estimate", "--config", cfg, *NON_FINITE_FLAGS[key]]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and key in captured.err


@pytest.mark.parametrize("weights", ["0.5,0.6", "-0.5,1.5"])
def test_estimate_rejects_mixture_weights_off_the_simplex(tmp_path, capsys, monkeypatch, weights):
    import looise.cli

    # the weights are checked before any input is read or kernel matrix built
    monkeypatch.setattr(looise.cli, "_inputs", lambda cfg: pytest.fail("inputs read first"))
    cfg = write(tmp_path, "run.cfg", BASE_CONFIG)
    assert main(["estimate", "--config", cfg, "--estimator.mixture.families=matern32,gaussian",
                 "--estimator.mixture.thetas=4,9", f"--estimator.mixture.weights={weights}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "estimator.mixture.weights" in captured.err


def test_sweep_single_theta_matches_estimate(tmp_path, capsys):
    gen = np.random.default_rng(4)
    ycsv = write(tmp_path, "y.csv",
                 "y\n" + "\n".join(f"{v:.17g}" for v in gen.standard_normal(10)) + "\n")
    cfg = write(tmp_path, "run.cfg", BASE_CONFIG + f"data.file = {ycsv}\n")
    assert main(["estimate", "--config", cfg]) == 0
    est = json.loads(capsys.readouterr().out)["ise_blp"]
    assert main(["sweep", "--config", cfg, "--sweep.thetas=8.0",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "theta_blp,estimate,e_estimate,mse,bias,estimator"
    row = lines[1].split(",")
    assert float(row[0]) == 8.0
    assert np.isclose(float(row[1]), est, rtol=1e-12)
    manifest = json.loads((tmp_path / "sweep_manifest.json").read_text())
    assert manifest["blas"] == numerics.BLAS_PIN.as_dict()


# the scrambled measure keeps support points off the design, as the limit
# formulas require
SWEEP_CONFIG = """
design.generator = grid
design.d = 2
design.per_axis = 4
measure.sobol_n = 256
measure.seed = 9
predictor.variant = simple-kriging
predictor.kernel.family = matern52
predictor.kernel.theta = 4.0
estimator.kernel.family = matern32
estimator.kernel.theta = 8.0
"""


def test_sweep_oracle_columns_and_limit_tail(tmp_path, capsys):
    gen = np.random.default_rng(5)
    ycsv = write(tmp_path, "y.csv",
                 "y\n" + "\n".join(f"{v:.17g}" for v in gen.standard_normal(16)) + "\n")
    cfg = write(tmp_path, "run.cfg", SWEEP_CONFIG + f"data.file = {ycsv}\n"
                + "sweep.thetas = 1e3,1e4,1e6\n"
                + "sweep.oracle.family = matern32\nsweep.oracle.theta = 8.0\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    rows = [ln.split(",") for ln in lines[1:]]
    estimates = [float(r[1]) for r in rows]
    assert all(np.isfinite(float(r[3])) for r in rows)  # oracle MSE column filled
    # every tail row sits within 1e-3 relative of the independent-limit value
    from looise import estimators as E
    from looise.designs import regular_grid, sobol_measure
    from looise.kernels import KernelSpec
    from looise.moments import independent_limit_bundle
    from looise.predictors import SimpleKriging

    design = regular_grid(2, 4)
    measure = sobol_measure(2, 256, scramble_seed=9)
    pred = SimpleKriging(KernelSpec("matern52", 4.0), design)
    y = np.loadtxt(ycsv, skiprows=1)
    lim = independent_limit_bundle(pred, measure)
    limit_value = E.ise_blp(lim, pred.loo_residuals(y), clamp=True).value
    for est in estimates:
        assert abs(est - limit_value) <= 1e-3 * abs(limit_value)


def test_design_subcommand(tmp_path, capsys):
    code = main(["design", "--design.generator=grid", "--design.d=2",
                 "--design.per_axis=3"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == design_to_csv(regular_grid(2, 3))


def test_design_file_roundtrip_via_estimate(tmp_path, capsys):
    dcsv = write(tmp_path, "design.csv", design_to_csv(regular_grid(1, 10)))
    ycsv = write(tmp_path, "y.csv", "y\n" + "\n".join(["0.0"] * 10) + "\n")
    cfg = write(tmp_path, "run.cfg", f"""
design.file = {dcsv}
data.file = {ycsv}
measure.sobol_n = 128
predictor.variant = simple-kriging
predictor.kernel.family = matern52
predictor.kernel.theta = 6.0
estimator.kernel.family = matern32
estimator.kernel.theta = 8.0
""")
    assert main(["estimate", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["ise_blp"] == 0.0


def test_estimate_with_kernel_mixture(tmp_path, capsys):
    gen = np.random.default_rng(6)
    ycsv = write(tmp_path, "y.csv",
                 "y\n" + "\n".join(f"{v:.17g}" for v in gen.standard_normal(10)) + "\n")
    cfg = write(tmp_path, "run.cfg", BASE_CONFIG + f"data.file = {ycsv}\n"
                + "estimator.mixture.families = matern32,gaussian\n"
                + "estimator.mixture.thetas = 6.0,12.0\n"
                + "estimator.mixture.weights = 0.5,0.5\n")
    assert main(["estimate", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ise_blp"] >= 0.0
    assert out["diagnostics"]["theta_rule"] == "mixture"
    # mismatched list lengths are a config error
    cfg2 = write(tmp_path, "bad.cfg", BASE_CONFIG + f"data.file = {ycsv}\n"
                 + "estimator.mixture.families = matern32,gaussian\n"
                 + "estimator.mixture.thetas = 6.0\n"
                 + "estimator.mixture.weights = 0.5,0.5\n")
    assert main(["estimate", "--config", cfg2]) == 2


def test_estimate_mixture_output_is_strict_json(tmp_path, capsys):
    # a mixture has no single assumed range: theta_used is null, never NaN
    ycsv = write(tmp_path, "y.csv", "y\n" + "\n".join(f"{0.1 * i:.17g}" for i in range(10))
                 + "\n")
    cfg = write(tmp_path, "run.cfg", BASE_CONFIG + f"data.file = {ycsv}\n"
                + "estimator.mixture.families = matern32,matern52\n"
                + "estimator.mixture.thetas = 8,12\n"
                + "estimator.mixture.weights = 0.5,0.5\n")
    assert main(["estimate", "--config", cfg]) == 0

    def reject(token):
        raise ValueError(f"invalid JSON constant {token}")

    out = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert out["theta_used"] is None


def test_mixture_constant_trend_centres_under_the_mixture_covariance(tmp_path, capsys):
    from looise.designs import sobol_measure
    from looise.kernels import KernelSpec, kernel_matrix
    from looise.predictors import SimpleKriging

    gen = np.random.default_rng(8)
    y = 3.0 + gen.standard_normal(10)
    ycsv = write(tmp_path, "y.csv", "y\n" + "\n".join(f"{v:.17g}" for v in y) + "\n")
    cfg = write(tmp_path, "run.cfg", BASE_CONFIG + f"data.file = {ycsv}\n"
                + "trend.mode = constant\n"
                + "estimator.mixture.families = matern32,matern52\n"
                + "estimator.mixture.thetas = 8,12\n"
                + "estimator.mixture.weights = 0.3,0.7\n")
    assert main(["estimate", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    design = regular_grid(1, 10)
    measure = sobol_measure(1, 256)
    sigma = (0.3 * kernel_matrix(KernelSpec("matern32", 8.0), design.points)
             + 0.7 * kernel_matrix(KernelSpec("matern52", 12.0), design.points))
    ones = np.ones(10)
    tau = (ones @ np.linalg.solve(sigma, y)) / (ones @ np.linalg.solve(sigma, ones))
    W = SimpleKriging(KernelSpec("matern52", 6.0), design).weights_matrix(measure.points)
    defect = float(measure.weights @ (1.0 - W.sum(axis=1)) ** 2)
    assert defect > 0.0
    assert np.isclose(out["trend_info"]["correction"], tau * tau * defect, rtol=1e-10,
                      atol=0.0)


@pytest.mark.parametrize("extra, key", [
    ("trend.mode = constant\n", "trend.mode"),
    ("estimator.mixture.families = matern32,gaussian\n"
     "estimator.mixture.thetas = 4,9\nestimator.mixture.weights = 0.5,0.5\n",
     "estimator.mixture.families"),
    ("estimator.mixture.weights = 1\n", "estimator.mixture.weights"),
    ("estimator.vn = true\n", "estimator.vn"),
    ("sweep.oracle.theta = 8.0\n", "sweep.oracle.theta"),
    ("sweep.oracle.nugget = 0.1\n", "sweep.oracle.nugget"),
])
def test_sweep_rejects_keys_it_would_ignore(tmp_path, capsys, extra, key):
    ycsv = write(tmp_path, "y.csv", "y\n" + "\n".join(["0.5"] * 16) + "\n")
    cfg = write(tmp_path, "run.cfg", SWEEP_CONFIG + f"data.file = {ycsv}\n"
                + "sweep.thetas = 2,8\n" + extra)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_accepts_zero_trend_and_oracle_keys(tmp_path, capsys):
    ycsv = write(tmp_path, "y.csv", "y\n" + "\n".join(["0.5"] * 16) + "\n")
    cfg = write(tmp_path, "run.cfg", SWEEP_CONFIG + f"data.file = {ycsv}\n"
                + "sweep.thetas = 2,8\ntrend.mode = zero\nestimator.vn = true\n"
                + "sweep.oracle.family = matern32\nsweep.oracle.theta = 8.0\n"
                + "sweep.oracle.nugget = 0.0\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert len((tmp_path / "sweep.csv").read_text().strip().splitlines()) == 3


def test_sweep_solves_s_gamma_b_once_per_theta(tmp_path, capsys, monkeypatch):
    from looise.moments import MomentBundle

    calls = []
    solve = MomentBundle.solve_S

    def counting(self, rhs):
        calls.append(np.shape(rhs))
        return solve(self, rhs)

    monkeypatch.setattr(MomentBundle, "solve_S", counting)
    gen = np.random.default_rng(5)
    ycsv = write(tmp_path, "y.csv",
                 "y\n" + "\n".join(f"{v:.17g}" for v in gen.standard_normal(16)) + "\n")
    cfg = write(tmp_path, "run.cfg", SWEEP_CONFIG + f"data.file = {ycsv}\n"
                + "sweep.thetas = 2,8,32\n"
                + "sweep.oracle.family = matern32\nsweep.oracle.theta = 8.0\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert 0 < len(calls) <= 2 * 3


def test_estimate_with_weight_table(tmp_path, capsys):
    from looise.designs import regular_grid as rg
    from looise.designs import sobol_points

    design = rg(1, 6)
    support = sobol_points(1, 32, scramble_seed=3)
    dcsv = write(tmp_path, "design.csv", design_to_csv(design))
    # constant-mean weight table over the support, plus its exact LOO matrix
    header = "x1," + ",".join(f"w{j}" for j in range(6))
    rows = [",".join([f"{x[0]:.17g}"] + [f"{1/6:.17g}"] * 6) for x in support]
    wcsv = write(tmp_path, "weights.csv", header + "\n" + "\n".join(rows) + "\n")
    R = (6 * np.eye(6) - np.ones((6, 6))) / 5
    rcsv = write(tmp_path, "loo.csv",
                 ",".join(f"r{j}" for j in range(6)) + "\n"
                 + "\n".join(",".join(f"{v:.17g}" for v in row) for row in R) + "\n")
    gen = np.random.default_rng(8)
    ycsv = write(tmp_path, "y.csv",
                 "y\n" + "\n".join(f"{v:.17g}" for v in gen.standard_normal(6)) + "\n")
    support_rows = "\n".join(f"{x[0]:.17g}" for x in support)
    mcsv = write(tmp_path, "support.csv", "x1\n" + support_rows + "\n")
    cfg = write(tmp_path, "run.cfg", f"""
design.file = {dcsv}
data.file = {ycsv}
measure.file = {mcsv}
predictor.variant = table
predictor.weights_file = {wcsv}
predictor.loo_file = {rcsv}
estimator.kernel.family = matern32
estimator.kernel.theta = 8.0
""")
    assert main(["estimate", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    # the table predictor is the empirical mean in disguise
    from looise.estimators import ise_blp
    from looise.moments import build_bundle
    from looise.predictors import EmpiricalMean

    pred = EmpiricalMean(design)
    y = np.loadtxt(ycsv, skiprows=1)
    from looise.designs import uniform_measure
    from looise.kernels import KernelSpec

    bundle = build_bundle(pred, KernelSpec("matern32", 8.0), uniform_measure(support))
    expected = ise_blp(bundle, pred.loo_residuals(y)).value
    assert np.isclose(out["ise_blp"], expected, rtol=1e-10)


def csv_text(header, rows):
    return header + "\n" + "\n".join(rows) + "\n"


def interpolation_table(tmp_path, fmt, loo_size=6):
    """Config of the piecewise-linear interpolant of the design values, given
    as a weight table written with the format `fmt`, with its exact LOO
    matrix (its leading loo_size x loo_size block) alongside and the
    measure at full precision."""
    from looise.designs import Design, sobol_points

    x = np.array([0.05, 0.2, 0.33, 0.5, 0.71, 0.9])
    design = Design(points=x[:, None])
    support = sobol_points(1, 32, scramble_seed=3)[:, 0]

    def hat_weights(nodes, t):  # constant beyond the end nodes
        return np.stack([np.interp(t, nodes, e) for e in np.eye(len(nodes))], axis=-1)

    W = hat_weights(x, support)
    R = np.eye(6)  # eps_i = y_i minus the interpolant of the other five at x_i
    for i in range(6):
        R[np.arange(6) != i, i] = -hat_weights(np.delete(x, i), x[i])
    y = np.random.default_rng(8).standard_normal(6)
    paths = {
        "design": write(tmp_path, "table_design.csv", design_to_csv(design)),
        "y": write(tmp_path, "table_y.csv", csv_text("y", [f"{v:.17g}" for v in y])),
        "support": write(tmp_path, "table_support.csv",
                         csv_text("x1", [f"{s:.17g}" for s in support])),
        "weights": write(tmp_path, f"weights{fmt}.csv", csv_text(
            "x1," + ",".join(f"w{j}" for j in range(6)),
            [",".join(format(v, fmt) for v in (s, *w)) for s, w in zip(support, W)])),
        "loo": write(tmp_path, f"loo{loo_size}.csv", csv_text(
            ",".join(f"r{j}" for j in range(loo_size)),
            [",".join(f"{v:.17g}" for v in row[:loo_size]) for row in R[:loo_size]])),
    }
    return write(tmp_path, f"table{fmt}.cfg", f"""
design.file = {paths["design"]}
data.file = {paths["y"]}
measure.file = {paths["support"]}
predictor.variant = table
predictor.weights_file = {paths["weights"]}
predictor.loo_file = {paths["loo"]}
estimator.kernel.family = matern32
estimator.kernel.theta = 8.0
""")


@pytest.mark.parametrize("fmt, sliced", [(".17g", True), (".15g", False)])
def test_a_table_over_the_measure_support_is_sliced_not_looked_up(tmp_path, capsys, monkeypatch,
                                                                   fmt, sliced):
    # at 17 digits the table's support is the measure's points, at 15 it only
    # coincides with them; the slices give the bytes of the lookup
    from looise.kernels import PointIndex
    from looise.predictors import TableWeights

    cfg = interpolation_table(tmp_path, fmt)
    lookup, calls = PointIndex.rows, []
    monkeypatch.setattr(PointIndex, "rows", lambda self, X: calls.append(len(X)) or lookup(self, X))
    assert main(["estimate", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert bool(calls) is not sliced
    monkeypatch.setattr(TableWeights, "table_on", lambda self, points: None)
    assert main(["estimate", "--config", cfg]) == 0
    assert capsys.readouterr().out == out


def test_estimate_with_a_15_digit_weight_table(tmp_path, capsys):
    from looise.designs import sobol_points

    support = sobol_points(1, 32, scramble_seed=3)[:, 0]
    assert any(float(f"{s:.15g}") != s for s in support)  # the rounding moves points
    assert main(["estimate", "--config", interpolation_table(tmp_path, ".17g")]) == 0
    exact = json.loads(capsys.readouterr().out)
    assert main(["estimate", "--config", interpolation_table(tmp_path, ".15g")]) == 0
    rounded = json.loads(capsys.readouterr().out)
    # the weights are rounded to 15 digits too, so the estimates agree to that
    for key in ("ise_loo", "ise_blp", "ise_blp_unbiased"):
        assert np.isclose(rounded[key], exact[key], rtol=1e-12, atol=0.0)


def test_estimate_rejects_a_non_finite_weight(tmp_path, capsys):
    cfg = interpolation_table(tmp_path, ".17g")
    weights = tmp_path / "weights.17g.csv"
    lines = weights.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",nan"
    weights.write_text("\n".join(lines) + "\n")
    assert main(["estimate", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{weights} holds a non-finite value" in captured.err


def test_estimate_rejects_a_weight_table_whose_support_points_coincide(tmp_path, capsys):
    cfg = interpolation_table(tmp_path, ".17g")
    weights = tmp_path / "weights.17g.csv"
    lines = weights.read_text().splitlines()  # the header, then support row i on line i + 1
    lines[21] = lines[6].split(",", 1)[0] + "," + lines[21].split(",", 1)[1]
    weights.write_text("\n".join(lines) + "\n")
    assert main(["estimate", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "support points 5 and 20 coincide" in captured.err


def test_exit_code_follows_where_the_error_came_from(tmp_path, capsys, monkeypatch):
    ycsv = write(tmp_path, "y.csv", "y\n" + "\n".join(["0.5"] * 10) + "\n")
    cfg = write(tmp_path, "run.cfg", BASE_CONFIG + f"data.file = {ycsv}\n")
    # a KernelSpec ValueError while validating inputs is a configuration error
    assert main(["estimate", "--config", cfg, "--estimator.kernel.theta=-1"]) == 2
    assert "theta must be > 0" in capsys.readouterr().err
    # so is a DimensionMismatch raised while building the predictor
    table = interpolation_table(tmp_path, ".17g", loo_size=5)
    assert main(["estimate", "--config", table]) == 2
    assert "LOO matrix must be n x n" in capsys.readouterr().err
    # a ValueError from a numerical routine is a numerical failure

    def broken(*args, **kwargs):
        raise ValueError("array must not contain infs or NaNs")

    monkeypatch.setattr("looise.estimators.ise_blp", broken)
    assert main(["estimate", "--config", cfg]) == 3
    assert "ValueError: array must not contain infs" in capsys.readouterr().err


@pytest.mark.parametrize("function, d, message", [
    ("piston4d", 2, "function.name = piston4d needs a design of dimension 4, got 2"),
    ("environmental", 4, "function.name = environmental needs a design of dimension 2, got 4"),
    ("branin", 2, "unknown function.name 'branin'; known: environmental, piston4d"),
])
def test_a_function_the_design_cannot_feed_is_an_input_error(capsys, function, d, message):
    code = main(["estimate", "--design.generator=sobol", f"--design.d={d}", "--design.n=12",
                 f"--function.name={function}", "--measure.sobol_n=64",
                 "--predictor.kernel.family=matern52", "--predictor.kernel.theta=5",
                 "--estimator.kernel.family=matern32", "--estimator.kernel.theta=8"])
    assert code == 2
    assert message in capsys.readouterr().err


def test_a_measure_file_of_another_dimension_is_an_input_error(tmp_path, capsys):
    mcsv = write(tmp_path, "support.csv", design_to_csv(regular_grid(3, 4)))
    ycsv = write(tmp_path, "y.csv", "y\n" + "\n".join(["0.5"] * 10) + "\n")
    cfg = write(tmp_path, "run.cfg", BASE_CONFIG + f"data.file = {ycsv}\nmeasure.file = {mcsv}\n")
    assert main(["estimate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "measure.file holds points of dimension 3; the design has dimension 1" in err


def test_estimate_rejects_the_vn_key(tmp_path, capsys):
    ycsv = write(tmp_path, "y.csv", "y\n" + "\n".join(["0.5"] * 10) + "\n")
    cfg = write(tmp_path, "run.cfg", BASE_CONFIG + f"data.file = {ycsv}\nestimator.vn = true\n")
    assert main(["estimate", "--config", cfg]) == 2
    assert "only the oracle columns of sweep" in capsys.readouterr().err


@pytest.mark.parametrize("flag, message", [
    ("--predictor.poly.m=-3", "m = -3 is outside [1, 13]"),
    ("--predictor.poly.decay=0.5", "decay t = 0.5 is below 1"),
])
def test_poly_keys_out_of_bounds_are_config_errors(tmp_path, capsys, flag, message):
    # a 1-d basis holds the 13 terms of degree 0 to 12, so the default m = 50 is too many
    ycsv = write(tmp_path, "y.csv", "y\n" + "\n".join(["0.5"] * 10) + "\n")
    cfg = write(tmp_path, "run.cfg", BASE_CONFIG + f"data.file = {ycsv}\n")
    argv = ["estimate", "--config", cfg, "--predictor.variant=bayes-poly"]
    assert main(argv + ["--predictor.poly.m=5"]) == 0
    capsys.readouterr()
    assert main(argv + ["--predictor.poly.m=5", flag]) == 2
    assert message in capsys.readouterr().err
    assert main(argv) == 2
    assert "m = 50 is outside [1, 13]" in capsys.readouterr().err


def test_an_empty_measure_seed_is_a_config_error(tmp_path, capsys):
    ycsv = write(tmp_path, "y.csv", "y\n" + "\n".join(["0.5"] * 10) + "\n")
    cfg = write(tmp_path, "run.cfg", BASE_CONFIG + f"data.file = {ycsv}\n")
    assert main(["estimate", "--config", cfg, "--measure.seed="]) == 2
    assert "measure.seed: expected an integer, got ''" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate", "sweep", "design"])
def test_threads_key_is_rejected_where_nothing_reads_it(tmp_path, capsys, command):
    ycsv = write(tmp_path, "y.csv", "y\n" + "\n".join(["0.5"] * 10) + "\n")
    cfg = write(tmp_path, "run.cfg", BASE_CONFIG + f"data.file = {ycsv}\nthreads = 7\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "pool of reproduce" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["estimate", "--threads", "2"],
    ["sweep", "--threads", "2"],
    ["design", "--threads", "2"],
    ["reproduce", "fig1", "--seed", "3"],
    ["selftest", "--out", "x"],
    ["selftest", "--config", "x.cfg"],
])
def test_each_subcommand_takes_only_the_flags_it_reads(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_env_vars_are_the_flag_defaults(tmp_path, capsys, monkeypatch):
    ycsv = write(tmp_path, "y.csv", "y\n" + "\n".join(["0.5"] * 10) + "\n")
    cfg = write(tmp_path, "run.cfg", BASE_CONFIG + f"data.file = {ycsv}\n")
    monkeypatch.setenv("LOOISE_THREADS", "3")  # estimate takes no --threads
    monkeypatch.setenv("LOOISE_SEED", "5")
    assert main(["estimate", "--config", cfg]) == 0
    config = json.loads(capsys.readouterr().out)["manifest"]["config"]
    assert config["seed"] == "5" and "threads" not in config
    assert main(["estimate", "--config", cfg, "--seed", "6"]) == 0
    assert json.loads(capsys.readouterr().out)["manifest"]["config"]["seed"] == "6"


def test_reproduce_unknown_experiment(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["reproduce", "not-an-experiment", "--out", str(tmp_path)])


def test_reproduce_threads_default_to_the_cpus_the_process_may_use(tmp_path, capsys,
                                                                   monkeypatch):
    import looise.cli as cli

    seen = []
    monkeypatch.delenv("LOOISE_THREADS", raising=False)
    monkeypatch.setattr(numerics, "default_workers", lambda: 3)
    monkeypatch.setattr(cli, "run_experiment",
                        lambda name, outdir, threads: seen.append(threads) or {})
    assert main(["reproduce", "fig2", "--out", str(tmp_path)]) == 0
    assert main(["reproduce", "fig2", "--out", str(tmp_path), "--threads", "5"]) == 0
    capsys.readouterr()
    assert seen == [3, 5]


@pytest.mark.parametrize("source", ["flag", "key", "variable"])
@pytest.mark.parametrize("threads", ["0", "-4"])
def test_reproduce_threads_below_one_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                       source, threads):
    import looise.cli as cli

    monkeypatch.delenv("LOOISE_THREADS", raising=False)
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("ran"))
    argv = ["reproduce", "fig2", "--out", str(tmp_path)]
    if source == "flag":
        argv += ["--threads", threads]
    elif source == "key":
        argv += ["--config", write(tmp_path, "run.cfg", f"threads = {threads}\n")]
    else:
        monkeypatch.setenv("LOOISE_THREADS", threads)
    assert main(argv) == 2
    assert f"threads: expected at least 1, got {threads}" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_reproduce_rejects_keys_it_does_not_read(tmp_path, capsys, monkeypatch, source):
    import looise.cli as cli

    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("ran"))
    argv = ["reproduce", "table1", "--out", str(tmp_path)]
    if source == "flag":
        argv.append("--design.n=5")
    else:
        argv += ["--config", write(tmp_path, "run.cfg", "design.n = 5\nestimator.clamp = maybe\n")]
    assert main(argv) == 2
    assert "design.n: reproduce reads only threads" in capsys.readouterr().err


def test_reproduce_suppf1_structure(tmp_path, capsys):
    assert main(["reproduce", "suppF1", "--out", str(tmp_path), "--threads", "2"]) == 0
    capsys.readouterr()
    lines = (tmp_path / "suppF1.csv").read_text().strip().splitlines()
    assert lines[0] == "replication,ise_true,ise_loo,ise_blp,ise_blup"
    assert len(lines) == 11
    manifest = json.loads((tmp_path / "suppF1_manifest.json").read_text())
    assert manifest["n_reps"] == 10
    assert "seeds" in manifest


def test_reproduce_deterministic_outputs(tmp_path, capsys):
    # targets whose replications run on the pool give the same bytes for any size
    from looise.reproduce import run_fig7, run_suppF2

    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["reproduce", "suppF1", "--out", str(out1), "--threads", "1"]) == 0
    assert main(["reproduce", "suppF1", "--out", str(out2), "--threads", "4"]) == 0
    capsys.readouterr()
    run_fig7(str(out1), threads=1, n_designs=3)
    run_fig7(str(out2), threads=2, n_designs=3)
    run_suppF2(str(out1), threads=1, n_reps=3)
    run_suppF2(str(out2), threads=2, n_reps=3)
    for name in ("suppF1.csv", "fig7.csv", "suppF2.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_format_flag_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--format", "csv"])
    assert exc.value.code == 2


def test_env_var_overrides(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LOOISE_OUT", str(tmp_path / "envout"))
    assert main(["reproduce", "fig2"]) == 0
    capsys.readouterr()
    assert (tmp_path / "envout" / "fig2.csv").exists()


def test_selftest_command(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.startswith("[")]
    assert len(lines) >= 25
    assert all("pass" in ln for ln in lines)


def test_selftest_reports_failing_check_by_name(capsys, monkeypatch):
    import looise.selftest as st

    def broken():
        raise AssertionError("fixture corrupted")

    monkeypatch.setattr(st, "CHECKS", st.CHECKS + [("deliberately broken", broken)])
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] deliberately broken" in out
