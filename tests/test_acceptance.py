"""End-to-end acceptance checks. Each test prints one PASS/FAIL line
(run with `pytest -s` to see them on success)."""

import time

import numpy as np
import pytest

from neuralfgp import autodiff as ad
from neuralfgp import backtest, cli, fgp, icnn, market_data as md, training


def _report(num, name, ok, detail=""):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}: {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def full_run():
    """The reference walk-forward: 5-asset GBM, N=1000, default hyperparameters."""
    weights = md.normalize_to_weights(
        md.gbm_simulate(md.GbmConfig(n_assets=5, n_days=1000, seed=42))
    )
    cfg = backtest.WalkForwardConfig(seed=1042)
    t0 = time.monotonic()
    report = backtest.walk_forward(weights, cfg)
    return report, time.monotonic() - t0


def test_criterion_1_market_numeraire_identity(full_run):
    report, _ = full_run
    avg = report.average_log_return("Market")
    _report(1, "market-numeraire identity", abs(avg) < 1e-6, f"|{avg:.3e}| < 1e-6")


def test_criterion_2_window_counts(full_run):
    report, _ = full_run
    ok = (
        backtest.window_count(1000) == 39
        and backtest.window_count(1260) == 52
        and report.n_windows == 39
    )
    _report(2, "window counts", ok, "N=1000 -> K=39, N=1260 -> K=52")


def test_criterion_3_generic_map_equivalence():
    rng = np.random.default_rng(3)
    gens = [fgp.Generator("constant"), fgp.Generator("equal"), fgp.Generator("entropy")]
    gens += [fgp.Generator("diversity", p=p) for p in (0.3, 0.5, 0.8)]
    worst = 0.0
    for n in (2, 5, 10):
        X = rng.dirichlet(np.ones(n), 1000)
        for gen in gens:
            for x in X:
                via_map = fgp.raw_fgp_weights(fgp.analytic_grad_log_g(gen, x), x)
                err = np.abs(via_map - fgp.classical_weights(gen, x).pi).max()
                worst = max(worst, err)
    _report(3, "generic-map equivalence", worst < 1e-10, f"max abs err {worst:.3e}")


def test_criterion_4_autodiff_correctness():
    # full loss on (n=2, one hidden layer of width 2, T=3) vs central differences
    rng = np.random.default_rng(4)
    window = rng.dirichlet(np.ones(2), 4)
    cfg = training.TrainConfig()
    h = 1e-6
    worst = 0.0
    for trial in range(20):
        theta = icnn.project_constraints(icnn.init(2, (2,), seed=trial))
        _, grads = training.loss_gradients(theta, window, cfg)
        for name, arr in theta.arrays():
            flat = np.atleast_1d(np.asarray(arr)).reshape(-1)
            for i in range(flat.size):
                def at(eps):
                    vals = {k: np.array(v, dtype=np.float64) for k, v in theta.arrays()}
                    f = np.atleast_1d(vals[name]).reshape(-1)
                    f[i] += eps
                    vals[name] = f.reshape(np.shape(arr)) if np.ndim(arr) else f[0]
                    return training.loss(icnn.from_arrays(vals, theta.widths), window, cfg).total

                fd = (at(h) - at(-h)) / (2 * h)
                g = np.atleast_1d(grads[name]).reshape(-1)[i]
                worst = max(worst, abs(g - fd) / (1.0 + abs(fd)))

    # primitive-level check: scalar chain through exp/log/sqrt/softplus
    x = ad.param(np.array([0.7, -0.3]))
    y = ad.sum_(ad.sqrt(ad.exp(x) + 1.0) * ad.softplus(x)) + ad.dot(x, x)
    ad.backward(y)
    def scalar(v):
        return float(np.sum(np.sqrt(np.exp(v) + 1.0) * np.logaddexp(0.0, v)) + v @ v)
    prim_err = 0.0
    for i in range(2):
        e = np.zeros(2)
        e[i] = 1e-6
        fd = (scalar(np.array([0.7, -0.3]) + e) - scalar(np.array([0.7, -0.3]) - e)) / 2e-6
        prim_err = max(prim_err, abs(x.grad[i] - fd) / (1.0 + abs(fd)))

    ok = worst < 1e-4 and prim_err < 1e-6
    _report(4, "autodiff correctness", ok, f"loss rel err {worst:.3e}, primitive {prim_err:.3e}")


def test_criterion_5_icnn_convexity():
    rng = np.random.default_rng(5)
    worst = -np.inf
    for depth in (1, 2, 3):
        for width in (4, 16, 64):
            theta = icnn.project_constraints(icnn.init(5, (width,) * depth, seed=depth * 10 + width))
            X = rng.dirichlet(np.ones(5), 2000)
            for x, y in zip(X[::2], X[1::2]):
                fx = icnn.forward(theta, x)
                fy = icnn.forward(theta, y)
                fm = icnn.forward(theta, 0.5 * (x + y))
                worst = max(worst, fm - 0.5 * (fx + fy))
    _report(5, "ICNN midpoint convexity", worst <= 1e-10, f"max violation {worst:.3e}")


def test_criterion_6_self_financing_weights():
    rng = np.random.default_rng(6)
    gens = [fgp.Generator("constant"), fgp.Generator("equal"), fgp.Generator("entropy")]
    gens += [fgp.Generator("diversity", p=p) for p in (0.3, 0.5, 0.8)]
    gens += [fgp.Generator("neural", theta=icnn.init(5, (8, 8), seed=s)) for s in range(3)]
    worst_sum, worst_min = 0.0, np.inf
    for _ in range(200):
        x = rng.dirichlet(np.ones(5))
        for gen in gens:
            pi = fgp.weights(gen, x).pi  # PortfolioWeights enforces the invariant too
            worst_sum = max(worst_sum, abs(pi.sum() - 1.0))
            worst_min = min(worst_min, pi.min())
    ok = worst_sum < 1e-10 and worst_min > 0
    _report(6, "self-financing weights", ok, f"max |sum-1| {worst_sum:.3e}, min entry {worst_min:.3e}")


def test_criterion_7_master_equation_residual():
    dec = backtest.master_residual(fgp.Generator("constant"),
                                   md.normalize_to_weights(
                                       md.gbm_simulate(md.GbmConfig(n_assets=3, n_days=50, seed=0))
                                   ).weights)
    constant_exact = dec.residual == 0.0

    monotone = True
    detail = []
    for kind in ("equal", "entropy"):
        gen = fgp.Generator(kind)
        sums = {4: 0.0, 2: 0.0, 1: 0.0}
        for seed in range(5):
            fine = md.normalize_to_weights(
                md.gbm_simulate(md.GbmConfig(n_assets=3, n_days=241, dt=1.0 / 1008.0, seed=seed))
            ).weights
            for stride in (4, 2, 1):  # dt, dt/2, dt/4
                sums[stride] += abs(backtest.master_residual(gen, fine[::stride]).residual)
        monotone &= sums[1] < sums[2] < sums[4]
        detail.append(f"{kind} {sums[4]:.2e}>{sums[2]:.2e}>{sums[1]:.2e}")
    ok = constant_exact and monotone
    _report(7, "master-equation residual", ok,
            "constant exact 0; pooled seeds 0-4: " + "; ".join(detail))


def test_criterion_8_outperformance_direction(full_run):
    report, elapsed = full_run
    table = {label: report.average_log_return(label) for label in report.labels}
    fgp_avg = table["FGP"]
    ordering = ", ".join(f"{l}={v:.5f}" for l, v in sorted(table.items(), key=lambda kv: -kv[1]))
    ok = fgp_avg > 0.0 and elapsed < 15 * 60
    _report(8, "outperformance direction", ok,
            f"FGP avg {fgp_avg:.5f} > 0, {elapsed:.0f}s < 900s; ordering (reported): {ordering}")


def test_learned_fgp_return_matches_its_record(tmp_path):
    # criterion 8 checks only the sign; this pins what training learns at criterion 10's small
    # size, within perfbench's RECORD_TOL (1e-9), which allows for BLAS kernel differences
    argv = ["backtest", "--n", "3", "--days", "120", "--seed", "17", "--train-days", "40",
            "--test-days", "20", "--widths", "6", "--epochs", "5", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    fgp_avg = dict((label, avg) for label, avg, _ in backtest.read_summary_csv(tmp_path / "summary.csv"))["FGP"]
    assert abs(fgp_avg - -0.01138395128160319) <= 1e-9, repr(fgp_avg)


def test_criterion_9_no_lookahead():
    path = md.normalize_to_weights(md.gbm_simulate(md.GbmConfig(n_assets=3, n_days=260, seed=9)))
    cfg = backtest.WalkForwardConfig(
        widths=(8,), train=training.TrainConfig(epochs=10), seed=9
    )
    base = backtest.walk_forward(path, cfg)
    W = path.weights.copy()
    W[242:] = W[242:][::-1]  # rows strictly after the last test slice
    mutated = backtest.walk_forward(md.MarketWeightPath(path.dates, W, path.tickers), cfg)
    ok = all(
        np.array_equal(base.terminal[label], mutated.terminal[label]) for label in base.labels
    )
    _report(9, "no look-ahead", ok, "tail mutation leaves every V_Tk bit-identical")


def test_criterion_10_determinism(tmp_path):
    fast = ["--n", "3", "--days", "120", "--seed", "17", "--train-days", "40",
            "--test-days", "20", "--widths", "6", "--epochs", "5"]
    outs = []
    for tag in ("a", "b", "c", "d"):
        out = tmp_path / tag
        extra = ["--no-warm-start", "--jobs", "2"] if tag in ("c", "d") else []
        assert cli.main(["backtest"] + fast + extra + ["--out", str(out)]) == 0
        outs.append(out)
    serial_ok = (outs[0] / "summary.csv").read_bytes() == (outs[1] / "summary.csv").read_bytes()
    serial_ok &= (outs[0] / "windows.csv").read_bytes() == (outs[1] / "windows.csv").read_bytes()
    jobs_ok = (outs[2] / "summary.csv").read_bytes() == (outs[3] / "summary.csv").read_bytes()
    ok = serial_ok and jobs_ok
    _report(10, "determinism", ok, "byte-identical reruns, including --jobs 2")
