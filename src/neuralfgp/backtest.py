"""Relative-wealth computation, walk-forward evaluation and master-equation
diagnostics.

Window layout follows the reported count K = (N - (train + test)) / test with
integer division: window k trains on rows [k*test, k*test + train] and is
evaluated on the following test-day slice, each window's relative wealth
restarting at 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fgp, icnn
from .errors import ConfigError, DataError, NumericError, bounded, check_fields
from .market_data import MarketWeightPath, read_csv, write_csv
from .training import TrainConfig, train_window


@dataclass(frozen=True)
class RelativeWealthPath:
    """V_t = strategy wealth over market wealth, V_0 = 1."""

    v: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=np.float64)
        # one test; a failure then says which check fails
        if not (v.ndim == 1 and v.size and v[0] == 1.0 and np.minimum.reduce(v, axis=None) > 0.0):
            if v.ndim != 1 or not v.size:
                raise NumericError(f"relative wealth must be a nonempty 1-d path, got shape {v.shape}")
            if v[0] != 1.0:
                raise NumericError("relative wealth must start at 1")
            raise NumericError("relative wealth must stay positive")
        object.__setattr__(self, "v", v)

    @property
    def terminal(self):
        return float(self.v[-1])


def relative_wealth(weights_fn, weights_matrix) -> RelativeWealthPath:
    """Exact product recursion; weights_fn maps the rows 0..T-1 in one call, so step s sees row s - 1 only."""
    W = fgp.check_path(weights_matrix)
    return RelativeWealthPath(_wealth(weights_fn(W[:-1]).pi, W))


# a zero or non-finite entry of W ends in a step return that is 0, inf or NaN, and every overflow
# in inf: a check below reports each, never numpy's warning
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _wealth(pi, W):
    """relative_wealth's core: V at the rows of a float64 path W (T+1, n) under the weights pi
    (T, n), neither checked. The step returns are: DataError if one is not finite and positive,
    as a zero or non-finite entry of W makes it. So is V: NumericError if it overflows to inf or
    underflows to 0."""
    # row-wise dot as a stack of (1, n) @ (n, 1) products: the same dot per row as pi @ ratio
    r = (pi[:, None, :] @ (W[1:] / W[:-1])[:, :, None]).ravel()
    # a NaN fails both
    if not (np.minimum.reduce(r, initial=np.inf) > 0.0 and np.maximum.reduce(r, initial=0.0) < np.inf):
        bad = np.flatnonzero(~(np.isfinite(r) & (r > 0)))
        raise DataError(f"non-positive or non-finite relative return at step {bad[0] + 1}")
    v = np.empty(r.size + 1)
    v[0] = 1.0
    np.multiply.accumulate(r, out=v[1:])  # V_s = r_1 ... r_s, the same products as a cumprod from 1
    # every step is finite and positive, so an overflow to inf or an underflow to 0 lasts to V_T
    if not 0.0 < v[-1] < np.inf:
        raise NumericError("relative wealth must stay " + ("positive" if v[-1] == 0.0 else "finite"))
    return v


@dataclass(frozen=True)
class WalkForwardConfig:
    train_days: int = bounded(200, 2)
    test_days: int = bounded(20, 1)
    p_vals: tuple = (0.3, 0.5, 0.8)
    widths: tuple = (64, 64)
    train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = bounded(0, 0)
    warm_start: bool = True  # each window starts from the previous window's trained theta
    jobs: int = bounded(1, 1)

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "widths", icnn.check_widths(self.widths))
        object.__setattr__(self, "p_vals", tuple(self.p_vals))
        if self.jobs > 1 and self.warm_start:
            raise ConfigError("--jobs needs --no-warm-start: warm-started windows run in sequence")
        labels = [gen.label for gen in self.strategies()]  # fgp.Generator checks each p_vals entry
        if shared := sorted({label for label in labels if labels.count(label) > 1}):  # the report keys rows by label
            raise ConfigError(f"p_vals {self.p_vals} give two strategies the label {shared[0]!r}")

    def strategies(self):
        """The classical benchmark generators, in report order after the FGP."""
        gens = [fgp.Generator("equal"), fgp.Generator("constant")]
        gens += [fgp.Generator("diversity", p=p) for p in self.p_vals]
        return gens


@dataclass(frozen=True)
class WalkForwardReport:
    labels: tuple
    terminal: dict  # label -> np.ndarray of V_{T_k}, k = 1..K
    boundaries: tuple  # (train_start, test_start, test_end) per window

    @property
    def n_windows(self):
        return len(self.boundaries)

    def average_log_return(self, label):
        return float(np.mean(np.log(self.terminal[label])))


def window_count(n_rows, train_days=WalkForwardConfig.train_days, test_days=WalkForwardConfig.test_days):
    """K = (N - (train + test)) // test; data too short for one window is a DataError."""
    k = (n_rows - (train_days + test_days)) // test_days
    if k < 1:
        raise DataError(
            f"need more than {train_days + test_days} rows for one walk-forward window, got {n_rows}"
        )
    return k


def _run_window(args):
    """Train and evaluate one window; returns (terminals, trained theta as JSON, or None without warm start).

    theta0_json None trains from a fresh init seeded by the window index. The slices are only
    read, never written: walk_forward hands them over as views of the path.
    Top-level so process pools can pickle it.
    """
    train_slice, test_slice, cfg, window_index, theta0_json = args
    if theta0_json is None:
        theta0 = icnn.init(train_slice.shape[1], cfg.widths, seed=cfg.seed + window_index)
    else:
        theta0 = icnn.from_json(theta0_json)
    theta, _ = train_window(theta0, train_slice, cfg.train)
    terminals = {}
    for gen in [fgp.Generator("neural", theta=theta)] + cfg.strategies():
        terminals[gen.label] = relative_wealth(lambda x, g=gen: fgp.weights(g, x), test_slice).terminal
    return terminals, icnn.to_json(theta) if cfg.warm_start else None


# OpenBLAS thread-count setters, by the names numpy's bundled builds have exported
BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_", "openblas_set_num_threads")


def _one_blas_thread():
    """Pool initializer: run numpy's bundled OpenBLAS on one thread in this worker, so that jobs
    workers do not each start a BLAS thread per core. Does nothing when no setter is found.
    Results do not depend on the thread count."""
    import ctypes
    import glob
    import os

    root = os.path.dirname(np.__file__)  # wheels bundle the library in numpy.libs, numpy/.libs or numpy/.dylibs
    for lib_path in glob.glob(root + ".libs/*openblas*") + glob.glob(root + "/.*libs/*openblas*"):
        try:
            lib = ctypes.CDLL(lib_path)  # numpy has loaded it already, so this is the same library
        except OSError:
            continue
        for name in BLAS_THREAD_SETTERS:
            if hasattr(lib, name):
                setter = getattr(lib, name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                return


def walk_forward(path: MarketWeightPath, cfg: WalkForwardConfig) -> WalkForwardReport:
    """Roll the train/test window over the path; every strategy sees the same slices.

    Each window gets row-slice views of path.weights, not copies: _run_window only reads its
    slices, and a view pickles only its own rows for a --jobs worker."""
    W = path.weights
    K = window_count(W.shape[0], cfg.train_days, cfg.test_days)
    boundaries = []
    jobs_args = []
    for k in range(K):
        start = k * cfg.test_days
        test_start = start + cfg.train_days
        test_end = test_start + cfg.test_days
        boundaries.append((start, test_start, test_end))
        # test slice includes its left edge so the first test ratio is defined
        jobs_args.append((W[start : test_start + 1], W[test_start : test_end + 1], cfg, k))

    if cfg.jobs == 1:
        results = []
        theta_json = None
        for args in jobs_args:
            terminals, theta_json = _run_window(args + (theta_json,))
            results.append(terminals)
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a parallel run needs the pool
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=min(cfg.jobs, K), initializer=_one_blas_thread) as pool:
                results = [terminals for terminals, _ in pool.map(_run_window, [a + (None,) for a in jobs_args])]
        except BrokenProcessPool:  # a worker was killed, e.g. by the system for its memory
            raise ConfigError(f"a worker of --jobs {cfg.jobs} died before its window finished; "
                              "try fewer --jobs") from None

    labels = tuple(results[0])
    terminal = {label: np.array([terminals[label] for terminals in results]) for label in labels}
    return WalkForwardReport(labels, terminal, tuple(boundaries))


def summarize(report: WalkForwardReport):
    """Per strategy, the average terminal log relative return over the K windows."""
    return [
        (label, report.average_log_return(label), report.n_windows) for label in report.labels
    ]


@dataclass(frozen=True)
class MasterDecomposition:
    """Pathwise split of log relative wealth into the G ratio plus drift."""

    log_v: float
    log_g_ratio: float
    drift_integral: float
    residual: float


def master_residual(gen: fgp.Generator, weights_matrix) -> MasterDecomposition:
    """Discrete check of the pathwise decomposition for one generator.

    The drift increment at step s is -1/(2G) sum_ij H_ij x_i x_j d_tau_ij at the
    left endpoint, d_tau the realized covariation increment of the step. The
    constant generator is exact: V is identically 1 and both terms vanish. The weights and
    Hessian at rows 0..T-1 and G at all T+1 rows come from one fgp.path_map of the slice, so a
    neural generator's ICNN runs once and a classical slice is checked at most twice. The slice is
    held to fgp.check_path and fgp.check_positive for every kind, the constant one included. log V
    comes from relative_wealth's core, so it has relative_wealth's bits; the weights are checked as
    PortfolioWeights, and the core checks the step returns and the wealth.
    """
    W = fgp.check_path(weights_matrix)
    if gen.kind == "constant":
        fgp.check_positive(W)
        return MasterDecomposition(0.0, 0.0, 0.0, 0.0)
    pi, G, H = fgp.path_map(gen, W)
    log_v = float(np.log(_wealth(fgp.PortfolioWeights(pi).pi, W)[-1]))
    log_g_ratio = float(np.log(G[-1] / G[0]))

    log_w = np.log(W)
    x_dlog = W[:-1] * (log_w[1:] - log_w[:-1])
    drift = float(np.einsum("s,sij,si,sj->", -0.5 / G[:-1], H, x_dlog, x_dlog))
    residual = log_v - log_g_ratio - drift
    if not np.isfinite(residual):
        raise NumericError("master decomposition produced a non-finite residual")
    return MasterDecomposition(log_v, log_g_ratio, drift, residual)


# ---------------------------------------------------------------------------
# report output
# ---------------------------------------------------------------------------


def write_window_csv(path, report: WalkForwardReport):
    rows = (
        (k + 1, label, report.terminal[label][k], np.log(report.terminal[label][k]))
        for k in range(report.n_windows)
        for label in report.labels
    )
    write_csv(path, ["window", "strategy", "V_Tk", "log_V_Tk"], rows)


def write_summary_csv(path, report: WalkForwardReport):
    write_csv(path, ["strategy", "avg_log_relative_return", "K"], summarize(report))


def read_summary_csv(path):
    reader = read_csv(path)
    header = next(reader, None)
    if header != ["strategy", "avg_log_relative_return", "K"]:
        raise DataError(f"{path}: unexpected summary header {header}")
    rows = []
    for row in reader:
        try:
            label, avg, k = row
            rows.append((label, float(avg), int(k)))
        except ValueError as exc:  # a non-numeric cell, or a row of other than 3 cells
            raise DataError(f"{path}: malformed summary: {exc}") from None
        if not (np.isfinite(rows[-1][1]) and rows[-1][2] >= 1):  # a row that no backtest writes
            raise DataError(f"{path}: summary row {len(rows)} ({label}): average {avg} and K {k} must be finite and >= 1")
    if not rows:
        raise DataError(f"{path}: no strategy rows")
    return rows


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f")
SVG_WIDTH, SVG_HEIGHT = 880, 460  # chart size in px


def write_svg(path, report: WalkForwardReport):
    """Single-file line chart of per-window terminal relative wealth."""
    width, height, pad = SVG_WIDTH, SVG_HEIGHT, 60
    ks = np.arange(1, report.n_windows + 1)
    all_v = np.concatenate([report.terminal[l] for l in report.labels])
    lo, hi = float(all_v.min()), float(all_v.max())
    span = (hi - lo) or 1.0
    lo, hi = lo - 0.05 * span, hi + 0.05 * span

    def sx(k):
        return pad + (k - 1) / max(report.n_windows - 1, 1) * (width - 2 * pad)

    def sy(v):
        return height - pad - (v - lo) / (hi - lo) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - pad // 3}" text-anchor="middle" font-size="13">walk-forward window k</text>',
        f'<text x="{pad // 3}" y="{height // 2}" text-anchor="middle" font-size="13" transform="rotate(-90 {pad // 3} {height // 2})">terminal relative wealth V_Tk</text>',
    ]
    for i, label in enumerate(report.labels):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        pts = " ".join(f"{sx(k):.2f},{sy(v):.2f}" for k, v in zip(ks, report.terminal[label]))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        parts.append(
            f'<text x="{width - pad + 6}" y="{pad + 16 * i}" font-size="12" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
