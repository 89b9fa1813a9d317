"""neuralfgp benchmark: one workload, timed end to end, or traced per layer.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 56 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
  reference       `neuralfgp backtest` on simulated GBM data, warm start,
                  K=39 windows: the criterion-8 run with the seed as master seed
  attribution     one trained theta evaluated, with master-equation
                  attribution, over the 20-day slices of a 2520-row CSV
  fresh-parallel  `backtest --use-real --no-warm-start --jobs 2` on a
                  1260-row CSV; runnable, but not in BENCHMARK.json because
                  its run time is not steady (see BASELINE.json)

The measured phase repeats a unit of work (a whole backtest, or one pass
over all slices) while the next unit should end within --seconds, and at
least twice, so the outputs can be compared byte for byte: a reference
run is two backtests of 25-30 s each. The FGP average log return of every
unit must also match the value recorded for the seed (recorded.json, made
by record.py) to within workloads.RECORD_TOL, so a speed-up cannot change
what is learned unseen. windows_per_s is the median over units of windows
per second. A short yardstick burst runs after every window or slice, and
the rate outside the bursts is scaled to the yardstick's reference speed,
which cancels most of the host's drifting speed (see yardstick.py); the
raw rate is logged to standard error beside it. With --trace 0 it prints the
end-to-end metrics; with --trace 1 every second unit runs with the layer
functions wrapped in spans and it prints the per-layer metrics, writing the
spans to perfbench/.work/trace-<workload>.json. The last line of output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

The benchmark sets no BLAS thread variables: the thread use of numpy's BLAS
is the program's own behaviour.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from tracing import LAYERS, Tracer, self_times
from yardstick import Yardstick

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"
SETUP_REPEATS = 15
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import numpy; t = time.perf_counter(); "
    "import neuralfgp.cli; print(time.perf_counter() - t)"
)

END_TO_END = {
    "setup_s": "s",
    "windows_per_s": "1/s",
    "peak_rss_mb": "MB",
    "fgp_window_wealth": "ratio",
}
PER_LAYER = {
    # market_data
    "load_prices_csv_ms": "ms",
    "rows_parsed": "count",
    "gbm_simulate_ms": "ms",
    "normalize_ms": "ms",
    # autodiff
    "backward_ms": "ms/window",
    "backward_calls": "count/window",
    "tape_nodes": "count",
    # training
    "build_loss_ms": "ms/window",
    "loss_gradients_ms": "ms/window",
    "adam_step_ms": "ms/window",
    "train_window_ms": "ms/window",
    "epochs": "count/window",
    "best_epoch_share": "ratio",
    # icnn
    "json_roundtrip_ms": "ms/window",
    "json_calls": "count/window",
    "init_ms": "ms",
    "init_calls": "count/window",
    "forward_calls": "count/window",
    "load_ms": "ms",
    # fgp
    "neural_weights_ms": "ms/window",
    "neural_weights_calls": "count/window",
    "classical_weights_ms": "ms/window",
    "generator_hessian_ms": "ms/window",
    "generator_hessian_calls": "count/window",
    # backtest
    "window_ms.p50": "ms",
    "window_ms.tail": "ms",
    "window_ms.tail_pct": "%",
    "window_ms.samples": "count",
    "relative_wealth_ms.neural": "ms/window",
    "relative_wealth_ms.classical": "ms/window",
    "master_residual_ms": "ms/window",
    "pool_busy_share": "ratio",
    "write_reports_ms": "ms",
    # cli
    "self_ms": "ms",
    # where the time went, as shares of all traced busy time
    **{f"self_share.{layer}": "%" for layer in LAYERS + ("bench",)},
    "train_window_share": "%",
    "neural_weights_share": "%",
    "generator_hessian_share": "%",
    # outputs that a speed-up must not change
    "fgp_avg_log_return": "log",
    "attribution_residual_abs_mean": "log",
    # tracing overhead
    "windows_per_s.untraced": "1/s",
    "windows_per_s.traced": "1/s",
    "windows_per_s.raw": "1/s",
    "tracing_overhead": "%",
}


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


def import_seconds():
    """Time of `import neuralfgp.cli` in a fresh interpreter, numpy already imported."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True, text=True, timeout=120, check=True
    )
    return float(out.stdout.strip().splitlines()[-1])


def setup_rounds(wl, tracer, count, rounds, bursts):
    """Time `count` set-up rounds, each followed by a yardstick burst.

    A round is one import of the package in a fresh interpreter that has
    already imported numpy, plus one build of the market-weight path (and
    theta load). numpy's own import is left out: no change to this
    repository moves it, and on the baseline VM it drifted 2.5x within eight
    minutes, independently of the yardstick, while the package import and
    the build track the yardstick. Appends to `rounds` and `bursts`.
    """
    yard = Yardstick()
    with traced(tracer, "setup"):
        for _ in range(count):
            secs = import_seconds()
            t0 = time.perf_counter()
            wl.setup_step()
            rounds.append(secs + time.perf_counter() - t0)
            bursts.append(yard.burst())


@contextlib.contextmanager
def traced(tracer, phase):
    """Install the layer wrappers for one block when a tracer is given."""
    if tracer is None:
        yield
        return
    tracer.phase = phase
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()
        tracer.phase = None


@dataclass
class Unit:
    res: object  # workloads.UnitResult
    traced: bool
    raw_rate: float  # windows per second of wall time outside the bursts
    rate: float  # raw_rate at the yardstick's reference speed


def measure(wl, seconds, tracer, run_dir):
    """Repeat units while the next one should end within `seconds`, and at
    least twice. Returns [Unit]."""
    units = []
    start = time.perf_counter()
    longest = 0.0
    while len(units) < 2 or time.perf_counter() - start + longest <= seconds:
        on = tracer is not None and len(units) % 2 == 1
        out_dir = str(run_dir / f"unit{len(units)}")
        yard = wl.yardstick()
        with traced(tracer if on else None, "measure"):
            span = tracer.span if on else (lambda name: contextlib.nullcontext())
            t0 = time.perf_counter()
            with span("bench.unit"):
                res = wl.run_unit(out_dir, span, yard)
            secs = time.perf_counter() - t0
        longest = max(longest, secs)
        shutil.rmtree(out_dir, ignore_errors=True)
        raw = res.windows / (secs - yard.seconds)
        units.append(Unit(res, on, raw, raw * yard.scale()))
        log(f"unit {len(units)}: {res.windows} windows in {secs:.3f} s, {len(res.failed)} failed, "
            f"{raw:.4f}/s raw, {units[-1].rate:.4f}/s at reference speed" + (" (traced)" if on else ""))
    first = units[0].res
    for unit in units[1:]:
        if unit.res.fingerprint != first.fingerprint or unit.res.fgp_avg_log_return != first.fgp_avg_log_return:
            unit.res.fail_all("outputs differ from the first repeat with the same seed")
    if wl.recorded is None:
        log("no FGP average log return is recorded for this seed; it is checked only across repeats")
    else:
        for unit in units:
            unit.res.check_recorded(wl.recorded)
    return units


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def quantile_tail(values):
    """(p50, tail, tail percentile): tail has exactly 10 samples above it."""
    values = sorted(values)
    n = len(values)
    if n < 11:
        return median(values), median(values), 50.0
    return median(values), values[n - 11], 100.0 * (n - 10) / n


def layer_metrics(tracer, wl, units):
    """Per-layer metrics from the spans of the traced units (and set-up)."""
    spans = tracer.collect()
    selfs = self_times(spans)
    meas = [s for s in spans if s.phase == "measure"]
    by_name = defaultdict(list)
    for s in meas:
        by_name[s.name].append(s)
    every = defaultdict(list)
    for s in spans:
        every[s.name].append(s)
    windows = sum(u.res.windows for u in units if u.traced) or 1

    def per_window(*names):
        return sum(s.duration for n in names for s in by_name[n]) * 1e3 / windows

    def calls(*names):
        return sum(len(by_name[n]) for n in names) / windows

    def per_call(name):
        return median([s.duration * 1e3 for s in every[name]])

    # yardstick bursts are the benchmark's calibration, not work of any layer
    share = defaultdict(float)
    for s in meas:
        if s.name != "bench.yardstick":
            share[s.layer] += selfs[s.id]
    busy = sum(share.values())
    neural_parents = {s.parent for s in by_name["fgp.neural_weights"]}
    rw = by_name["backtest.relative_wealth"]
    trains = [s.attrs for s in by_name["training.train_window"]]
    p50, tail, tail_pct = quantile_tail([s.duration * 1e3 for s in by_name[wl.window_span]])
    pools = [
        sum(c.duration for c in by_name["backtest._run_window"] if c.parent == wf.id) / (wl.jobs * wf.duration)
        for wf in by_name["backtest.walk_forward"]
    ]
    reports = len(by_name["cli.main"])
    first = units[0].res

    m = {
        "load_prices_csv_ms": per_call("market_data.load_prices_csv"),
        "rows_parsed": median([s.attrs["rows"] for s in every["market_data.load_prices_csv"]]),
        "gbm_simulate_ms": per_call("market_data.gbm_simulate"),
        "normalize_ms": per_call("market_data.normalize_to_weights"),
        "backward_ms": per_window("autodiff.backward"),
        "backward_calls": calls("autodiff.backward"),
        "tape_nodes": tracer.facts.get("tape_nodes", 0),
        "build_loss_ms": per_window("training.build_loss"),
        "loss_gradients_ms": per_window("training.loss_gradients"),
        "adam_step_ms": per_window("training.adam_step"),
        "train_window_ms": per_window("training.train_window"),
        "epochs": sum(a["epochs"] for a in trains) / windows,
        "best_epoch_share": statistics.mean([(a["best"] + 1) / a["epochs"] for a in trains]) if trains else 0.0,
        "json_roundtrip_ms": per_window("icnn.to_json", "icnn.from_json"),
        "json_calls": calls("icnn.to_json", "icnn.from_json"),
        "init_ms": per_call("icnn.init"),
        "init_calls": calls("icnn.init"),
        "forward_calls": tracer.counts[("measure", "icnn.forward")] / windows,
        "load_ms": per_call("icnn.load"),
        "neural_weights_ms": per_window("fgp.neural_weights"),
        "neural_weights_calls": calls("fgp.neural_weights"),
        "classical_weights_ms": per_window("fgp.classical_weights"),
        "generator_hessian_ms": per_window("fgp.generator_hessian"),
        "generator_hessian_calls": calls("fgp.generator_hessian"),
        "window_ms.p50": p50,
        "window_ms.tail": tail,
        "window_ms.tail_pct": tail_pct,
        "window_ms.samples": len(by_name[wl.window_span]),
        "relative_wealth_ms.neural": sum(s.duration for s in rw if s.id in neural_parents) * 1e3 / windows,
        "relative_wealth_ms.classical": sum(s.duration for s in rw if s.id not in neural_parents) * 1e3 / windows,
        "master_residual_ms": per_window("backtest.master_residual"),
        "pool_busy_share": statistics.mean(pools) if pools else 0.0,
        "write_reports_ms": per_window("backtest.write_window_csv", "backtest.write_summary_csv") * windows / reports
        if reports else 0.0,
        "self_ms": median([selfs[s.id] * 1e3 for s in every["cli.main"]]),
        **{f"self_share.{layer}": 100.0 * share[layer] / busy for layer in LAYERS + ("bench",)},
        "train_window_share": 100.0 * per_window("training.train_window") * windows / 1e3 / busy,
        "neural_weights_share": 100.0 * per_window("fgp.neural_weights") * windows / 1e3 / busy,
        "generator_hessian_share": 100.0 * per_window("fgp.generator_hessian") * windows / 1e3 / busy,
        "fgp_avg_log_return": first.fgp_avg_log_return if first.fgp_avg_log_return is not None else 0.0,
        "attribution_residual_abs_mean": statistics.mean(abs(r) for r in first.residuals) if first.residuals else 0.0,
        "windows_per_s.untraced": median([u.rate for u in units if not u.traced]),
        "windows_per_s.traced": median([u.rate for u in units if u.traced]),
        "windows_per_s.raw": median([u.raw_rate for u in units if not u.traced]),
    }
    m["tracing_overhead"] = 100.0 * (m["windows_per_s.untraced"] / m["windows_per_s.traced"] - 1.0)
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("reference", "attribution", "fresh-parallel"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the self-test")
    args = ap.parse_args(argv)

    if not (SRC / "neuralfgp" / "__init__.py").is_file():
        print(f"perfbench: no neuralfgp package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if Path(workloads.cli.__file__).resolve().parent != SRC / "neuralfgp":
        print(f"perfbench: imported neuralfgp from {workloads.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir = WORK / f"run-{run_id}"
    run_dir.mkdir(parents=True)
    try:
        tracer = Tracer(run_id, str(run_dir)) if args.trace else None
        wl = workloads.make(args.workload, args.seed, args.size, str(run_dir))
        wl.prepare()
        # half the set-up rounds before the measured phase and half after, so
        # that set-up samples the host's speed over the whole run
        rounds, bursts = [], []
        setup_rounds(wl, tracer, SETUP_REPEATS - SETUP_REPEATS // 2, rounds, bursts)
        units = measure(wl, args.seconds, tracer, run_dir)
        setup_rounds(wl, tracer, SETUP_REPEATS // 2, rounds, bursts)
        setup_s = median(rounds) * Yardstick.REF_S / median(bursts)
        log(f"{args.workload} seed {args.seed}: set-up {setup_s:.4f} s at the yardstick's reference speed, "
            f"{median(rounds):.4f} s raw")
        plain = [u for u in units if not u.traced]
        log(f"windows_per_s {median([u.rate for u in plain]):.4f} at the yardstick's reference speed, "
            f"{median([u.raw_rate for u in plain]):.4f} raw")
        if tracer is None:
            avg = units[0].res.fgp_avg_log_return
            metrics = {
                "setup_s": setup_s,
                "windows_per_s": median([u.rate for u in units]),
                "peak_rss_mb": peak_rss_mb(),
                "fgp_window_wealth": math.exp(avg) if avg is not None else 0.0,
            }
            units_of = END_TO_END
        else:
            metrics = layer_metrics(tracer, wl, units)
            tracer.write(str(WORK / f"trace-{args.workload}.json"))
            units_of = PER_LAYER
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(u.res.windows for u in units)
    failed = sum(len(u.res.failed) for u in units)
    for u in units:
        for problem in u.res.problems[:5]:
            log(f"check failed: {problem}")
    print(json.dumps({
        "correct": failed == 0 and not any(u.res.problems for u in units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units_of.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
