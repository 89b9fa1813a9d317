"""The benchmark's tracer wraps program functions by name; a rename must fail here, not in a traced run.

The per-window span times of `training.loss_gradients` and `training.adam_step`
hold only while `train_window` reaches them through those module names.

The benchmark's self-test also reads facts that only some calls produce: the
tape size from the result of `training.build_loss`, and the JSON hand-over of
theta between warm-started windows. A change that stops those calls must fail
here too.

Four layering rules are checked on the source: only `icnn` reads a `Work` set's arrays;
`backtest` evaluates a generator through `fgp.path_map`, not through the maps it is built on;
the neural G floor is read only where it is applied or masks a gradient; and no function forms
the ICNN's Hessian, which is a test oracle only.

Every committed `BENCH_*.json` record must parse and give, for each workload it lists, every
end-to-end metric of `BENCHMARK.json` with the parent's and the change's runs pair by pair.
"""

import ast
import concurrent.futures
import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from neuralfgp import backtest, fgp, icnn, market_data, training

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tables = (tracing.SPANNED, tracing.COUNTED)
    return [f"{layer}.{func}" for table in tables for layer, funcs in table.items() for func in funcs]


@pytest.mark.parametrize("name", traced_names())
def test_traced_function_resolves(name):
    layer, func = name.split(".")
    assert callable(getattr(importlib.import_module(f"neuralfgp.{layer}"), func, None)), name


@pytest.mark.parametrize("record", sorted(path.name for path in ROOT.glob("BENCH_*.json")))
def test_bench_record_holds_every_end_to_end_metric_per_workload(record):
    # a perf change's committed record: for each workload it lists, every end-to-end metric of
    # BENCHMARK.json, with the parent's and the change's summaries and the runs pair by pair
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    bench = json.loads((ROOT / record).read_text())
    assert bench["workloads"]
    for name, workload in bench["workloads"].items():
        for metric in metrics:
            entry = workload["metrics"][metric]
            assert {"parent", "change", "per_pair"} <= entry.keys(), (name, metric)
            assert len(entry["per_pair"]) == workload["pairs"] and all(len(pair) == 2 for pair in entry["per_pair"])


def test_only_icnn_reads_work_arrays():
    # a Work array read off a `work` name or a `.work` attribute anywhere outside icnn
    src = Path(icnn.__file__).parent
    reads = [
        f"{path.name}:{node.lineno}: .{node.attr}"
        for path in sorted(src.glob("*.py"))
        if path.name != "icnn.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("Z", "S", "A", "D", "P", "E")
        and (isinstance(node.value, ast.Name) and node.value.id == "work"
             or isinstance(node.value, ast.Attribute) and node.value.attr == "work")
    ]
    assert reads == []


def names_read(tree):
    """Every name a parsed source reads: bare names, and attributes such as fgp.path_map."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


def functions_reading(name):
    """{(module, function)} of each function under src/neuralfgp that reads name."""
    return {
        (path.stem, func.name)
        for path in sorted(Path(icnn.__file__).parent.glob("*.py"))
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(func, ast.FunctionDef) and name in names_read(func)
    }


def test_backtest_evaluates_generators_through_path_map():
    # master_residual reads every kind's weights, G and drift from one fgp.path_map, so backtest
    # names none of the maps it is built on; and fgp evaluates the ICNN only through neural_map
    backtest_names = names_read(ast.parse(Path(backtest.__file__).read_text(encoding="utf-8")))
    assert "path_map" in backtest_names
    assert not backtest_names & {"neural_map", "input_curvature", "generator_hessian", "classical_map"}
    assert "forward" not in names_read(ast.parse(Path(fgp.__file__).read_text(encoding="utf-8")))


def test_g_floor_is_read_only_where_it_is_applied_or_masks_a_gradient():
    # the floor is applied once in numpy (neural_map) and once on the tape (build_loss, the
    # training oracle); neural_map_adjoint reads it for the mask that passes the gradient
    assert functions_reading("G_FLOOR") == {
        ("fgp", "neural_map"), ("fgp", "neural_map_adjoint"), ("training", "build_loss"),
    }


def counting(monkeypatch, module, name):
    """Rebind module.name to a wrapper that records each call; returns the call list."""
    calls = []
    func = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return func(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_train_window_builds_the_loss_graph_once(monkeypatch):
    calls = counting(monkeypatch, training, "build_loss")
    window = np.random.default_rng(0).dirichlet(np.ones(3), 11)
    training.train_window(icnn.init(3, (4,), seed=0), window, training.TrainConfig(epochs=3))
    assert calls == ["build_loss"]


def test_train_window_takes_one_gradient_and_one_step_per_epoch(monkeypatch):
    assert {"training.loss_gradients", "training.adam_step"} <= set(traced_names())
    gradients = counting(monkeypatch, training, "loss_gradients")
    steps = counting(monkeypatch, training, "adam_step")
    window = np.random.default_rng(0).dirichlet(np.ones(3), 11)
    cfg = training.TrainConfig(epochs=4)
    training.train_window(icnn.init(3, (4,), seed=0), window, cfg)
    assert len(gradients) == len(steps) == cfg.epochs


def test_train_window_builds_its_parameter_buffers_once_per_window(monkeypatch):
    # the gradient, the iterate and the best theta are the window's; an epoch builds none
    window = np.random.default_rng(0).dirichlet(np.ones(3), 11)
    theta0 = icnn.init(3, (4, 5), seed=0)
    builds = counting(monkeypatch, icnn, "ICNNParams")
    counts = []
    for epochs in (3, 12):
        builds.clear()
        training.train_window(theta0, window, training.TrainConfig(epochs=epochs))
        counts.append(len(builds))
    assert counts[0] == counts[1] > 0


def test_warm_started_walk_forward_hands_theta_over_as_json(monkeypatch):
    to_json = counting(monkeypatch, icnn, "to_json")
    from_json = counting(monkeypatch, icnn, "from_json")
    prices = market_data.gbm_simulate(market_data.GbmConfig(n_assets=3, n_days=60, seed=1))
    path = market_data.normalize_to_weights(prices)
    cfg = backtest.WalkForwardConfig(train_days=20, test_days=10, widths=(3,), train=training.TrainConfig(epochs=2))
    assert cfg.warm_start
    report = backtest.walk_forward(path, cfg)
    assert report.n_windows > 1
    assert to_json and from_json


def thread_pool(max_workers, initializer=None):
    """A thread pool in the process pool's place, so calls made inside a window are counted. It
    drops the initializer, which would run BLAS on one thread in this process for good."""
    return concurrent.futures.ThreadPoolExecutor(max_workers)


@pytest.mark.parametrize("jobs", [1, 2])
def test_walk_forward_without_warm_start_makes_no_json(monkeypatch, jobs):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", thread_pool)
    to_json = counting(monkeypatch, icnn, "to_json")
    prices = market_data.gbm_simulate(market_data.GbmConfig(n_assets=3, n_days=60, seed=1))
    path = market_data.normalize_to_weights(prices)
    cfg = backtest.WalkForwardConfig(train_days=20, test_days=10, widths=(3,), train=training.TrainConfig(epochs=2),
                                     warm_start=False, jobs=jobs)
    report = backtest.walk_forward(path, cfg)
    assert report.n_windows > 1
    assert to_json == []


def test_neural_master_residual_runs_the_icnn_once(monkeypatch):
    # one neural_map of all T+1 rows serves the weights, G and the curvature along each step
    gen = fgp.Generator("neural", theta=icnn.init(3, (4, 4), seed=0))
    W = np.random.default_rng(0).dirichlet(np.ones(3), 21)
    layers = counting(monkeypatch, icnn, "forward_layers")
    gradients = counting(monkeypatch, icnn, "input_gradient")
    curvatures = counting(monkeypatch, icnn, "input_curvature")
    works = counting(monkeypatch, icnn, "Work")
    backtest.master_residual(gen, W)
    assert (len(layers), len(gradients), len(curvatures), len(works)) == (1, 1, 1, 1)


def test_src_forms_no_hessian_of_the_icnn():
    # the neural drift is one forward-mode pass; the whole Hessian of f is a test oracle only
    defined = {
        node.name
        for path in sorted(Path(icnn.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
    }
    assert "input_curvature" in defined
    assert not defined & {"input_hessian", "neural_hessian"}


@pytest.mark.parametrize("gen", [fgp.Generator("equal"), fgp.Generator("diversity", p=0.5)], ids=lambda g: g.label)
def test_classical_master_residual_checks_its_slice_at_most_twice(monkeypatch, gen):
    # one fgp.path_map serves the weights, G and the drift; its Hessian still comes through
    # the public generator_hessian, whose span the benchmark's attribution share reads
    assert "fgp.generator_hessian" in traced_names()
    W = np.random.default_rng(0).dirichlet(np.ones(5), 21)
    checks = counting(monkeypatch, fgp, "check_positive")
    hessians = counting(monkeypatch, fgp, "generator_hessian")
    backtest.master_residual(gen, W)
    assert len(checks) <= 2 and len(hessians) == 1


def test_entropy_grad_log_g_checks_its_point_once(monkeypatch):
    checks = counting(monkeypatch, fgp, "check_positive")
    fgp.analytic_grad_log_g(fgp.Generator("entropy"), np.random.default_rng(0).dirichlet(np.ones(5), 21))
    assert len(checks) == 1


def blas_threads():
    """The thread count of numpy's bundled OpenBLAS, or None when no getter is found."""
    import ctypes
    import glob
    import os

    root = os.path.dirname(np.__file__)
    for path in glob.glob(root + ".libs/*openblas*") + glob.glob(root + "/.*libs/*openblas*"):
        lib = ctypes.CDLL(path)
        for name in backtest.BLAS_THREAD_SETTERS:
            if hasattr(lib, name.replace("_set_", "_get_")):
                getter = getattr(lib, name.replace("_set_", "_get_"))
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter()
    return None


def test_walk_forward_pool_workers_run_blas_on_one_thread(monkeypatch):
    threads = blas_threads()
    if threads is None:
        pytest.skip("numpy's bundled libraries export no known OpenBLAS thread getter")
    seen = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        """walk_forward's own pool, asked for its worker's BLAS thread count once it is up."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            seen.append(self.submit(blas_threads).result())

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    prices = market_data.gbm_simulate(market_data.GbmConfig(n_assets=3, n_days=60, seed=1))
    cfg = backtest.WalkForwardConfig(train_days=20, test_days=10, widths=(3,), train=training.TrainConfig(epochs=2),
                                     warm_start=False, jobs=2)
    backtest.walk_forward(market_data.normalize_to_weights(prices), cfg)
    assert seen == [1]
    assert blas_threads() == threads  # the parent keeps its own count
