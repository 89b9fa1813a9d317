"""Self-test of the benchmark at tiny sizes (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def last_json(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["reference", "attribution", "fresh-parallel"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = last_json(bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace, "--size", "tiny"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in out["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"]) for v in out["metrics"].values())
    m = {k: v["value"] for k, v in out["metrics"].items()}
    if trace == "0":
        assert all(v > 0 for v in m.values())
    elif workload == "fresh-parallel":
        # recorded only inside forked pool workers, so these prove the spool works
        assert m["train_window_ms"] > 0 and m["tape_nodes"] > 0 and m["pool_busy_share"] > 0
    elif workload == "attribution":
        assert m["neural_weights_share"] > 0 and m["generator_hessian_share"] > 0
        assert m["attribution_residual_abs_mean"] > 0
    else:
        assert m["train_window_share"] > 0 and m["json_calls"] > 0


def test_benchmark_json_matches_run_tables():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.fixture
def tiny_backtest(tmp_path):
    wl = workloads.make("reference", 5, "tiny", str(tmp_path))
    out = str(tmp_path / "out")
    code, output = workloads.run_cli(wl.argv(out))
    assert code == 0, output
    assert not workloads.check_walk_forward(out, wl.expected_k).failed
    return Path(out), wl.expected_k


def rewrite(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_market_row_off_zero_fails_every_window(tiny_backtest):
    out, k = tiny_backtest
    summary = out / "summary.csv"
    market = next(line for line in summary.read_text().splitlines() if line.startswith("Market,"))
    rewrite(summary, market, f"Market,0.001,{k}")
    res = workloads.check_walk_forward(str(out), k)
    assert res.failed == set(range(k)) and "Market" in res.problems[0]


def test_bad_terminal_wealth_fails_its_window(tiny_backtest):
    out, k = tiny_backtest
    windows = out / "windows.csv"
    row = next(line for line in windows.read_text().splitlines() if line.startswith("2,EWP,"))
    rewrite(windows, row, "2,EWP,nan,nan")
    res = workloads.check_walk_forward(str(out), k)
    assert res.failed == {1}


def test_wrong_window_count_fails_every_window(tiny_backtest):
    out, k = tiny_backtest
    res = workloads.check_walk_forward(str(out), k + 1)
    assert res.failed == set(range(k + 1))


def test_non_finite_residual_fails_its_slice(tmp_path, monkeypatch):
    wl = workloads.make("attribution", 5, "tiny", str(tmp_path))
    wl.prepare()
    wl.setup_step()
    original = workloads.backtest.master_residual
    calls = []

    def corrupt(gen, X, **kw):
        calls.append(gen.kind)  # the first call belongs to slice 0
        d = original(gen, X, **kw)
        return dataclasses.replace(d, residual=math.nan) if len(calls) == 1 else d

    monkeypatch.setattr(workloads.backtest, "master_residual", corrupt)
    res = wl.run_unit(str(tmp_path / "unit"), run.contextlib.nullcontext, wl.yardstick())
    assert res.failed == {0} and res.windows == wl.expected_k


def test_outputs_that_change_between_repeats_fail(tmp_path):
    class Drifting:
        n = 0
        recorded = None
        yardstick = run.Yardstick

        def run_unit(self, out_dir, span, yard):
            self.n += 1
            return workloads.UnitResult(3, fingerprint=bytes([self.n]), fgp_avg_log_return=0.0)

    units = run.measure(Drifting(), 0, None, tmp_path)
    assert len(units) == 2 and not units[0].res.failed and units[1].res.failed == {0, 1, 2}


def test_output_off_the_record_fails(tmp_path):
    class Retrained:
        recorded = -6.5e-4
        yardstick = run.Yardstick

        def run_unit(self, out_dir, span, yard):
            return workloads.UnitResult(3, fingerprint=b"same", fgp_avg_log_return=self.recorded + 1e-8)

    units = run.measure(Retrained(), 0, None, tmp_path)
    assert all(u.res.failed == {0, 1, 2} and "recorded" in u.res.problems[0] for u in units)


def test_every_proof_seed_is_recorded():
    for w in SPEC["workloads"]:
        for seed in [*range(1, 11), 7331]:
            assert workloads.make(w["name"], seed, "full", "unused").recorded is not None


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("--workload", "reference", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout.strip() == ""
