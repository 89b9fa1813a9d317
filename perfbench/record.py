"""Record, per seed, the FGP average log return one full-size unit produces.

    python3 perfbench/record.py reference 0-31 7331

run.py counts a run whose value is further than workloads.RECORD_TOL from
the recorded one as failed, so a change cannot alter what the program
learns without the output checks noticing. Re-record only in a change that
is meant to alter it. Seeds are single integers or inclusive ranges a-b.
"""

from __future__ import annotations

import contextlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402


def seeds(args):
    for arg in args:
        lo, _, hi = arg.partition("-")
        yield from range(int(lo), int(hi or lo) + 1)


def main(name, *seed_args):
    values = {}
    for seed in seeds(seed_args):
        with tempfile.TemporaryDirectory(dir=HERE) as work:
            wl = workloads.make(name, seed, "full", work)
            wl.prepare()
            wl.setup_step()
            res = wl.run_unit(str(Path(work) / "unit"), lambda span: contextlib.nullcontext(), wl.yardstick())
        if res.failed or res.fgp_avg_log_return is None:
            raise SystemExit(f"{name} seed {seed} failed its output checks: {res.problems[:3]}")
        values[str(seed)] = res.fgp_avg_log_return
        print(f"{name} {seed} {res.fgp_avg_log_return!r}", flush=True)
    recorded = json.loads(workloads.RECORD.read_text()) if workloads.RECORD.exists() else {}
    recorded.setdefault(name, {}).update(values)
    recorded[name] = dict(sorted(recorded[name].items(), key=lambda kv: int(kv[0])))
    workloads.RECORD.write_text(json.dumps(recorded, indent=1) + "\n")


if __name__ == "__main__":
    main(*sys.argv[1:])
