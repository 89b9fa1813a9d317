"""Mutation sweep: change one check at a time and see which changes the test suite misses.

Each mutant changes one site in errors, fgp, icnn, training, backtest, market_data or cli, in one
of four families:

- a comparison flips: `<` and `<=`, `>` and `>=`, `==` and `!=` swap
- `np.maximum` and `np.minimum` swap, in a call and in a reduction (`np.maximum.reduce(...)`)
- an `np.isfinite(...)` or `math.isfinite(...)` call is forced true, as `(np.isfinite(...) | True)`
- `and` and `or` swap, at every operator of one boolean expression

The suite runs on each mutant with `-x`, its test files ordered fastest first (as timed on the
unmutated tree), so most mutants die within seconds. A mutant that the suite passes survives
and is listed at the end.

    python tools/mutation_sweep.py

The sweep tests two mutants at a time, each in its own temporary copy of the repository, and
never writes to the tree it is run from. Each copy runs the suite with OPENBLAS_NUM_THREADS=1,
so the two do not oversubscribe the cores. It uses the standard library only and is not part
of CI: on two cores the whole sweep (142 mutants) takes 7 to 10 minutes.
"""

from __future__ import annotations

import ast
import os
import queue
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("errors", "fgp", "icnn", "training", "backtest", "market_data", "cli")
JOBS = 2  # mutants tested at once, one suite each
FLIPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
         ast.Eq: ("==", "!="), ast.NotEq: ("!=", "==")}
SWAPS = {"maximum": "minimum", "minimum": "maximum"}
BOOL_SWAPS = {ast.And: ("and", "or"), ast.Or: ("or", "and")}
COPY_IGNORE = shutil.ignore_patterns(".git", ".work", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info")


def _offset(lines, lineno, col):
    """Byte offset in the file of an AST (lineno, col_offset) position; AST columns count bytes."""
    return sum(len(line) for line in lines[: lineno - 1]) + col


def mutants(source: bytes):
    """(description, mutated source) for every mutable site, in source order."""
    lines = source.splitlines(keepends=True)
    sites = []  # (offset of the first edit, line, description, [(start, stop, replacement bytes)])
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            left = node.left
            for op, right in zip(node.ops, node.comparators):
                if type(op) in FLIPS:
                    old, new = FLIPS[type(op)]
                    start = _offset(lines, left.end_lineno, left.end_col_offset)
                    gap = source[start : _offset(lines, right.lineno, right.col_offset)]
                    at = start + gap.index(old.encode())  # only brackets and blanks surround the operator
                    sites.append((at, node.lineno, f"{old} -> {new}", [(at, at + len(old), new.encode())]))
                left = right
        elif isinstance(node, ast.BoolOp):
            old, new = BOOL_SWAPS[type(node.op)]
            edits = []
            for left, right in zip(node.values, node.values[1:]):
                start = _offset(lines, left.end_lineno, left.end_col_offset)
                gap = source[start : _offset(lines, right.lineno, right.col_offset)]
                at = start + re.search(rb"\b%s\b" % old.encode(), gap).start()  # brackets and blanks around it
                edits.append((at, at + len(old), new.encode()))
            sites.append((edits[0][0], node.lineno, f"{old} -> {new}", edits))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func, reduce = node.func, ""  # a ufunc call np.name(...), or its reduction np.name.reduce(...)
            if func.attr == "reduce" and isinstance(func.value, ast.Attribute):
                func, reduce = func.value, ".reduce"
            if not isinstance(func.value, ast.Name):
                continue
            module, name = func.value.id, func.attr
            if module == "np" and name in SWAPS:
                at = _offset(lines, func.end_lineno, func.end_col_offset) - len(name)
                description = f"np.{name}{reduce} -> np.{SWAPS[name]}{reduce}"
                sites.append((at, node.lineno, description, [(at, at + len(name), SWAPS[name].encode())]))
            elif module in ("np", "math") and name == "isfinite" and not reduce:
                start = _offset(lines, node.lineno, node.col_offset)
                stop = _offset(lines, node.end_lineno, node.end_col_offset)
                sites.append((start, node.lineno, f"{module}.isfinite -> True", [(start, start, b"("), (stop, stop, b" | True)")]))
    for _, lineno, description, edits in sorted(sites):
        mutated = source
        for start, stop, new in sorted(edits, reverse=True):  # the last edit first keeps the offsets valid
            mutated = mutated[:start] + new + mutated[stop:]
        yield f"line {lineno}: {description}", mutated


def run_suite(workdir, test_files, timeout):
    """True if the suite passes in workdir (the mutant survives)."""
    # no bytecode cache: a mutant of the same size, written within the same second, could reuse a stale one
    env = {**os.environ, "PYTHONPATH": str(workdir / "src"), "OPENBLAS_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *test_files]
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False  # a mutant that hangs the suite is caught
    return proc.returncode == 0


def order_test_files(workdir):
    """Test files fastest first, timed one by one on the unmutated copy; exits if one fails."""
    timed = []
    for path in sorted((workdir / "tests").glob("test_*.py")):
        started = time.perf_counter()
        if not run_suite(workdir, [str(path.relative_to(workdir))], timeout=None):
            sys.exit(f"{path.name} fails on the unmutated tree; fix it before sweeping")
        timed.append((time.perf_counter() - started, str(path.relative_to(workdir))))
    print("test files, fastest first: " + ", ".join(f"{name} {secs:.1f}s" for secs, name in sorted(timed)), flush=True)
    return [name for _, name in sorted(timed)], sum(secs for secs, _ in timed)


def main():
    with tempfile.TemporaryDirectory(prefix="mutation-sweep-") as tmp:
        copies = [Path(tmp) / f"job{j}" for j in range(JOBS)]
        for copy in copies:
            shutil.copytree(ROOT, copy, ignore=COPY_IGNORE)
        test_files, suite_s = order_test_files(copies[0])
        work = queue.Queue()
        for module in MODULES:
            rel = Path("src") / "neuralfgp" / f"{module}.py"
            for description, mutated in mutants((ROOT / rel).read_bytes()):
                work.put((work.qsize(), rel, f"{module} {description}", mutated))
        total, survivors, lock = work.qsize(), [], threading.Lock()
        print(f"{total} mutants, {JOBS} at a time", flush=True)

        def job(copy):
            while True:
                try:
                    index, rel, name, mutated = work.get_nowait()
                except queue.Empty:
                    return
                original = (copy / rel).read_bytes()
                (copy / rel).write_bytes(mutated)
                try:
                    survived = run_suite(copy, test_files, timeout=10 * suite_s + 60)
                finally:
                    (copy / rel).write_bytes(original)
                with lock:
                    if survived:
                        survivors.append((index, name))
                    print(f"{'SURVIVED' if survived else 'killed  '} {name}", flush=True)

        threads = [threading.Thread(target=job, args=(copy,)) for copy in copies]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    print(f"\n{total - len(survivors)} of {total} mutants killed; {len(survivors)} survived:")
    for _, name in sorted(survivors):  # in source order
        print(f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
