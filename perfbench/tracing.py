"""In-memory span tracer that wraps neuralfgp's layer functions at run time.

The program itself is never edited: `Tracer.install` rebinds each traced
function in every `neuralfgp.*` module namespace that holds it, which also
catches names bound by `from ... import` (backtest calls its own
`train_window`, not `training.train_window`). `uninstall` restores them.

Pool workers forked from a traced parent inherit the wrappers and the open
span stack. A worker keeps its own spans in memory and appends them to a
spool file in `spool_dir` each time one of its root spans ends; `collect`
merges the spool into the parent's list. Timestamps come from
`time.perf_counter`, a system-wide monotonic clock on Linux, so spans of
different processes share one time axis.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("market_data", "autodiff", "icnn", "fgp", "training", "backtest", "cli")

# functions recorded as spans, by layer module
SPANNED = {
    "cli": ("main",),
    "market_data": ("gbm_simulate", "load_prices_csv", "normalize_to_weights"),
    "autodiff": ("backward",),
    "icnn": ("init", "to_json", "from_json", "load"),
    "fgp": ("neural_weights", "classical_weights", "generator_hessian"),
    "training": ("build_loss", "loss_gradients", "adam_step", "train_window"),
    "backtest": (
        "walk_forward",
        "_run_window",
        "relative_wealth",
        "master_residual",
        "write_window_csv",
        "write_summary_csv",
    ),
}
# functions too frequent for a span each (about 1200 FD forward passes per
# attribution slice): only their calls are counted
COUNTED = {"icnn": ("forward",)}


def _rows_parsed(tracer, args, result):
    return {"rows": int(result.prices.shape[0])}


def _tape_nodes(tracer, args, result):
    # read once: the loss tape has the same shape every epoch
    if "tape_nodes" not in tracer.facts:
        from neuralfgp import autodiff

        tracer.facts["tape_nodes"] = len(autodiff.topo_order(result[0]))
    return None


def _epochs(tracer, args, result):
    losses = [row[1] for row in result[1]]
    return {"epochs": len(losses), "best": losses.index(min(losses))}


# per-call attributes, read after the span has ended so they cost no span time
ATTRS = {
    "market_data.load_prices_csv": _rows_parsed,
    "training.build_loss": _tape_nodes,
    "training.train_window": _epochs,
}


class Span:
    __slots__ = ("id", "pid", "parent", "name", "phase", "start", "end", "attrs")

    def __init__(self, id, parent, name, phase, start, end=None, attrs=None, pid=None):
        self.id = id
        self.pid = pid
        self.parent = parent
        self.name = name
        self.phase = phase
        self.start = start
        self.end = end
        self.attrs = attrs

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start

    def to_dict(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Spans (name, start, end, parent, phase) and call counts of one run.

    Span ids are "<run id>:<pid>:<n>", so ids stay unique across forked
    workers and every span of the run shares the run id.
    """

    def __init__(self, run_id, spool_dir):
        self.run_id = run_id
        self.spool_dir = spool_dir
        self.root_pid = self.pid = os.getpid()
        self.phase = None
        self.spans = []
        self.counts = Counter()
        self.facts = {}
        self._stack = []
        self._next = 0
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _own_process(self):
        pid = os.getpid()
        if pid != self.pid:
            # first event in a forked worker: drop the parent's copies
            self.pid = pid
            self.spans = []
            self.counts = Counter()

    def open(self, name):
        self._own_process()
        parent = self._stack[-1].id if self._stack else None
        self._next += 1
        span_id = f"{self.run_id}:{self.pid}:{self._next}"
        span = Span(span_id, parent, name, self.phase, time.perf_counter(), pid=self.pid)
        self._stack.append(span)
        return span

    def close(self, span, end=None):
        span.end = time.perf_counter() if end is None else end
        self._stack.pop()
        self.spans.append(span)
        if self.pid != self.root_pid and (not self._stack or self._stack[-1].pid != self.pid):
            self._spool()

    def count(self, name):
        self._own_process()
        self.counts[(self.phase, name)] += 1

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def _spool(self):
        """A worker's root span ended: hand its spans to the parent."""
        path = os.path.join(self.spool_dir, f"spool-{self.pid}.jsonl")
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps({"span": span.to_dict()}) + "\n")
            for (phase, name), n in self.counts.items():
                fh.write(json.dumps({"count": [phase, name, n]}) + "\n")
            fh.write(json.dumps({"facts": self.facts}) + "\n")
        self.spans = []
        self.counts = Counter()

    # -- wrapping ----------------------------------------------------------

    def _wrap_span(self, fn, name):
        tracer = self
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(span)
                raise
            end = time.perf_counter()
            if attrs is not None:
                span.attrs = attrs(tracer, args, result)
            tracer.close(span, end)
            return result

        return traced

    def _wrap_count(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        return counted

    def install(self, package="neuralfgp"):
        """Rebind every traced function wherever a package module binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        for table, wrap in ((SPANNED, self._wrap_span), (COUNTED, self._wrap_count)):
            for layer, funcs in table.items():
                owner = sys.modules[f"{package}.{layer}"]
                for func in funcs:
                    original = getattr(owner, func)
                    wrapper = wrap(original, f"{layer}.{func}")
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, wrapper)
                                self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    # -- output ------------------------------------------------------------

    def collect(self):
        """Merge the spans and counts that forked workers spooled."""
        for entry in sorted(os.listdir(self.spool_dir)):
            if not entry.startswith("spool-"):
                continue
            path = os.path.join(self.spool_dir, entry)
            with open(path) as fh:
                for line in fh:
                    record = json.loads(line)
                    if "span" in record:
                        self.spans.append(Span(**record["span"]))
                    elif "facts" in record:
                        self.facts = {**record["facts"], **self.facts}
                    else:
                        phase, name, n = record["count"]
                        self.counts[(phase, name)] += n
            os.remove(path)
        return self.spans

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "facts": self.facts,
                    "counts": [[p, n, c] for (p, n), c in sorted(self.counts.items(), key=str)],
                    "spans": [s.to_dict() for s in self.spans],
                },
                fh,
            )


def self_times(spans):
    """span id -> duration minus the part of it that its children cover.

    Children in one process never overlap; children in pool workers do,
    so coverage is the union of the child intervals clipped to the span.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = s.duration - covered
    return out
