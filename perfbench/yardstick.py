"""Fixed numpy loops, timed between units of measured work, that measure the
host's current speed for the kind of work a workload does.

On the shared 2-vCPU VM of the baseline (perfbench/BASELINE.json), the same
computation runs up to 2x slower for a minute or more at a time, with under
1 % CPU steal and no other busy process in the VM. A rate measured between
bursts of a loop that slows down the same way, scaled to a fixed burst
time, cancels most of that drift:

- `Yardstick` (small matrix-vector products and an elementwise softplus on
  length-64 vectors) is single-threaded, call-overhead-bound work, like a
  pass over the attribution slices and like the set-up rounds. Over ten
  attribution runs the raw slice rate had a quartile spread of 22 % and the
  scaled rate 2.3 %.
- `BlasYardstick` (the products of one ICNN forward pass and one weight
  gradient on a 201x5 window, widths 64,64) runs on numpy's BLAS threads,
  like training. Alternating it with 40-epoch `train_window` calls for seven
  minutes, 80-call medians of the raw training time ranged over 1.30x
  (quartile spread 0.116) and of training time per burst over 1.11x
  (0.026); per `Yardstick` burst it was 1.15x (0.061).

The scaling assumes the program slows down with the host as its loop
does. A change that moves work from per-call overhead into vectorised BLAS
can break that, so the raw rate is kept beside the scaled one: run.py logs
both to standard error, and a traced run reports it as windows_per_s.raw.
A claim should show the two agree.
"""

from __future__ import annotations

import time

import numpy as np


class Yardstick:
    """Call-overhead-bound loop; `scale` takes a raw rate to REF_S per burst."""

    REPS = 300
    REF_S = 0.004  # about one burst on the baseline VM

    def __init__(self):
        rng = np.random.default_rng(0)
        self.A = rng.standard_normal((64, 5))
        self.B = np.abs(rng.standard_normal((64, 64)))
        self.seconds = 0.0
        self.bursts = 0

    def loop(self):
        x = np.full(5, 0.2)
        for _ in range(self.REPS):
            p = self.A @ x
            z = np.maximum(p, 0.0) + np.log1p(np.exp(-np.abs(p)))
            x = x + 1e-9 * float((self.B @ z).sum())

    def burst(self):
        t0 = time.perf_counter()
        self.loop()
        secs = time.perf_counter() - t0
        self.seconds += secs
        self.bursts += 1
        return secs

    def scale(self):
        """Factor that takes a raw rate to the rate at REF_S per burst."""
        return self.seconds / self.bursts / self.REF_S if self.bursts else 1.0


class BlasYardstick(Yardstick):
    """Training-shaped loop on numpy's BLAS threads."""

    REPS = 10
    REF_S = 0.012  # about one burst on the baseline VM

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(0)
        self.X = rng.random((201, 5))
        self.W0 = rng.standard_normal((64, 5))
        self.W1 = 0.1 * rng.standard_normal((64, 64))
        self.U1 = rng.standard_normal((64, 5))

    def loop(self):
        for _ in range(self.REPS):
            z = np.logaddexp(self.X @ self.W0.T, 0.0)
            z2 = np.logaddexp(z @ self.W1.T + self.X @ self.U1.T, 0.0)
            self.W1 -= 1e-12 * (z2.T @ z)
