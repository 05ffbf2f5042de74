"""Host-speed calibration: a fixed kernel timed next to every measured block.

On a shared virtual machine the host's speed swings by tens of percent over
seconds to minutes, and the same work takes that much longer or shorter.  A
timed block is therefore bracketed by runs of a fixed calibration kernel, and
its wall time is scaled by ``NOMINAL_S / (mean of the two kernel times)``: the
block's time on a host where the kernel takes NOMINAL_S.  The kernel mixes
the kinds of work the program does (small numpy linear algebra driven from
Python, dict/set graph building, JSON and CSV writing) and uses only numpy
and the standard library, so no change to the program under test moves it.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
import time

NOMINAL_S = 0.04  # about the kernel's time on an idle 2-vCPU x86-64 VM (py 3.11, numpy 2.4)

clock = time.perf_counter


class Calibrator:
    def __init__(self, np):
        self.np = np
        rng = np.random.default_rng(12345)
        mats = rng.standard_normal((32, 10, 10))
        self.mats = mats + mats.transpose(0, 2, 1)
        rnd = random.Random(12345)
        self.pairs = [(rnd.randrange(40), rnd.randrange(40)) for _ in range(8000)]
        self.rows = [{"id": i, "x": rnd.random(), "ys": [rnd.random() for _ in range(6)]}
                     for i in range(1000)]
        self.samples: list[float] = []  # every kernel time, in order
        self.last = self.kernel()

    def kernel(self) -> float:
        """Run the fixed kernel once; returns its wall time."""
        np = self.np
        t0 = clock()
        for a in self.mats:  # Householder reduction, one small numpy op at a time
            a = a.copy()
            for k in range(a.shape[0] - 2):
                x = a[k + 1:, k]
                sigma = math.sqrt(float(x @ x))
                u = x.copy()
                u[0] -= math.copysign(sigma, x[0])
                h = float(u @ u) / 2.0
                if h == 0.0:
                    continue
                b = a[k + 1:, k + 1:]
                p = b @ u / h
                w = p - (float(u @ p) / (2.0 * h)) * u
                b -= np.outer(w, u) + np.outer(u, w)
        nbrs: dict[int, set] = {}  # graph building and degree counting
        for u, v in self.pairs:
            if u != v:
                nbrs.setdefault(u, set()).add(v)
                nbrs.setdefault(v, set()).add(u)
        sorted((len(s), k) for k, s in nbrs.items())
        json.dumps(self.rows, indent=2)  # report writing
        out = csv.writer(io.StringIO())
        for row in self.rows:
            out.writerow([row["id"], repr(row["x"]), json.dumps(row["ys"])])
        seconds = clock() - t0
        self.samples.append(seconds)
        return seconds

    def time(self, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) between two kernel runs.

        Returns (result, wall seconds, calibrated seconds), where the calibrated
        time is the wall time scaled to a host on which the kernel takes NOMINAL_S.
        """
        t0 = clock()
        result = fn(*args, **kwargs)
        wall = clock() - t0
        before, after = self.last, self.kernel()
        self.last = after
        return result, wall, wall * NOMINAL_S * 2.0 / (before + after)
