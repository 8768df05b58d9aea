"""Machine-speed reference that timed windows are scaled by.

On a small shared virtual machine the host slows the benchmark's CPU by up
to about 1.6x for seconds at a time, so raw wall times of one 36-second run
differ from the next by 15-30% with nothing changed. The benchmark runs
pinned to one CPU (its children inherit the pin) and times a fixed
numpy/Python reference job, independent of qwp, right before and after each
timed window. Every time measured in the window is multiplied by
REFERENCE_S / (mean of the two reference times): it reads as seconds at
the speed where the reference job takes REFERENCE_S, which is the
uncontended speed of the machine the benchmark was tuned on. A window that
holds a long child is sampled instead: the child's run_child ticks time a
quarter of the job every 0.1 s while the child runs, and its times are
multiplied by SAMPLE_S / (mean sample). Raw wall times are kept next to the
scaled ones in the detail line.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time

import numpy as np

REFERENCE_S = 0.020
# CPU time of one in-window sample (a quarter of the reference job, timed
# while a child shares the CPU) at the speed where the reference takes REFERENCE_S
SAMPLE_S = 0.0068
# a window may start from the previous window's closing reference if it ended this recently
REUSE_WITHIN_S = 1.0


class Window:
    """Raw times recorded in one window; `scale` is set when the window closes.

    A sampled window also collects reference samples through `tick`, which
    `execute.run_child` calls while the child runs.
    """

    def __init__(self, sampler=None):
        self.entries: list[tuple[str, float]] = []
        self.scale = 1.0
        self.samples: list[float] = []
        self._sampler = sampler

    def add(self, key: str, raw: float) -> None:
        self.entries.append((key, raw))

    def tick(self) -> None:
        if self._sampler is not None:
            self.samples.append(self._sampler())

    def items(self):
        """(key, raw, scaled) for every recorded time."""
        return [(key, raw, raw * self.scale) for key, raw in self.entries]


class Speed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(50)]
        self._big = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        self.samples: list[float] = []  # reference times
        self.window_samples: list[float] = []  # mean in-window sample of each sampled window
        self._last_end = -float("inf")

    def _job(self, small_rounds: int, big_products: int) -> None:
        """Small-matrix calls through the interpreter, then BLAS."""
        for _ in range(small_rounds):
            for m in self._small:
                h = m @ m.conj().T
                np.linalg.eigvalsh(h)
                float(np.trace(h).real)
        for _ in range(big_products):
            self._big @ self._big

    def reference(self) -> float:
        """Wall time of the reference job, with the CPU to itself."""
        start = time.perf_counter()
        self._job(16, 3)
        self._last_end = time.perf_counter()
        elapsed = self._last_end - start
        self.samples.append(elapsed)
        return elapsed

    def sample(self) -> float:
        """CPU time of a quarter of the reference job, taken while a child runs on the same CPU."""
        start = time.process_time()
        self._job(4, 1)
        return time.process_time() - start

    @contextlib.contextmanager
    def window(self, sampled: bool = False):
        """Scale by the references around the window or, if `sampled`, by the samples inside it."""
        if sampled:
            w = Window(self.sample)
            yield w
            if not w.samples:
                w.tick()
            self.window_samples.append(statistics.mean(w.samples))
            w.scale = SAMPLE_S / statistics.mean(w.samples)
            return
        fresh = time.perf_counter() - self._last_end <= REUSE_WITHIN_S
        before = self.samples[-1] if fresh else self.reference()
        w = Window()
        yield w
        w.scale = REFERENCE_S / ((before + self.reference()) / 2.0)


@contextlib.contextmanager
def unscaled_window(sampled: bool = False):
    """A window with scale 1 and no samples, for the traced run."""
    yield Window()


def pin_to_one_cpu() -> int | None:
    """Pin this process, and so every child it starts, to its lowest allowed CPU."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
