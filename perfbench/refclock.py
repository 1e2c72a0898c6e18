"""Step timing in reference units, steady on a CPU whose speed changes.

On the shared 2-vCPU Xeon (KVM) this benchmark was sized on, a vCPU runs up
to 2x slower, for anything from a fraction of a second to over a minute,
whenever the hardware thread beside it is busy, so the same step measured at
two moments differs by that much in seconds.  A fixed reference computation
slows with it.  So each step is also timed in reference units: its seconds
divided by the mean time of the reference, taken just before the step, just
after it and every SAMPLE_S seconds during it.  The samples during a step
interrupt it from a SIGALRM timer; a child process the step waits for is
stopped while the reference runs, so that the reference has the CPU to
itself.  The time the samples take is not part of the step.  The benchmark
pins itself and its children to one CPU, so the reference runs where the step
does.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# The reference computation: small numpy calls with Python between them, the
# kind of work the toy-data fits do.  About 1 ms on an idle vCPU.
_REF_X = np.linspace(-1.0, 1.0, 300).reshape(100, 3)
_REF_W = np.ones(3)
REF_LOOPS = 200
SAMPLE_S = 0.05


def reference_s() -> float:
    """Seconds the reference computation takes now."""
    start = time.perf_counter()
    for _ in range(REF_LOOPS):
        z = _REF_X @ _REF_W
        float(np.sum(np.log1p(np.exp(-z))))
    return time.perf_counter() - start


_running: StepClock | None = None


def _on_alarm(signum, frame) -> None:
    if _running is not None:
        _running.sample()


class StepClock:
    """Times one step, as a context manager.  Afterwards `seconds` holds its
    time and `refs` its time in reference units.  Set `process` to a child
    process the step waits for."""

    def __init__(self):
        self.process = None
        self.samples: list[float] = []
        self.paused = 0.0
        self.seconds = self.refs = None

    def sample(self) -> None:
        start = time.perf_counter()
        proc = self.process
        if proc is not None:
            proc.send_signal(signal.SIGSTOP)
        try:
            self.samples.append(reference_s())
        finally:
            if proc is not None:
                proc.send_signal(signal.SIGCONT)
            self.paused += time.perf_counter() - start

    def __enter__(self) -> StepClock:
        global _running
        self.samples.append(reference_s())
        # The handler stays installed: restoring the default action could let
        # a late alarm end the process.
        signal.signal(signal.SIGALRM, _on_alarm)
        _running = self
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        global _running
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        _running = None
        self.seconds = time.perf_counter() - self._start - self.paused
        self.samples.append(reference_s())
        self.refs = self.seconds / statistics.fmean(self.samples)
        return False
