"""The speed of the CPUs a pass runs on, sampled while it runs.

The 2-CPU machine this benchmark was built on alternates, for seconds to
minutes at a time, between a fast and a slow state.  The slow state costs CPU
time as well as wall time, so neither clock escapes it, and it slows
different code by different amounts: a loop of 6x6 numpy products by about
1.7x, a 192x192 complex matrix product by about 1.3x.  A `fig1-cycle` pass
takes 20 s to 34 s depending on how much of it falls in the slow state.

So while a pass runs, the parent process times a fixed kernel, every
``PERIOD_S`` seconds, on the CPU where one of the pass's running threads is,
in the parent's own thread CPU time.  The mean of ``reference / sample`` over
a time window is the CPUs' mean speed in that window relative to the
reference speed, and a time measured in that window, multiplied by it, is the
time the same work takes at the reference speed.  Each workload names the
kernel whose code is closest to its own hot loop.  The kernels are fixed
here: a change to omcool cannot change them.

At times the hypervisor also takes the CPUs away ("steal" in /proc/stat),
which costs wall time but not CPU time.  At every sample the monitor reads
each CPU's steal counter and charges the steal since the previous sample on
the CPUs where the pass runs now; the share of a window lost this way is
taken out of the wall time measured in it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Seconds between two samples.  A sample takes about 1 ms, so the pass loses
#: about 2% of one CPU to the sampling, in every state.
PERIOD_S = 0.05

_A6 = np.random.default_rng(0).standard_normal((6, 6)) * 0.01
_Z = (np.random.default_rng(1).standard_normal((192, 192))
      + 1j * np.random.default_rng(2).standard_normal((192, 192))) / 192


def _small_dense() -> None:
    """100 Euler steps of a 6x6 covariance equation, as the Gaussian engine's RK4."""
    c = np.eye(6)
    for _ in range(100):
        c = c + 1e-3 * (_A6 @ c + c @ _A6.T)


def _complex_gemm() -> None:
    """One 192x192 complex matrix product, as the Fock engine's right-hand side."""
    _Z @ _Z


@dataclass(frozen=True)
class Kernel:
    name: str
    fn: Callable[[], None]
    #: Thread CPU seconds of one sample in the fast state of the machine the
    #: benchmark was built on (Xeon, 2.1 GHz, numpy 2.4 with OpenBLAS 0.3.31),
    #: sharing its CPU with a busy process as a sample does.
    reference_s: float


KERNELS = {k.name: k for k in (
    Kernel("small-dense", _small_dense, 0.50e-3),
    Kernel("complex-gemm", _complex_gemm, 0.90e-3),
)}


_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def cpu_steal_s() -> dict[int, float]:
    """Seconds each CPU has lost to the hypervisor since boot."""
    steal = {}
    with open("/proc/stat") as fh:
        for line in fh:
            if line.startswith("cpu") and line[3].isdigit():
                fields = line.split()
                steal[int(fields[0][3:])] = int(fields[8]) * _TICK_S
    return steal


def running_cpus(pid: int) -> list[int]:
    """CPUs on which the threads of process ``pid`` are running or runnable."""
    cpus = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return cpus
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[0] == "R":
            cpus.append(int(fields[36]))  # field 39, "processor"
    return sorted(cpus)


class SpeedMonitor:
    """Speed samples of one kernel, taken next to the passes of one run."""

    def __init__(self, kernel_name: str):
        self.kernel = KERNELS[kernel_name]
        self.times: list[float] = []
        self.ratios: list[float] = []
        #: (time, seconds since the previous sample, seconds of them stolen)
        self.steals: list[tuple[float, float, float]] = []
        self._last: tuple[float, dict[int, float]] | None = None
        self._all_cpus = os.sched_getaffinity(0)
        self.kernel.fn()  # the first call pays for lazy set-up

    def sample(self, pid: int) -> None:
        """Charge the steal since the last sample and time the kernel once, on
        the CPUs where ``pid`` runs; a pass that runs nowhere loses nothing."""
        cpus = running_cpus(pid)
        now, steal = time.monotonic(), cpu_steal_s()
        if self._last is not None:
            last_t, last_steal = self._last
            lost = sum(steal[c] - last_steal[c] for c in cpus) / len(cpus) if cpus else 0.0
            self.steals.append((now, now - last_t, lost))
        self._last = (now, steal)
        if not cpus:
            return
        os.sched_setaffinity(0, {cpus[len(self.times) % len(cpus)]})
        t = time.monotonic()
        c0 = time.thread_time()
        self.kernel.fn()
        self.times.append(t)
        # thread_time ticks in ns; a zero reading would only come from a broken clock
        self.ratios.append(self.kernel.reference_s / max(time.thread_time() - c0, 1e-9))

    def release(self) -> None:
        """Let the parent (and the children it starts) run on every CPU again,
        and start the next pass's steal count afresh."""
        os.sched_setaffinity(0, self._all_cpus)
        self._last = None

    def steal_share(self, lo: float, hi: float) -> float:
        """Share of the wall time in [lo, hi) that the pass's CPUs lost to steal."""
        picked = [(dt, lost) for t, dt, lost in self.steals if lo <= t < hi]
        span = sum(dt for dt, _ in picked)
        return min(1.0, sum(lost for _, lost in picked) / span) if span > 0 else 0.0

    def speed(self, lo: float = float("-inf"),
              hi: float = float("inf")) -> tuple[float, int] | None:
        """(mean speed relative to the reference, samples) over [lo, hi), or None."""
        picked = [r for t, r in zip(self.times, self.ratios) if lo <= t < hi]
        if not picked:
            return None
        return sum(picked) / len(picked), len(picked)
