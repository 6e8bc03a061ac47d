"""Host-speed sampler: a small fixed kernel timed on a background thread.

On a shared host the speed available to one process drifts by 10-40 % for a
minute or more at a time, as other tenants load the machine.  The drift
moves every command alike, so the end-to-end times are scaled to a
reference host speed: measured time x REFERENCE_S / mean kernel time while
the commands ran.  The kernel is sampled every PERIOD seconds on a thread of
the benchmark's own process, which otherwise waits while a command runs in
its child process, so it sees the host over the same seconds as the command.

The kernel depends on numpy and scipy only, never on the package under test,
so a change to the package moves the scaled times exactly as it moves the
measured ones.  It is a 512x512 complex FFT round trip (memory bound, like
the 2D solver) and a pure-Python loop (interpreter bound, like the 1D
layers), about 50 ms together: under a tenth of one core.
"""

import threading
import time

import numpy as np
import scipy.fft

REFERENCE_S = 0.05         # median kernel time on the tuning host (2-vCPU VM)
PERIOD = 0.5


class HostSampler:
    """Times the kernel every PERIOD seconds from ``start`` to ``stop``."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512))
        self.samples = []          # (start, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _kernel(self) -> float:
        b = scipy.fft.ifft2(scipy.fft.fft2(self.a) * 0.5)
        acc = 0.0
        for i in range(150_000):
            acc += i * 1e-9
        return float(b.real[0, 0]) + acc

    def _loop(self):
        self._kernel()             # warm-up: FFT plan cache and allocator
        while True:
            t0 = time.monotonic()
            self._kernel()
            self.samples.append((t0, time.monotonic() - t0))
            if self._stop.wait(PERIOD):
                return

    def start(self):
        self._thread.start()

    def stop(self):
        self._stop.set()
        self._thread.join()

    def kernel_s(self, t0: float, t1: float) -> float:
        """Mean kernel time over the samples started in [t0, t1].

        A window too short to hold a sample (a command that failed at once)
        takes the mean over every sample so far.
        """
        inside = [d for t, d in self.samples if t0 <= t <= t1]
        chosen = inside or [d for _, d in self.samples]
        return sum(chosen) / len(chosen) if chosen else REFERENCE_S
