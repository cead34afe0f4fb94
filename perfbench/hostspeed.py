"""Host speed sampler: scales measured times to the host's full speed.

On a shared host the CPU a run gets works at a varying share of its full
speed: on the 2-vCPU VM this benchmark was tuned on, a fixed pure-Python
loop ran at 0.64-0.93 of its best speed, in windows of several seconds, so
identical repetitions of a workload differed by up to 1.6x in wall and CPU
time alike.  The sampler measures that share all through a run.  Every
PERIOD_S a SIGALRM handler, in the run's own process and thread, times a
fixed reference kernel built from the operations the explorer and the
oracles spend their time on: small-dict inserts of fresh tuples, and
``pickle.dumps`` plus ``blake2b`` of small tuples.  The host's speed at that
moment is REF_S over the kernel's time.

A time measured over an interval is scaled by the mean speed of the samples
taken within HALF_WINDOW_S of it, and so reads as the seconds the interval
would have taken had the kernel run in REF_S throughout.  The handler's own
time is taken out of every interval: ``now()`` and ``cpu()`` are
``perf_counter`` and ``process_time`` less the time spent sampling.
"""

import bisect
import hashlib
import itertools
import pickle
import signal
import time

PERIOD_S = 0.05
HALF_WINDOW_S = 0.25
# The kernel's fastest time on the VM the benchmark was tuned on.  It only
# sets the unit: a scaled time is close to the wall time of an undisturbed
# run there.
REF_S = 0.0003


def kernel():
    d = {}
    for i in range(500):
        d[(i & 63, i & 7)] = (i, "x")
    digest, dumps = hashlib.blake2b, pickle.dumps
    for i in range(125):
        digest(dumps((i, (i & 3, "t"), frozenset((i & 7, 1)))),
               digest_size=16).digest()


class HostSpeed:
    """Context manager that samples the host's speed while it is entered.
    Outside it no samples are taken and ``now()`` is ``perf_counter()``."""

    def __init__(self):
        self.times = []   # now() at each sample
        self.speeds = []  # REF_S / kernel time
        self.spent = 0.0  # seconds spent in the handler
        self._sums = [0.0]  # prefix sums of speeds, set on leaving

    def _sample(self, _signum, _frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.times.append(t0 - self.spent)
        self.speeds.append(REF_S / (t1 - t0))
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sums = [0.0] + list(itertools.accumulate(self.speeds))

    def now(self):
        return time.perf_counter() - self.spent

    def cpu(self):
        return time.process_time() - self.spent

    def speed(self, a, b):
        """Mean speed of the samples within HALF_WINDOW_S of [a, b], two
        now() readings; call it after the sampler has been left."""
        lo = bisect.bisect_left(self.times, a - HALF_WINDOW_S)
        hi = bisect.bisect_right(self.times, b + HALF_WINDOW_S)
        if hi == lo:
            raise RuntimeError("no host speed sample near %.3f-%.3f s"
                               % (a, b))
        return (self._sums[hi] - self._sums[lo]) / (hi - lo)

    def mean_speed(self):
        return self._sums[-1] / max(1, len(self.speeds))
