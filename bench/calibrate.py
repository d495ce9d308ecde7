"""Host-speed probes, and times scaled to a reference host speed.

On a shared virtual machine the same work takes up to 1.9 times as long
while other tenants load the host core under the virtual CPU, and the
core's speed moves between a few levels every few seconds, so a run's
median pass time measured how much of the run fell on slow levels, not
the code. ``Clock`` runs a small fixed job, which never changes with the
code under test, before, during and after each timed segment of a
workload, and scales the segment's time to the speed the host had when
``REFERENCE_S`` was measured. Two runs of the same code then agree
although the host's speed moved between them, while a slower program
still reads slower.

The job mixes what the workloads spend their time on: numpy vector work on
arrays the size of a 30k-record log, interpreted Python over dicts, tuples
and strings, and JSON encoding and decoding.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# CPU time of one ``job()`` on the machine the benchmark was tuned on, a
# shared 2-vCPU Xeon (Sapphire Rapids) KVM guest with Python 3.11, numpy 2.4
# and one BLAS thread, at the speed it had when its core was not contended.
# A scaled time reads as seconds on that machine at that speed.
REFERENCE_S = 0.0059
# Jobs per probe before and after a segment; the probe is their median.
PROBE_REPS = 9
# While a segment runs, a timer signal samples the host this often.
SAMPLE_EVERY_S = 0.2


def _inputs():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((30_000, 10))
    w = rng.standard_normal(10)
    groups = np.arange(0, 30_000, 50)
    pairs = [(f"q{i % 1000}", f"p{i % 20}") for i in rng.integers(0, 20_000, 4_000).tolist()]
    records = [{"query_id": q, "product_id": p, "reward": i % 3, "propensity": 0.1}
               for i, (q, p) in enumerate(pairs[:550])]
    return x, w, groups, pairs, records


_X, _W, _GROUPS, _PAIRS, _RECORDS = _inputs()


def job() -> float:
    """One fixed unit of mixed numpy and interpreter work; returns a checksum.

    On a contended core, vector work slowed by 1.3-1.45x and interpreted
    work (log parsing and writing, aggregation, simulation) by 1.55-1.75x.
    The numpy part is about 30% of this job at full speed, and the job
    slowed by about 1.6x.
    """
    s = _X @ _W
    e = np.exp(s - s.max())
    p = e / np.repeat(np.add.reduceat(e, _GROUPS), 50)
    order = np.argsort(-s[:5_000], kind="stable")
    total = float(p[order].sum())
    counts: dict[tuple[str, str], int] = {}
    for pair in _PAIRS:
        counts[pair] = counts.get(pair, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    total += len(ranked) + sum(len(q) + len(p) for (q, p), _ in ranked)
    text = "\n".join(json.dumps(r) for r in _RECORDS)
    total += sum(json.loads(line)["reward"] for line in text.split("\n"))
    return total


def _timed_job() -> float:
    # Thread CPU time, not wall time: while a CLI child runs on the same
    # CPU, a job run from the timer shares the CPU with it, and its wall
    # time would count the child's turns.
    t0 = time.thread_time()
    job()
    return time.thread_time() - t0


class Clock:
    """Times segments of work and scales each by the host's speed during it.

    ``segment()`` probes the host (``probe``) just before and just after the
    work it encloses; a probe that ended right where a segment starts serves
    as its "before" probe. With ``sampling``, a timer signal also runs
    ``job`` twice every ``SAMPLE_EVERY_S`` inside the segment and times the
    second run (Python runs the handler between bytecodes, so library code
    is not disturbed); the CPU time of those jobs is taken out of the
    segment's time. The segment's scaled time is its time times
    ``REFERENCE_S`` over the mean job time of its probes and samples: its
    time on the reference machine at full speed.
    """

    # A probe that ended less than this long before a segment starts
    # serves as that segment's "before" probe.
    ADJACENT_S = 0.01

    def __init__(self, sampling: bool = True):
        self.probes: list[float] = []
        self.samples: list[float] = []  # job times from inside segments
        self.sampling = sampling
        self._probe_end = float("-inf")
        self._inside: list[float] | None = None
        self._spent = 0.0
        if sampling:
            # Installed for good: restoring the default action could let a
            # last pending SIGALRM end the process.
            signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        if self._inside is not None:
            # The first job refills the caches the workload evicted; timed
            # cold, the job would read slower the more memory the workload
            # touches, and a heavier program would be scaled down.
            t0 = time.thread_time()
            job()
            self._inside.append(_timed_job())
            self._spent += time.thread_time() - t0

    def probe(self) -> float:
        """Median job time over ``PROBE_REPS`` jobs; the value is kept."""
        self.probes.append(statistics.median(_timed_job() for _ in range(PROBE_REPS)))
        self._probe_end = time.perf_counter()
        return self.probes[-1]

    @contextmanager
    def segment(self, out: list):
        """Time the enclosed block; append ``(seconds, scaled_seconds)`` to
        ``out``, also when the block raises."""
        t0 = time.perf_counter()
        before = self.probes[-1] if t0 - self._probe_end < self.ADJACENT_S else self.probe()
        inside: list[float] = []
        self._inside, self._spent = inside, 0.0
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - t0
            if self.sampling:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
            self._inside = None
            seconds = wall - self._spent
            after = self.probe()
            self.samples += inside
            speed = statistics.fmean([before, *inside, after])
            out.append((seconds, seconds * REFERENCE_S / speed))


def pin_to_one_cpu() -> int:
    """Keep this process and its children on the CPU it runs on now, so that
    probes and timed work see the same core; returns that CPU."""
    allowed = sorted(os.sched_getaffinity(0))
    with open("/proc/self/stat", "r", encoding="utf-8") as fh:
        cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    cpu = cpu if cpu in allowed else allowed[0]
    os.sched_setaffinity(0, {cpu})
    return cpu
