"""Load generators for the serving benchmark.

Both generators run on the calling thread (the benchmark's one
generator thread) and record completions through
``ticket.add_done_callback``, so they start no threads of their own.
``submit(i)`` sends request ``i`` and returns a ticket-like object
whose ``add_done_callback(fn)`` runs ``fn(ticket)`` once it is done.

- :func:`closed_loop` keeps a fixed number of requests in flight: a
  request is *due* the moment a slot frees, and its latency is timed
  from its submit.
- :func:`open_loop` sends on a precomputed schedule whatever
  completes: latency is timed from each request's *due* time, so a
  stall in the generator counts against every request it delays, and
  how late the generator ran is reported separately.

Timestamps go into arrays allocated (and touched) up front, so the
generator's own memory does not grow with the number of requests.
Nothing here imports the serving stack.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

OnDone = Callable[[int, object], None]

# How long a generator waits for a completion before giving up on
# the run (the stuck requests count as timed out).
DRAIN_TIMEOUT_S = 30.0


class LoadRun:
    """Per-request timestamps (``perf_counter`` seconds) of one run.

    ``window`` is the measured interval: requests due inside it give
    the latency samples, completions inside it give the throughput.
    Requests due before it were ramp-up.  ``done`` is NaN for a request
    that never completed.
    """

    def __init__(self, capacity: int, open_loop: bool) -> None:
        self.due = np.full(capacity, np.nan)
        self.submitted = np.full(capacity, np.nan)
        self.submit_end = np.full(capacity, np.nan)
        self.done = np.full(capacity, np.nan)
        self.count = 0
        self.open = open_loop
        self.window = (0.0, 0.0)
        self.max_in_flight = 0
        self.timed_out = 0

    def _measured(self) -> np.ndarray:
        due = self.due[: self.count]
        return (due >= self.window[0]) & (due < self.window[1])

    def _completed(self) -> Tuple[np.ndarray, np.ndarray]:
        """Due times and latencies of the measured requests that
        completed: done minus due (open loop) or done minus submit
        (closed loop)."""
        n = self.count
        origin = self.due[:n] if self.open else self.submitted[:n]
        latency = self.done[:n] - origin
        keep = self._measured() & ~np.isnan(latency)
        return self.due[:n][keep], latency[keep]

    def latencies_s(self) -> np.ndarray:
        """Latency of each measured request that completed."""
        return self._completed()[1]

    def windowed_percentile_s(
        self, q: float, min_samples: int = 1000, max_windows: int = 20
    ) -> Tuple[float, int]:
        """Median over equal sub-windows of the ``q``-th latency
        percentile of the requests due in each; returns it and the
        number of sub-windows.

        Each sub-window holds about ``min_samples`` latencies or more,
        so a high percentile still has samples beyond it, and one
        stall of the host moves one sub-window's value instead of the
        whole window's tail.
        """
        due, latency = self._completed()
        windows = int(max(1, min(max_windows, len(latency) // min_samples)))
        edges = np.linspace(self.window[0], self.window[1], windows + 1)
        slot = np.clip(np.searchsorted(edges, due, side="right") - 1, 0, windows - 1)
        values = [
            np.percentile(latency[slot == k], q)
            for k in range(windows)
            if np.any(slot == k)
        ]
        return float(np.median(values)), windows

    def lateness_s(self) -> np.ndarray:
        """How long after its due time each measured request was sent."""
        n = self.count
        return (self.submitted[:n] - self.due[:n])[self._measured()]

    def submit_s(self) -> np.ndarray:
        """Duration of each measured ``submit`` call."""
        n = self.count
        return (self.submit_end[:n] - self.submitted[:n])[self._measured()]

    def throughput_rps(self) -> float:
        """Completions inside the window per second of window."""
        start, end = self.window
        done = self.done[: self.count]
        completed = np.count_nonzero((done >= start) & (done < end))
        return float(completed) / (end - start)

    def _drain(self) -> None:
        """Wait until every request completed or ``DRAIN_TIMEOUT_S``
        passed; polls, because completions arrive on other threads."""
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while time.perf_counter() < deadline:
            if not np.isnan(self.done[: self.count]).any():
                break
            time.sleep(0.002)
        self.timed_out = int(np.isnan(self.done[: self.count]).sum())


def poisson_schedule(rate: float, seconds: float, seed) -> np.ndarray:
    """Arrival offsets (seconds from the start) of a Poisson process
    covering ``[0, seconds)``; the same ``seed`` gives the same
    schedule."""
    if rate <= 0 or seconds <= 0:
        raise ValueError("rate and seconds must be positive")
    rng = np.random.default_rng(seed)
    chunks: List[np.ndarray] = []
    total = 0.0
    while total < seconds:
        gaps = rng.exponential(1.0 / rate, size=max(16, int(rate * seconds)))
        chunks.append(total + np.cumsum(gaps))
        total = float(chunks[-1][-1])
    schedule = np.concatenate(chunks)
    return schedule[schedule < seconds]


def request_plan(
    seed, size: int, pool: int, targets: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per request: which pooled sample it sends and which of
    ``targets`` models it is pinned to (uniform mix); the same
    ``seed`` gives the same plan."""
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, pool, size=size),
        rng.integers(0, targets, size=size),
    )


def closed_loop(
    submit: Callable[[int], object],
    in_flight: int,
    seconds: float,
    ramp_s: float = 0.0,
    capacity: int = 1 << 18,
    on_done: Optional[OnDone] = None,
) -> LoadRun:
    """Keep ``in_flight`` requests outstanding for ``ramp_s + seconds``.

    A request is due when its slot frees (the first ``in_flight`` are
    due at the start), so its lateness is how long the generator took
    to refill the slot.  Once the window closes (or ``capacity``
    requests were sent) nothing more is sent and the outstanding
    requests are waited for, up to ``DRAIN_TIMEOUT_S``.
    """
    if in_flight < 1:
        raise ValueError("in_flight must be >= 1")
    run = LoadRun(capacity, open_loop=False)
    lock = threading.Lock()
    slots = threading.Semaphore(in_flight)
    freed: List[float] = []  # slot release times not yet refilled
    outstanding = [0, 0]  # current, maximum

    def completion(index: int):
        def callback(ticket) -> None:
            run.done[index] = now = time.perf_counter()
            if on_done is not None:
                on_done(index, ticket)
            with lock:
                outstanding[0] -= 1
                freed.append(now)
            slots.release()

        return callback

    start = time.perf_counter()
    run.window = (start + ramp_s, start + ramp_s + seconds)
    while run.count < capacity and slots.acquire(timeout=DRAIN_TIMEOUT_S):
        with lock:
            due = freed.pop(0) if freed else start
        submitted = time.perf_counter()
        if submitted >= run.window[1]:
            break
        index = run.count
        with lock:
            outstanding[0] += 1
            outstanding[1] = max(outstanding[1], outstanding[0])
        run.due[index], run.submitted[index] = due, submitted
        ticket = submit(index)
        run.submit_end[index] = time.perf_counter()
        run.count += 1
        ticket.add_done_callback(completion(index))
    run.max_in_flight = outstanding[1]
    run._drain()
    return run


def open_loop(
    submit: Callable[[int], object],
    offsets: Sequence[float],
    ramp_s: float = 0.0,
    on_done: Optional[OnDone] = None,
) -> LoadRun:
    """Send request ``i`` at ``start + offsets[i]`` whatever completes.

    Offsets below ``ramp_s`` are ramp-up; the rest of the schedule is
    the measured window.  The generator never skips a request: when it
    falls behind it sends at once, and the delay shows as lateness and
    as latency, which runs from the due time.
    """
    offsets = np.asarray(offsets, dtype=float)
    if offsets.size == 0:
        raise ValueError("empty schedule")
    run = LoadRun(offsets.size, open_loop=True)

    def completion(index: int):
        def callback(ticket) -> None:
            run.done[index] = time.perf_counter()
            if on_done is not None:
                on_done(index, ticket)

        return callback

    start = time.perf_counter()
    run.window = (start + ramp_s, start + float(offsets[-1]) + 1e-9)
    for index, offset in enumerate(offsets):
        due = start + float(offset)
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        run.due[index], run.submitted[index] = due, time.perf_counter()
        ticket = submit(index)
        run.submit_end[index] = time.perf_counter()
        run.count += 1
        ticket.add_done_callback(completion(index))
    run._drain()
    return run
