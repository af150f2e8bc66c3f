"""Tests for the benchmark's load generators, driven by fake tickets."""

import queue
import threading
import time

import numpy as np
import pytest

from perfbench import loadgen


class FakeTicket:
    """The ticket interface the generators use: ``add_done_callback``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._done = False
        self._callbacks = []

    def add_done_callback(self, fn) -> None:
        with self._lock:
            if not self._done:
                self._callbacks.append(fn)
                return
        fn(self)

    def finish(self) -> None:
        with self._lock:
            self._done = True
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)


class FakeServer:
    """One worker thread completing tickets in order after a fixed
    service time; counts how many requests it held at once."""

    def __init__(self, service_s: float) -> None:
        self.service_s = service_s
        self.lock = threading.Lock()
        self.outstanding = 0
        self.max_outstanding = 0
        self.queue: "queue.Queue" = queue.Queue()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def submit(self, index: int) -> FakeTicket:
        ticket = FakeTicket()
        with self.lock:
            self.outstanding += 1
            self.max_outstanding = max(self.max_outstanding, self.outstanding)
        self.queue.put(ticket)
        return ticket

    def _serve(self) -> None:
        while True:
            ticket = self.queue.get()
            if ticket is None:
                return
            time.sleep(self.service_s)
            with self.lock:
                self.outstanding -= 1
            ticket.finish()

    def close(self) -> None:
        self.queue.put(None)
        self.thread.join(timeout=5.0)
        assert not self.thread.is_alive()


def finished_ticket(_index: int) -> FakeTicket:
    ticket = FakeTicket()
    ticket.finish()
    return ticket


def test_closed_loop_never_exceeds_its_in_flight_count():
    server = FakeServer(service_s=0.0005)
    try:
        run = loadgen.closed_loop(server.submit, in_flight=4, seconds=0.3, ramp_s=0.05)
    finally:
        server.close()
    assert run.count > 50
    assert run.timed_out == 0
    assert server.max_outstanding <= 4
    assert run.max_in_flight == 4
    # A slot frees before its refill is sent, and latency runs from
    # the submit, so both are non-negative.
    assert (run.lateness_s() >= 0).all()
    assert (run.latencies_s() > 0).all()
    assert 0 < run.throughput_rps() < 1 / 0.0005 * 1.1


def test_closed_loop_times_from_submit():
    run = loadgen.closed_loop(finished_ticket, in_flight=2, seconds=0.05)
    n = run.count
    measured = (run.due[:n] >= run.window[0]) & (run.due[:n] < run.window[1])
    expected = (run.done[:n] - run.submitted[:n])[measured]
    np.testing.assert_array_equal(run.latencies_s(), expected)


def test_open_loop_times_from_due_and_reports_lateness():
    stall_s = 0.05
    offsets = np.arange(20) * 0.002

    def submit(index: int) -> FakeTicket:
        if index == 5:
            time.sleep(stall_s)  # the generator stalls inside one send
        return finished_ticket(index)

    run = loadgen.open_loop(submit, offsets)
    assert run.count == 20 and run.timed_out == 0
    lateness = run.lateness_s()
    latency = run.latencies_s()
    # Request 6 was due 2 ms after request 5 but went out only after
    # the stall, so it is late by most of the stall ...
    assert lateness[6] > stall_s * 0.6
    assert latency[6] >= lateness[6]
    # ... although its own service took no time: latency runs from
    # the due time, not from the (late) submit.
    assert run.done[6] - run.submitted[6] < stall_s * 0.2
    np.testing.assert_allclose(latency, run.done[:20] - run.due[:20])
    assert np.percentile(lateness, 99) > stall_s * 0.6
    assert lateness[:5].max() < stall_s * 0.6


def test_open_loop_keeps_ramp_out_of_the_window():
    offsets = np.arange(10) * 0.001
    run = loadgen.open_loop(finished_ticket, offsets, ramp_s=0.0045)
    assert run.count == 10
    assert len(run.latencies_s()) == 5


def test_windowed_percentile_confines_a_stall_to_its_subwindow():
    run = loadgen.LoadRun(4000, open_loop=True)
    run.count = 4000
    run.window = (0.0, 4.0)
    run.due[:] = np.arange(4000) / 1000.0
    run.submitted[:] = run.due
    latency = np.full(4000, 0.001)
    latency[:100] = 0.5  # one stall, early in the first sub-window
    run.done[:] = run.due + latency
    p99, windows = run.windowed_percentile_s(99, min_samples=1000)
    assert windows == 4
    assert p99 == pytest.approx(0.001)
    assert np.percentile(run.latencies_s(), 99) == pytest.approx(0.5)


def test_poisson_schedule_is_seeded():
    first = loadgen.poisson_schedule(1000.0, 2.0, seed=7)
    again = loadgen.poisson_schedule(1000.0, 2.0, seed=7)
    other = loadgen.poisson_schedule(1000.0, 2.0, seed=8)
    np.testing.assert_array_equal(first, again)
    common = min(len(first), len(other))
    assert not np.array_equal(first[:common], other[:common])
    assert 1800 < len(first) < 2200
    assert (np.diff(first) > 0).all() and 0 <= first[0] and first[-1] < 2.0


def test_request_plan_is_seeded():
    first = loadgen.request_plan([3, 1], 1000, pool=256, targets=4)
    again = loadgen.request_plan([3, 1], 1000, pool=256, targets=4)
    other = loadgen.request_plan([4, 1], 1000, pool=256, targets=4)
    for a, b in zip(first, again):
        np.testing.assert_array_equal(a, b)
    assert not np.array_equal(first[0], other[0])
    assert first[0].max() < 256 and set(np.unique(first[1])) == {0, 1, 2, 3}
