"""Batch coalescing policy and the request queue."""

import threading
import time

import numpy as np
import pytest

from repro.serving import (
    CostAwareBatchPolicy,
    StaticBatchPolicy,
    QueueClosed,
    RequestQueue,
    coalesce,
    stack_batch,
)


class TestBatchPolicy:
    def test_defaults(self):
        policy = StaticBatchPolicy()
        assert policy.max_batch_size >= 1
        assert policy.max_wait_s >= 0

    @pytest.mark.parametrize("size,wait", [(0, 0.0), (-1, 0.0), (1, -0.1)])
    def test_invalid_rejected(self, size, wait):
        with pytest.raises(ValueError):
            StaticBatchPolicy(max_batch_size=size, max_wait_s=wait)


class TestCoalesce:
    def test_groups_full_batches(self):
        groups = coalesce([np.zeros(2)] * 10, max_batch_size=4)
        assert [len(g) for g in groups] == [4, 4, 2]

    def test_empty(self):
        assert coalesce([], max_batch_size=4) == []

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            coalesce([np.zeros(2)], max_batch_size=0)


class TestRequestQueue:
    def test_coalesces_up_to_max_batch(self):
        queue = RequestQueue(StaticBatchPolicy(max_batch_size=3, max_wait_s=0.01))
        tickets = [queue.submit(np.full(2, i)) for i in range(5)]
        first = queue.next_batch()
        second = queue.next_batch()
        assert [len(first), len(second)] == [3, 2]
        assert [r.request_id for r in first] == [t.request_id for t in tickets[:3]]

    def test_stack_batch_shape_and_order(self):
        queue = RequestQueue(StaticBatchPolicy(max_batch_size=4, max_wait_s=0.0))
        for i in range(3):
            queue.submit(np.full((2, 2), float(i)))
        batch = stack_batch(queue.next_batch())
        assert batch.shape == (3, 2, 2)
        np.testing.assert_array_equal(batch[:, 0, 0], [0.0, 1.0, 2.0])

    def test_waits_for_stragglers(self):
        queue = RequestQueue(StaticBatchPolicy(max_batch_size=2, max_wait_s=0.5))
        queue.submit(np.zeros(1))

        def late_submit():
            time.sleep(0.05)
            queue.submit(np.ones(1))

        thread = threading.Thread(target=late_submit)
        thread.start()
        batch = queue.next_batch()
        thread.join()
        assert len(batch) == 2  # straggler made it within max_wait_s

    def test_timeout_returns_empty(self):
        queue = RequestQueue(StaticBatchPolicy(max_batch_size=2, max_wait_s=0.0))
        assert queue.next_batch(timeout=0.01) == []

    def test_close_drains_then_raises(self):
        queue = RequestQueue(StaticBatchPolicy(max_batch_size=8, max_wait_s=0.0))
        queue.submit(np.zeros(1))
        queue.close()
        assert len(queue.next_batch()) == 1
        with pytest.raises(QueueClosed):
            queue.next_batch()
        with pytest.raises(QueueClosed):
            queue.submit(np.zeros(1))

    def test_ticket_result_timeout(self):
        queue = RequestQueue()
        ticket = queue.submit(np.zeros(1))
        assert not ticket.done()
        with pytest.raises(TimeoutError):
            ticket.result(timeout=0.01)

    def test_ticket_error_propagates(self):
        queue = RequestQueue()
        ticket = queue.submit(np.zeros(1))
        ticket.set_error(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            ticket.result(timeout=1.0)


class TestWaitBudgetAnchor:
    """The batch wait budget starts when the first request *arrived*.

    Regression: ``next_batch`` used to re-anchor the budget to the
    moment the worker dequeued (``opened_at = perf_counter()``), so a
    request that had already queued behind a slow batch paid the full
    wait budget a second time.
    """

    def test_aged_request_closes_immediately(self):
        queue = RequestQueue(
            StaticBatchPolicy(max_batch_size=8, max_wait_s=0.2)
        )
        queue.submit(np.zeros(1))
        time.sleep(0.25)  # the request outlives its whole budget queued
        start = time.perf_counter()
        batch = queue.next_batch()
        elapsed = time.perf_counter() - start
        assert len(batch) == 1
        # Budget spent while queued: no second wait. Pre-fix this
        # waited the full 0.2 s again.
        assert elapsed < 0.1

    def test_fresh_request_still_waits_for_stragglers(self):
        queue = RequestQueue(
            StaticBatchPolicy(max_batch_size=2, max_wait_s=0.5)
        )
        queue.submit(np.zeros(1))

        def late_submit():
            time.sleep(0.05)
            queue.submit(np.ones(1))

        thread = threading.Thread(target=late_submit)
        thread.start()
        batch = queue.next_batch()
        thread.join()
        assert len(batch) == 2  # budget anchored at arrival still open

    def test_anchor_stress(self):
        """50 iterations: an aged request must never wait again."""
        for _ in range(50):
            queue = RequestQueue(
                StaticBatchPolicy(max_batch_size=8, max_wait_s=0.05)
            )
            queue.submit(np.zeros(1))
            time.sleep(0.06)
            start = time.perf_counter()
            batch = queue.next_batch()
            elapsed = time.perf_counter() - start
            assert len(batch) == 1
            assert elapsed < 0.04


def _consume(queue, out, **kwargs):
    """Run one ``next_batch`` on a thread; records (batch, return time)."""

    def run():
        batch = queue.next_batch(**kwargs)
        out.append((batch, time.perf_counter()))

    thread = threading.Thread(target=run)
    thread.start()
    return thread


class TestTwoConsumers:
    """Two workers collecting the same head request.

    Regression: ``next_batch`` read the head's arrival once, so after
    the other worker took that batch it kept the stale anchor.  It
    then closed a later request's batch early, or, waking after the
    stale budget with the queue empty, returned an empty batch from a
    blocking call.
    """

    def _race(self, late_delay_s):
        queue = RequestQueue(StaticBatchPolicy(max_batch_size=4, max_wait_s=0.05))
        results = []
        queue.submit(np.zeros(1))
        threads = [_consume(queue, results)]
        time.sleep(0.01)
        threads.append(_consume(queue, results))
        time.sleep(0.005)
        for i in range(3):  # fills the first batch: one consumer takes it
            queue.submit(np.full(1, i + 1.0))
        time.sleep(late_delay_s)
        late = queue.submit(np.full(1, 9.0))
        for thread in threads:
            thread.join(5.0)
        assert not any(thread.is_alive() for thread in threads)
        return late, results

    def test_late_request_gets_its_own_full_budget(self):
        late, results = self._race(late_delay_s=0.005)
        sizes = sorted(len(batch) for batch, _ in results)
        assert sizes == [1, 4]
        ((batch, returned),) = [r for r in results if len(r[0]) == 1]
        assert batch[0] is late
        # Anchored at its own arrival: a full 50 ms wait.  The stale
        # anchor closed it about 30 ms after arrival.
        assert returned - late.enqueued_at >= 0.045

    def test_blocking_call_never_returns_an_empty_batch(self):
        # The late request arrives after the stale anchor's budget ran
        # out, so the second consumer wakes to an empty queue first.
        late, results = self._race(late_delay_s=0.08)
        assert sorted(len(batch) for batch, _ in results) == [1, 4]
        assert any(batch == [late] for batch, _ in results)


class TestWakeRule:
    def test_shrinking_cost_aware_budget_closes_early(self):
        # A fixed 0.4 s per-batch cost: the budget is 0.4 s for one
        # request and 0.1 s for four (capped by max_wait_s = 1 s).
        policy = CostAwareBatchPolicy(max_batch_size=16, max_wait_s=1.0)
        policy.bind_costs(lambda: 0.4)
        queue = RequestQueue(policy)
        results = []
        first = queue.submit(np.zeros(1))
        thread = _consume(queue, results)
        time.sleep(0.02)
        for _ in range(3):
            queue.submit(np.zeros(1))
        thread.join(5.0)
        ((batch, returned),) = results
        assert len(batch) == 4
        elapsed = returned - first.enqueued_at
        # Closed at the shrunk 0.1 s budget, not the first 0.4 s one.
        assert 0.095 <= elapsed < 0.3

    def test_static_batch_one_short_of_full_waits_its_budget(self):
        queue = RequestQueue(StaticBatchPolicy(max_batch_size=16, max_wait_s=0.1))
        results = []
        first = queue.submit(np.zeros(1))
        thread = _consume(queue, results)
        for _ in range(14):
            time.sleep(0.001)
            queue.submit(np.zeros(1))
        thread.join(5.0)
        ((batch, returned),) = results
        assert len(batch) == 15
        assert returned - first.enqueued_at >= 0.1


class TestWaitBudgetCalls:
    def test_one_budget_evaluation_per_arrival(self):
        class CountingPolicy:
            name = "counting"
            max_batch_size = 16

            def __init__(self):
                self.calls = 0

            def wait_budget(self, pending):
                self.calls += 1
                return 1.0 / pending

        policy = CountingPolicy()
        queue = RequestQueue(policy)
        for _ in range(15):
            queue.submit(np.zeros(1))
        assert len(queue) == 15
        assert policy.calls <= 15
