"""The ``Ticket`` contract: blocking reads, callbacks, and errors."""

import threading

import numpy as np
import pytest

from repro.serving import Ticket


class TestResult:
    def test_zero_timeout_on_pending_ticket_raises(self):
        ticket = Ticket(0)
        with pytest.raises(TimeoutError):
            ticket.result(timeout=0)
        assert not ticket.done()

    def test_negative_timeout_on_pending_ticket_raises(self):
        with pytest.raises(TimeoutError):
            Ticket(0).result(timeout=-1.0)

    def test_result_after_completion_needs_no_wait(self):
        ticket = Ticket(0)
        ticket.set_result(np.arange(3.0))
        assert ticket.done()
        np.testing.assert_array_equal(ticket.result(timeout=0), [0.0, 1.0, 2.0])
        # Reading again (with or without a timeout) gives the same row.
        np.testing.assert_array_equal(ticket.result(), [0.0, 1.0, 2.0])

    def test_one_set_result_releases_every_waiter(self):
        ticket = Ticket(0)
        waiters = 8
        started = threading.Barrier(waiters + 1)
        got = []
        lock = threading.Lock()

        def wait():
            started.wait()
            row = ticket.result(timeout=10.0)
            with lock:
                got.append(row)

        threads = [threading.Thread(target=wait) for _ in range(waiters)]
        for thread in threads:
            thread.start()
        started.wait()
        value = np.ones(2)
        ticket.set_result(value)
        for thread in threads:
            thread.join(10.0)
        assert not any(thread.is_alive() for thread in threads)
        assert len(got) == waiters
        assert all(row is value for row in got)


class TestCallbacks:
    def test_callback_added_after_completion_runs_inline(self):
        ticket = Ticket(0)
        ticket.set_result(np.zeros(1))
        seen = []
        ticket.add_done_callback(
            lambda done: seen.append((done, threading.get_ident()))
        )
        assert seen == [(ticket, threading.get_ident())]

    def test_callback_runs_in_the_completing_thread(self):
        ticket = Ticket(0)
        seen = []
        ticket.add_done_callback(lambda done: seen.append(threading.get_ident()))
        assert seen == []
        worker = threading.Thread(target=ticket.set_result, args=(np.zeros(1),))
        worker.start()
        worker.join(10.0)
        assert seen == [worker.ident]

    def test_raising_callback_does_not_stop_later_ones_or_the_worker(self):
        ticket = Ticket(0)
        calls = []

        def broken(done):
            calls.append("broken")
            raise RuntimeError("observer failed")

        ticket.add_done_callback(broken)
        ticket.add_done_callback(lambda done: calls.append("after"))
        ticket.set_result(np.zeros(1))  # must not raise into the worker
        assert calls == ["broken", "after"]
        np.testing.assert_array_equal(ticket.result(timeout=0), [0.0])

    def test_callback_racing_completion_runs_exactly_once(self):
        for _ in range(300):
            ticket = Ticket(0)
            counts = []
            go = threading.Barrier(2)

            def complete():
                go.wait()
                ticket.set_result(np.zeros(1))

            worker = threading.Thread(target=complete)
            worker.start()
            go.wait()
            ticket.add_done_callback(lambda done: counts.append(1))
            worker.join(10.0)
            assert len(counts) == 1
            assert ticket.done()

    def test_second_completion_fires_nothing_more(self):
        ticket = Ticket(0)
        calls = []
        ticket.add_done_callback(lambda done: calls.append(1))
        ticket.set_result(np.zeros(1))
        ticket.set_result(np.ones(1))
        assert calls == [1]
        assert ticket.done()


class TestErrors:
    def test_every_waiter_gets_the_same_instance(self):
        ticket = Ticket(0)
        waiters = 4
        started = threading.Barrier(waiters + 1)
        raised = []
        lock = threading.Lock()

        def wait():
            started.wait()
            try:
                ticket.result(timeout=10.0)
            except RuntimeError as error:
                with lock:
                    raised.append(error)

        threads = [threading.Thread(target=wait) for _ in range(waiters)]
        for thread in threads:
            thread.start()
        started.wait()
        error = RuntimeError("batch failed")
        ticket.set_error(error)
        for thread in threads:
            thread.join(10.0)
        assert len(raised) == waiters
        assert all(seen is error for seen in raised)
        with pytest.raises(RuntimeError) as again:
            ticket.result(timeout=0)
        assert again.value is error
