"""Request queueing and batch coalescing for the serving engine.

Single requests are enqueued with :meth:`RequestQueue.submit` and
coalesced into batches under a :class:`BatchPolicy` — a protocol with
two implementations:

- :class:`StaticBatchPolicy` — the classic dial: a batch closes when it
  reaches ``max_batch_size`` or when ``max_wait_s`` has elapsed since
  the first request in it arrived.
- :class:`CostAwareBatchPolicy` — the batch-close point is derived from
  the model's layer mix through a rebuild cost model: every batch pays
  a fixed install cost (expected rebuild seconds for the layers a
  forward pass pulls through the cache), so the policy keeps waiting
  while amortizing that cost over one more request is worth more than
  the time spent waiting, and closes immediately when the cache is warm
  and a batch costs nothing extra.

Everything here is architecture-agnostic: a request's payload is just an
ndarray (one sample, no batch axis); the engine stacks them on axis 0.
"""

from __future__ import annotations

import copy
import itertools
import threading
import time
from dataclasses import dataclass
from typing import (
    Callable,
    List,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

import numpy as np


def per_ticket_error(error: BaseException) -> BaseException:
    """A fresh exception instance to set on one ticket.

    One batch failure fans out to many tickets, and each ticket's
    ``result()`` may re-raise from a different waiter thread.  Raising
    the *same* instance concurrently mutates its ``__traceback__`` and
    chains ``__context__`` across unrelated callers — so every ticket
    gets its own copy (same type and args where possible, a
    ``RuntimeError`` wrapper otherwise), with the original attached as
    ``__cause__``.
    """
    try:
        clone = copy.copy(error)
    except Exception:
        clone = None
    if clone is error or type(clone) is not type(error):
        clone = RuntimeError(f"batch failed: {error!r}")
    clone.__cause__ = error
    return clone


@runtime_checkable
class BatchPolicy(Protocol):
    """When to close a batch (the protocol).

    ``max_batch_size`` caps how many requests a batch may hold;
    ``wait_budget(pending)`` is how long — in seconds since the batch
    opened — the queue should keep waiting for stragglers given that
    ``pending`` requests have already been collected.  The queue
    re-evaluates the budget on every arrival, so a policy can shrink
    it as the batch grows.
    """

    name: str
    max_batch_size: int

    def wait_budget(self, pending: int) -> float:
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class StaticBatchPolicy:
    """The fixed max-batch / max-wait dial (the classic policy)."""

    max_batch_size: int = 8
    max_wait_s: float = 0.002

    name = "static"

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")

    def wait_budget(self, pending: int) -> float:
        return self.max_wait_s


class CostAwareBatchPolicy:
    """Close batches where the estimated cost curve says to.

    Every batch pays a fixed cost ``C``: the expected rebuild seconds
    to install the model's layer mix through the rebuild cache (from
    :meth:`repro.serving.RebuildEngine.estimated_install_seconds`,
    which prices currently-uncached layers at the cost model's
    per-codec rates).  With ``n`` requests coalesced, each carries
    ``C / n`` of it — so waiting for request ``n + 1`` is worth roughly
    ``C / n`` of extra latency and no more.  The policy therefore sets
    the wait budget to ``min(max_wait_s, C / n)``: expensive layer
    mixes (a thrashing smartexchange cache) grow batches toward
    ``max_batch_size``, while a warm cache (``C ~ 0``) closes batches
    immediately for minimum latency.

    Until :meth:`bind_costs` attaches a cost source the policy behaves
    exactly like :class:`StaticBatchPolicy` (budget = ``max_wait_s``);
    the inference engine binds its rebuild engine automatically.
    """

    name = "cost-aware"

    def __init__(
        self, max_batch_size: int = 32, max_wait_s: float = 0.05
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_s
        self._install_cost: Optional[Callable[[], float]] = None

    def bind_costs(self, source) -> "CostAwareBatchPolicy":
        """Attach the per-batch cost source.

        ``source`` is a rebuild engine (anything exposing
        ``estimated_install_seconds()``) or a zero-argument callable
        returning the expected per-batch install seconds.

        A policy instance prices exactly one engine's cache: rebinding
        to a *different* source raises rather than silently letting a
        second engine's (possibly warm) cache set the first engine's
        wait budget — share the cost *model* across a fleet, not the
        batch policy.
        """
        estimator = getattr(source, "estimated_install_seconds", None)
        if estimator is None:
            estimator = source
        if self._install_cost is not None and self._install_cost != estimator:
            raise ValueError(
                "CostAwareBatchPolicy is already bound to another rebuild "
                "cache; use one policy instance per engine"
            )
        self._install_cost = estimator
        return self

    def expected_batch_seconds(self) -> Optional[float]:
        """The current per-batch fixed cost (None when unbound)."""
        if self._install_cost is None:
            return None
        return max(0.0, float(self._install_cost()))

    def wait_budget(self, pending: int) -> float:
        cost = self.expected_batch_seconds()
        if cost is None:
            return self.max_wait_s
        return min(self.max_wait_s, cost / max(pending, 1))


class Ticket:
    """One enqueued request and the handle ``submit`` returns for it.

    The ticket *is* the queued request: it carries the sample
    (``payload``, no batch axis), its arrival time (``enqueued_at``),
    its observability context (``trace``: a
    :class:`~repro.observability.RequestTrace` opened at submit, or
    ``None`` when tracing is off) and the submitting ``tenant``, which
    is carried independently of tracing so per-tenant metering works
    with observability disabled.  The queue itself reads only
    ``enqueued_at``.

    :meth:`result` blocks until a worker calls :meth:`set_result` or
    :meth:`set_error`.  Completion can also be observed without
    blocking via :meth:`add_done_callback` (this is how the asyncio
    front door bridges worker threads back into an event loop).

    Completion is a latch: a lock acquired at construction and
    released once when the ticket completes.  A waiter acquires it
    and releases it at once, passing it on to the next waiter, so one
    completion wakes every waiter.  A second small lock orders
    callback registration against completion, so each callback runs
    exactly once.
    """

    __slots__ = (
        "request_id",
        "payload",
        "enqueued_at",
        "trace",
        "tenant",
        "_latch",
        "_callback_lock",
        "_callbacks",
        "_done",
        "_result",
        "_error",
    )

    def __init__(
        self,
        request_id: int,
        payload: Optional[np.ndarray] = None,
        enqueued_at: float = 0.0,
        trace: Optional[object] = None,
        tenant: Optional[str] = None,
    ) -> None:
        self.request_id = request_id
        self.payload = payload
        self.enqueued_at = enqueued_at
        self.trace = trace
        self.tenant = tenant
        self._latch = threading.Lock()
        self._latch.acquire()
        self._callback_lock = threading.Lock()
        self._callbacks: List[Callable[["Ticket"], None]] = []
        self._done = False
        self._result: Optional[np.ndarray] = None
        self._error: Optional[BaseException] = None

    def set_result(self, value: np.ndarray) -> None:
        self._result = value
        self._fire()

    def set_error(self, error: BaseException) -> None:
        self._error = error
        self._fire()

    def _fire(self) -> None:
        with self._callback_lock:
            if self._done:
                return
            self._done = True
            callbacks, self._callbacks = self._callbacks, []
        self._latch.release()
        for callback in callbacks:
            try:
                callback(self)
            except Exception:
                # A broken observer (e.g. an asyncio bridge whose event
                # loop already closed) must not propagate into the
                # serving worker that completed the ticket.
                pass

    def add_done_callback(self, fn: Callable[["Ticket"], None]) -> None:
        """Run ``fn(ticket)`` once the ticket completes.

        Runs immediately (in the calling thread) if the ticket is
        already done; otherwise runs in the thread that completes it.
        """
        with self._callback_lock:
            if not self._done:
                self._callbacks.append(fn)
                return
        fn(self)

    def done(self) -> bool:
        # Lock-free on purpose: ``_done`` only ever goes False -> True
        # (a single store under the GIL), so a stale read just reports
        # a ticket as pending a moment longer.
        return self._done  # repro: ignore[LCK001]

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        # Same monotonic flag as done(): once it reads True the result
        # fields were written before it, and the latch is never taken.
        if not self._done:  # repro: ignore[LCK001]
            if timeout is None:
                self._latch.acquire()
            elif not self._latch.acquire(timeout=max(timeout, 0.0)):
                raise TimeoutError(f"request {self.request_id} not done")
            self._latch.release()
        if self._error is not None:
            raise self._error
        return self._result


class QueueClosed(Exception):
    """Raised by ``next_batch`` after ``close()`` drains the queue."""


class RequestQueue:
    """Thread-safe queue that hands out policy-coalesced batches.

    ``submit`` wakes a waiting worker only when that worker's wait can
    end: on the first arrival into an empty queue, when the queue
    reaches ``max_batch_size``, and when the policy's wait budget
    shrinks with the new arrival (a cost-aware policy closing its
    batch early).  Any other arrival would wake a worker collecting
    stragglers only for it to re-check and sleep again.  A take that
    leaves requests queued wakes one more worker to serve them.
    """

    def __init__(self, policy: Optional[BatchPolicy] = None) -> None:
        self.policy = policy or StaticBatchPolicy()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._pending: List[Ticket] = []
        # (pending count, wait budget) as of the latest arrival.
        self._last_budget = (0, 0.0)
        self._closed = False
        self._ids = itertools.count()

    def __len__(self) -> int:
        with self._lock:
            return len(self._pending)

    def submit(self, payload: np.ndarray, trace=None, tenant=None) -> Ticket:
        """Enqueue one sample; returns the ticket to wait on."""
        ticket = Ticket(
            next(self._ids),
            np.asarray(payload),
            time.perf_counter(),
            trace,
            tenant,
        )
        policy = self.policy
        with self._not_empty:
            if self._closed:
                raise QueueClosed("queue is closed")
            pending = self._pending
            pending.append(ticket)
            count = len(pending)
            if count >= policy.max_batch_size:
                self._not_empty.notify()
                return ticket
            # One budget evaluation per arrival: the previous arrival's
            # budget is reused unless a take changed the count since.
            budget = policy.wait_budget(count)
            last_count, last_budget = self._last_budget
            self._last_budget = (count, budget)
            if count > 1 and last_count != count - 1:
                last_budget = policy.wait_budget(count - 1)
            if count == 1 or budget < last_budget:
                self._not_empty.notify()
        return ticket

    def close(self) -> None:
        """No new submissions; ``next_batch`` drains then raises."""
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()

    def next_batch(self, timeout: Optional[float] = None) -> List[Ticket]:
        """Block for the next coalesced batch.

        Waits (up to ``timeout``) for at least one request, then keeps
        collecting until the batch is full or the policy's wait budget
        — re-evaluated after every wait, since a cost-aware policy
        shrinks it as the batch grows — has passed since the *first
        request in the batch arrived*.  The head is re-read after every
        wait: if another worker took the requests this one was
        collecting, it goes back to waiting for a first arrival, so a
        call without ``timeout`` never returns an empty batch.  Raises
        :class:`QueueClosed` once the queue is closed and drained.
        """
        deadline = None if timeout is None else time.perf_counter() + timeout
        policy = self.policy
        with self._not_empty:
            pending = self._pending
            while True:
                if not pending:
                    if self._closed:
                        raise QueueClosed("queue is closed and drained")
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.perf_counter()
                        if remaining <= 0:
                            return []
                    self._not_empty.wait(remaining)
                    continue
                count = len(pending)
                if count >= policy.max_batch_size or self._closed:
                    break
                # The wait budget is anchored to the head request's
                # *arrival*, not to this worker waking up: a request
                # that already queued behind a slow batch has spent its
                # budget and must not pay it a second time.
                remaining = (
                    pending[0].enqueued_at
                    + policy.wait_budget(count)
                    - time.perf_counter()
                )
                if remaining <= 0:
                    break
                self._not_empty.wait(remaining)
            batch = pending[: policy.max_batch_size]
            del pending[: len(batch)]
            if pending:
                self._not_empty.notify()
            return batch


def coalesce(
    inputs: Sequence[np.ndarray], max_batch_size: int
) -> List[List[np.ndarray]]:
    """Offline batching: greedily group samples into full batches."""
    if max_batch_size < 1:
        raise ValueError("max_batch_size must be >= 1")
    inputs = list(inputs)
    return [
        inputs[start : start + max_batch_size]
        for start in range(0, len(inputs), max_batch_size)
    ]


def stack_batch(requests: Sequence[Ticket]) -> np.ndarray:
    """Stack request payloads into the (N, ...) model input."""
    return np.stack([request.payload for request in requests], axis=0)
