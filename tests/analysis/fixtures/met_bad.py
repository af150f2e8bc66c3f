"""Metrics-schema violations: a name without the ``repro_`` prefix, a
counter decremented outside any reset path, a property setter that
overwrites a counter, and one metric name registered with two
different label-key schemas."""


class BadStats:
    def __init__(self, registry):
        self.requests = registry.counter(
            "serving_requests_total", "requests served"
        )
        self.inflight = registry.gauge("repro_serving_inflight", "in flight")

    def rollback(self, count):
        self.requests.dec(count)

    @property
    def served(self):
        return self.requests.value

    @served.setter
    def served(self, value):
        self.requests.set(value)


def register_by_engine(registry, engine):
    registry.counter(
        "repro_host_routed_total", "routed requests", tags={"engine": engine}
    )


def register_by_model(registry, model):
    registry.counter(
        "repro_host_routed_total", "routed requests", tags={"model": model}
    )
