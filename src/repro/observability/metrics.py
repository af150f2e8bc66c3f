"""Typed metric instruments and the registry that exports them.

The registry is the single store serving counters live in: the stats
accumulators in :mod:`repro.serving.stats` and the rebuild-cache
counters in :mod:`repro.serving.rebuild` hold :class:`Counter` /
:class:`Gauge` / :class:`Histogram` instruments created here and read
their summary numbers back out of them, so one
:meth:`MetricsRegistry.to_prometheus_text` (or
:meth:`MetricsRegistry.to_json`) call exports exactly the values the
summaries report — no second bookkeeping path to drift.

Naming scheme (Prometheus conventions):

- every metric is prefixed ``repro_<subsystem>_`` (``repro_serving_``,
  ``repro_rebuild_``, ``repro_host_``);
- monotonic counts end in ``_total``; unit-carrying counters name the
  unit (``_seconds_total``, ``_bytes_total``);
- per-worker / per-policy / per-engine slices are label dimensions
  (``tags``), not name suffixes.

Instruments are individually thread-safe (one small lock each) and a
``(name, tags)`` pair resolves to one instrument per registry —
get-or-create, so two components asking for the same series share it.
Snapshots are pull-based and safe to take from a live fleet: they copy
values under each instrument's lock without stopping writers.
"""

from __future__ import annotations

import bisect
import json
import math
import threading
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
]

# Latency buckets (seconds) for serving histograms: four bounds per
# octave from 2**-17 s (7.6 us) to 2**7 s (128 s), 97 in all.  Adjacent
# bounds are 19% apart, so a quantile interpolated inside one bucket
# lands within a few percent of the exact sample percentile.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    2.0 ** (k / 4) for k in range(-17 * 4, 7 * 4 + 1)
)

Tags = Mapping[str, str]
_TagsKey = Tuple[Tuple[str, str], ...]


def _tags_key(tags: Optional[Tags]) -> _TagsKey:
    if not tags:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in tags.items()))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_tags(tags: _TagsKey) -> str:
    if not tags:
        return ""
    inner = ",".join(f'{key}="{_escape_label(value)}"' for key, value in tags)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Instrument:
    """Shared shape: name, tag set, a lock, and a snapshot form."""

    kind = "untyped"

    __slots__ = ("name", "tags", "_lock")

    def __init__(self, name: str, tags: _TagsKey) -> None:
        self.name = name
        self.tags = tags
        self._lock = threading.Lock()

    @property
    def tag_dict(self) -> Dict[str, str]:
        return dict(self.tags)


class Counter(_Instrument):
    """Monotonically increasing count (requests served, bytes rebuilt).

    ``set`` exists so a stats accumulator's ``reset()`` can zero its
    counters in place — a deliberate local-tooling departure from
    strict Prometheus counter semantics, documented at the call sites.
    """

    kind = "counter"

    __slots__ = ("_value",)

    def __init__(self, name: str, tags: _TagsKey) -> None:
        super().__init__(name, tags)
        self._value = 0.0

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += amount

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def reset(self) -> None:
        self.set(0.0)


class Gauge(_Instrument):
    """A value that goes both ways (resident cache bytes, queue depth)."""

    kind = "gauge"

    __slots__ = ("_value",)

    def __init__(self, name: str, tags: _TagsKey) -> None:
        super().__init__(name, tags)
        self._value = 0.0

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def reset(self) -> None:
        self.set(0.0)


class Histogram(_Instrument):
    """Fixed-bucket distribution (latencies, batch sizes).

    Stores one count per bucket plus sum, count, and the smallest and
    largest finite values seen, so its memory does not grow with the
    number of observations; :meth:`quantile` reads percentiles back
    out of the counts.  Export follows the Prometheus convention of
    *cumulative* ``_bucket{le=...}`` lines with a closing
    ``le="+Inf"``.
    """

    kind = "histogram"

    __slots__ = ("buckets", "_counts", "_sum", "_count", "_min", "_max")

    def __init__(
        self,
        name: str,
        tags: _TagsKey,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, tags)
        cleaned = tuple(sorted(float(b) for b in buckets))
        if not cleaned:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = cleaned
        self._counts = [0] * (len(cleaned) + 1)  # final slot = +Inf
        self._sum = 0.0
        self._count = 0
        self._min = math.inf  # finite observations only
        self._max = -math.inf

    def _bucket(self, value: float) -> int:
        # First bound >= value; NaN compares false everywhere and
        # lands in +Inf, like every value past the last bound.
        if value != value:
            return len(self.buckets)
        return bisect.bisect_left(self.buckets, value)

    def observe(self, value: float) -> None:
        value = float(value)
        index = self._bucket(value)
        finite = math.isfinite(value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if finite:
                self._min = min(self._min, value)
                self._max = max(self._max, value)

    def observe_many(self, values: Iterable[float]) -> None:
        """Observe each value in order, under one lock acquisition
        (same state and the same float sum as one ``observe`` each)."""
        values = [float(value) for value in values]
        indices = [self._bucket(value) for value in values]
        finite = [value for value in values if math.isfinite(value)]
        with self._lock:
            counts = self._counts
            for index, value in zip(indices, values):
                counts[index] += 1
                self._sum += value
            self._count += len(values)
            if finite:
                self._min = min(self._min, *finite)
                self._max = max(self._max, *finite)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (``0 <= q <= 1``) of the observations.

        Finds the bucket holding rank ``q * count`` and interpolates
        inside it, geometrically (linearly when the bucket starts at or
        below zero), between its bounds clamped to the smallest and
        largest finite values observed: one sample, or many equal
        samples, come back exactly.  0.0 before any finite observation.
        """
        with self._lock:
            counts = list(self._counts)
            low, high = self._min, self._max
        if low > high:
            return 0.0
        rank = min(max(q, 0.0), 1.0) * sum(counts)
        running = 0
        for index, count in enumerate(counts):
            if count and running + count >= rank:
                break
            running += count
        bounds = self.buckets
        lower = max(bounds[index - 1], low) if index else low
        upper = min(bounds[index], high) if index < len(bounds) else high
        fraction = (rank - running) / count
        if lower > 0.0:
            value = lower * (upper / lower) ** fraction
        else:
            value = lower + (upper - lower) * fraction
        return min(max(value, low), high)

    def snapshot(self) -> Dict:
        """Cumulative ``[bound, count]`` pairs plus sum/count."""
        with self._lock:
            counts = list(self._counts)
            total, sum_ = self._count, self._sum
        cumulative: List[List] = []
        running = 0
        for bound, count in zip(self.buckets, counts):
            running += count
            cumulative.append([bound, running])
        cumulative.append([math.inf, total])
        return {"buckets": cumulative, "sum": sum_, "count": total}

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.buckets) + 1)
            self._sum = 0.0
            self._count = 0
            self._min = math.inf
            self._max = -math.inf


class MetricsRegistry:
    """Get-or-create store of typed instruments with exporters.

    One registry per engine (its stats accumulators allocate their
    instruments out of it); a shared
    :class:`~repro.observability.Observability` handle merges several
    registries into one fleet-wide export, labelling each source.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._series: "Dict[Tuple[str, _TagsKey], _Instrument]" = {}
        self._meta: Dict[str, Tuple[str, str]] = {}  # name -> (kind, help)

    # ------------------------------------------------------------------
    def _get_or_create(
        self,
        cls,
        name: str,
        help_text: str,
        tags: Optional[Tags],
        **kwargs,
    ):
        key = (name, _tags_key(tags))
        with self._lock:
            existing = self._series.get(key)
            if existing is not None:
                if existing.kind != cls.kind:
                    raise ValueError(
                        f"metric {name!r} is a {existing.kind}, not a "
                        f"{cls.kind}"
                    )
                return existing
            meta = self._meta.get(name)
            if meta is not None and meta[0] != cls.kind:
                raise ValueError(
                    f"metric {name!r} already registered as a {meta[0]}"
                )
            instrument = cls(name, key[1], **kwargs)
            self._series[key] = instrument
            if meta is None or (not meta[1] and help_text):
                self._meta[name] = (cls.kind, help_text)
            return instrument

    def counter(
        self, name: str, help_text: str = "", tags: Optional[Tags] = None
    ) -> Counter:
        return self._get_or_create(Counter, name, help_text, tags)

    def gauge(
        self, name: str, help_text: str = "", tags: Optional[Tags] = None
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, tags)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        tags: Optional[Tags] = None,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help_text, tags, buckets=buckets
        )

    # ------------------------------------------------------------------
    def instruments(self) -> List[_Instrument]:
        """Every registered instrument, ordered by (name, tags)."""
        with self._lock:
            items = sorted(self._series.items(), key=lambda kv: kv[0])
        return [instrument for _, instrument in items]

    def series(self, name: str) -> List[_Instrument]:
        """Every instrument registered under ``name`` (any tag set)."""
        with self._lock:
            items = sorted(
                (key, inst)
                for key, inst in self._series.items()
                if key[0] == name
            )
        return [instrument for _, instrument in items]

    def remove(self, name: str) -> int:
        """Drop every series of ``name``; returns how many were dropped."""
        with self._lock:
            keys = [key for key in self._series if key[0] == name]
            for key in keys:
                del self._series[key]
            self._meta.pop(name, None)
        return len(keys)

    def reset(self) -> None:
        """Zero every instrument in place (series stay registered)."""
        for instrument in self.instruments():
            instrument.reset()

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------
    def snapshot(self, extra_tags: Optional[Tags] = None) -> List[Dict]:
        """Pull-based snapshot: one dict per series, safe on a live
        fleet (each value copied under its instrument's lock)."""
        extra = dict(extra_tags or {})
        out: List[Dict] = []
        with self._lock:
            meta = dict(self._meta)
        for instrument in self.instruments():
            tags = {**instrument.tag_dict, **extra}
            entry: Dict = {
                "name": instrument.name,
                "type": instrument.kind,
                "help": meta.get(instrument.name, (instrument.kind, ""))[1],
                "tags": tags,
            }
            if isinstance(instrument, Histogram):
                entry.update(instrument.snapshot())
            else:
                entry["value"] = instrument.value
            out.append(entry)
        return out

    def to_json(self, extra_tags: Optional[Tags] = None) -> str:
        """The snapshot as a JSON document (``{"metrics": [...]}``)."""
        snapshot = self.snapshot(extra_tags)
        for entry in snapshot:
            if "buckets" in entry:
                entry["buckets"] = [
                    ["+Inf" if math.isinf(bound) else bound, count]
                    for bound, count in entry["buckets"]
                ]
        return json.dumps({"metrics": snapshot}, sort_keys=True)

    def to_prometheus_text(self, extra_tags: Optional[Tags] = None) -> str:
        """Prometheus text exposition format (0.0.4)."""
        return render_prometheus(self.snapshot(extra_tags))


def render_prometheus(snapshot: Iterable[Dict]) -> str:
    """Render snapshot entries (from one or many registries) as
    Prometheus text; entries are grouped by metric name so each gets a
    single ``# HELP`` / ``# TYPE`` header."""
    grouped: "Dict[str, List[Dict]]" = {}
    for entry in snapshot:
        grouped.setdefault(entry["name"], []).append(entry)
    lines: List[str] = []
    for name in sorted(grouped):
        entries = grouped[name]
        help_text = next((e["help"] for e in entries if e.get("help")), "")
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {entries[0]['type']}")
        for entry in entries:
            tags = _tags_key(entry.get("tags"))
            if entry["type"] == "histogram":
                for bound, count in entry["buckets"]:
                    le = "+Inf" if math.isinf(bound) else _format_value(bound)
                    bucket_tags = tags + (("le", le),)
                    lines.append(
                        f"{name}_bucket{_render_tags(bucket_tags)} {count}"
                    )
                lines.append(
                    f"{name}_sum{_render_tags(tags)} "
                    f"{_format_value(entry['sum'])}"
                )
                lines.append(
                    f"{name}_count{_render_tags(tags)} {entry['count']}"
                )
            else:
                lines.append(
                    f"{name}{_render_tags(tags)} "
                    f"{_format_value(entry['value'])}"
                )
    return "\n".join(lines) + ("\n" if lines else "")
