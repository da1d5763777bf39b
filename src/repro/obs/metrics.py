"""The service's metrics registry: counters, gauges, histograms, exposition.

The serving stack (scheduler, dispatch loop, WAL, ledger, buffer pool)
records its operational telemetry here so an operator can answer "which
table's scans are hot, how long do WAL fsyncs take, how close is a
principal to its cap" without reading test code. Design constraints, in
order:

* **Cheap enough to stay on.** Every hot-path record — a counter
  increment, a histogram observation — is a few dict operations under a
  per-metric lock, O(1) in the metric's history. Nothing here runs in
  the scan inner loop: instrumentation happens at scan/window/sync
  granularity, and the expensive reads (per-table pool counters, ledger
  statements) are *sampled* by collector callbacks only when someone
  actually renders the metrics.
* **Two exposition formats.** :meth:`MetricsRegistry.render_prometheus`
  emits the Prometheus text format (``# HELP``/``# TYPE`` + samples,
  histograms as cumulative ``_bucket{le=}``/``_sum``/``_count``);
  :meth:`MetricsRegistry.render_json` emits a plain-JSON document that
  round-trips through ``json.dumps``/``loads`` unchanged.
* **A no-op twin.** :func:`disabled` returns a registry whose metrics
  swallow every record — the control arm of the overhead benchmark
  (``bench_service.py --observability``), and the zero-cost default for
  components constructed outside a :class:`TrainingService`.

Naming convention: ``repro_<layer>_<name>{labels}`` — e.g.
``repro_scan_duration_seconds{table=}``, ``repro_ledger_epsilon_spent
{principal=,table=}``. Counters end in ``_total``.
"""

from __future__ import annotations

import bisect
import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "disabled",
]

#: Fixed latency buckets (seconds) used unless a histogram asks for its
#: own — spanning sub-millisecond fsyncs to multi-second scan flights.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or not set(name) <= _NAME_OK:
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _format_value(value: float) -> str:
    """Prometheus sample-value formatting: integral values print without
    a fractional part, everything else as the float's shortest repr."""
    number = float(value)
    if number.is_integer() and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(labelnames: Sequence[str], key: Tuple[str, ...],
                   extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = [f'{name}="{_escape_label(value)}"'
             for name, value in zip(labelnames, key)]
    if extra is not None:
        pairs.append(f'{extra[0]}="{extra[1]}"')
    return "{" + ",".join(pairs) + "}" if pairs else ""


class _Metric:
    """Shared plumbing: name/help/labelnames, the per-label sample map."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()):
        self.name = _check_name(name)
        self.help = str(help)
        self.labelnames = tuple(str(label) for label in labelnames)
        self._lock = threading.Lock()
        self._samples: Dict[Tuple[str, ...], object] = {}

    def _key(self, labels: Dict[str, object]) -> Tuple[str, ...]:
        if not self.labelnames:
            if labels:
                raise ValueError(
                    f"metric {self.name} takes no labels, got {sorted(labels)}"
                )
            return ()
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name} needs labels {self.labelnames}, "
                f"got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def clear(self) -> None:
        with self._lock:
            self._samples.clear()


class Counter(_Metric):
    """A monotonically-increasing count (rendered with a ``_total`` name)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up (inc {amount})")
        key = self._key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + amount

    def set_total(self, value: float, **labels: object) -> None:
        """Collector-only: overwrite the running total with the ground
        truth sampled from the instrumented object (e.g. the result
        cache's own hit counter). Hot paths must use :meth:`inc`."""
        self._samples[self._key(labels)] = float(value)

    def value(self, **labels: object) -> float:
        with self._lock:
            return float(self._samples.get(self._key(labels), 0.0))

    def samples(self) -> List[Tuple[Tuple[str, ...], float]]:
        with self._lock:
            return sorted((key, float(v)) for key, v in self._samples.items())


class Gauge(_Metric):
    """A value that goes up and down (pool occupancy, budget spent)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        self._samples[self._key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        with self._lock:
            return float(self._samples.get(self._key(labels), 0.0))

    def samples(self) -> List[Tuple[Tuple[str, ...], float]]:
        with self._lock:
            return sorted((key, float(v)) for key, v in self._samples.items())


class _HistogramSample:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, num_buckets: int):
        self.counts = [0] * num_buckets
        self.sum = 0.0
        self.count = 0


class Histogram(_Metric):
    """Fixed-bucket histogram; one observation is O(log buckets)."""

    kind = "histogram"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        super().__init__(name, help, labelnames)
        bounds = tuple(float(edge) for edge in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"histogram {name} needs strictly-increasing buckets, "
                f"got {buckets}"
            )
        self.buckets = bounds

    def observe(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        number = float(value)
        index = bisect.bisect_left(self.buckets, number)
        with self._lock:
            sample = self._samples.get(key)
            if sample is None:
                sample = self._samples[key] = _HistogramSample(len(self.buckets))
            if index < len(sample.counts):
                sample.counts[index] += 1
            sample.sum += number
            sample.count += 1

    def count(self, **labels: object) -> int:
        with self._lock:
            sample = self._samples.get(self._key(labels))
            return 0 if sample is None else sample.count

    def sum(self, **labels: object) -> float:
        with self._lock:
            sample = self._samples.get(self._key(labels))
            return 0.0 if sample is None else sample.sum

    def samples(self) -> List[Tuple[Tuple[str, ...], List[int], float, int]]:
        with self._lock:
            return sorted(
                (key, list(s.counts), s.sum, s.count)
                for key, s in self._samples.items()
            )


class MetricsRegistry:
    """Thread-safe registry of named metrics plus exposition.

    ``counter``/``gauge``/``histogram`` are get-or-create (idempotent by
    name; re-requesting a name with a different kind or label set is a
    programming error and raises). ``add_collector`` registers a
    callback run before every render — the sampling hook through which
    the service folds ground truth it does not event-instrument (pool
    counters, ledger statements, cache hit totals) into gauges.
    """

    enabled = True

    def __init__(self) -> None:
        self._metrics: "OrderedDict[str, _Metric]" = OrderedDict()
        self._lock = threading.Lock()
        self._collectors: List[Callable[[], None]] = []

    def _get_or_create(self, cls, name: str, help: str,
                       labelnames: Sequence[str], **kwargs) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help, labelnames, **kwargs)
                self._metrics[name] = metric
                return metric
        if not isinstance(metric, cls) or metric.labelnames != tuple(labelnames):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind} with "
                f"labels {metric.labelnames}; cannot re-register as "
                f"{cls.kind} with labels {tuple(labelnames)}"
            )
        return metric

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return list(self._metrics)

    def add_collector(self, collector: Callable[[], None]) -> None:
        with self._lock:
            self._collectors.append(collector)

    def collect(self) -> None:
        """Run the sampling collectors (outside the registry lock — a
        collector is free to create/set metrics)."""
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            collector()

    # -- exposition --------------------------------------------------------------

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        self.collect()
        with self._lock:
            metrics = list(self._metrics.values())
        lines: List[str] = []
        for metric in metrics:
            lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, Histogram):
                for key, counts, total, count in metric.samples():
                    cumulative = 0
                    for edge, bucket_count in zip(metric.buckets, counts):
                        cumulative += bucket_count
                        labels = _render_labels(
                            metric.labelnames, key, ("le", _format_value(edge))
                        )
                        lines.append(
                            f"{metric.name}_bucket{labels} {cumulative}"
                        )
                    labels = _render_labels(metric.labelnames, key, ("le", "+Inf"))
                    lines.append(f"{metric.name}_bucket{labels} {count}")
                    plain = _render_labels(metric.labelnames, key)
                    lines.append(f"{metric.name}_sum{plain} {_format_value(total)}")
                    lines.append(f"{metric.name}_count{plain} {count}")
            else:
                for key, value in metric.samples():
                    labels = _render_labels(metric.labelnames, key)
                    lines.append(f"{metric.name}{labels} {_format_value(value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def render_json(self) -> dict:
        """A JSON-native dump: plain dicts/lists/numbers/strings only, so
        ``json.loads(json.dumps(dump)) == dump`` holds exactly."""
        self.collect()
        with self._lock:
            metrics = list(self._metrics.values())
        documents = []
        for metric in metrics:
            entry: dict = {
                "name": metric.name,
                "type": metric.kind,
                "help": metric.help,
                "labelnames": list(metric.labelnames),
            }
            if isinstance(metric, Histogram):
                entry["buckets"] = [float(edge) for edge in metric.buckets]
                entry["samples"] = [
                    {
                        "labels": dict(zip(metric.labelnames, key)),
                        "counts": list(counts),
                        "sum": float(total),
                        "count": int(count),
                    }
                    for key, counts, total, count in metric.samples()
                ]
            else:
                entry["samples"] = [
                    {
                        "labels": dict(zip(metric.labelnames, key)),
                        "value": float(value),
                    }
                    for key, value in metric.samples()
                ]
            documents.append(entry)
        return {"format": "repro-metrics/v1", "metrics": documents}


class _NullMetric:
    """Accepts every record and keeps nothing."""

    kind = "null"
    name = "null"
    labelnames = ()

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        pass

    def set(self, value: float, **labels: object) -> None:
        pass

    def set_total(self, value: float, **labels: object) -> None:
        pass

    def observe(self, value: float, **labels: object) -> None:
        pass

    def value(self, **labels: object) -> float:
        return 0.0

    def count(self, **labels: object) -> int:
        return 0

    def sum(self, **labels: object) -> float:
        return 0.0

    def samples(self) -> list:
        return []

    def clear(self) -> None:
        pass


_NULL_METRIC = _NullMetric()


class NullMetricsRegistry(MetricsRegistry):
    """The disabled twin: same surface, every record a no-op.

    The control arm of the observability overhead benchmark — construct
    a service with ``metrics=obs.disabled()`` and the instrumentation
    points cost one attribute lookup and a swallowed call. Collectors
    are dropped at registration, so rendering is trivially empty.
    """

    enabled = False

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return _NULL_METRIC  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return _NULL_METRIC  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> Histogram:
        return _NULL_METRIC  # type: ignore[return-value]

    def add_collector(self, collector: Callable[[], None]) -> None:
        pass

    def collect(self) -> None:
        pass

    def render_prometheus(self) -> str:
        return ""

    def render_json(self) -> dict:
        return {"format": "repro-metrics/v1", "metrics": []}


def disabled() -> NullMetricsRegistry:
    """A registry that records nothing — the overhead bench's control
    arm, and the default for components built outside a service."""
    return NullMetricsRegistry()
