"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

Zero-dependency observability substrate.  Components own a private
:class:`MetricsRegistry` (so per-instance accounting such as the engine's
mask-cache hit counters keeps its seed semantics), and every non-standalone
registry is attached to the single process registry, whose
:meth:`~MetricsRegistry.snapshot` aggregates the whole process:

* live child registries are merged on demand (counters and histograms sum,
  gauges take the child's value);
* a child that is garbage-collected first *folds* its final totals into the
  process registry, so aggregated counter totals are monotone even when the
  instrumented object was short-lived (benchmark kernels, per-target
  tracker databases).

Thread model: counters and histograms take a per-metric lock on update,
so concurrent increments from the serving/load-generation threads never
lose updates (gauges stay lock-free — last-write-wins is their contract).
Registry structure (metric creation, child adoption, snapshots) is
guarded by a per-registry lock.  Fold-on-death is the delicate case: a
``weakref.finalize`` callback can run on *any* thread at *any* allocation
point, including while a metric or registry lock is held lower in the
same stack — so :meth:`MetricsRegistry._fold` takes no locks at all; it
parks the dead child's metrics on a lock-free deque that
:meth:`~MetricsRegistry.snapshot` and :meth:`~MetricsRegistry.reset`
absorb under the registry lock.
"""

from __future__ import annotations

import threading
import weakref
from bisect import bisect_left
from collections import deque

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "process_registry",
]

#: Default histogram bucket upper bounds, in seconds (latency-shaped).
DEFAULT_BUCKETS = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)


class Counter:
    """A monotonically increasing count (hits, bytes, refusals)."""

    __slots__ = ("name", "value", "_lock")
    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, n: int | float = 1) -> None:
        """Add *n* (default 1) to the count; exact under concurrency."""
        # acquire/release rather than ``with``, as in Histogram.observe.
        lock = self._lock
        lock.acquire()
        try:
            self.value += n
        finally:
            lock.release()

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A last-write-wins instantaneous value (k achieved, IL1s)."""

    __slots__ = ("name", "value")
    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value})"


class Histogram:
    """Fixed-bucket histogram (cumulative-style upper bounds + overflow).

    ``bounds`` are sorted upper edges; an observation lands in the first
    bucket whose bound is >= the value, or in the implicit ``+inf``
    overflow bucket.  Bounds are fixed at creation so merging histograms
    of the same name is exact.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total",
                 "exemplar_value", "exemplar_label", "_lock")
    kind = "histogram"

    def __init__(self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be non-empty and sorted")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.exemplar_value = None
        self.exemplar_label = None
        self._lock = threading.Lock()

    def observe(self, value: float, exemplar: str | None = None) -> None:
        """Record one observation; exact under concurrency.

        When *exemplar* (a trace id) is given and *value* is the worst
        seen so far, it becomes the histogram's exemplar — the
        worst-offender pointer exported alongside the buckets.
        """
        # acquire/release rather than ``with``: a traced serving request
        # makes seven observations, and on CPython 3.11 the with
        # statement costs about twice the lock round trip it wraps.
        lock = self._lock
        lock.acquire()
        try:
            self.bucket_counts[bisect_left(self.bounds, value)] += 1
            self.count += 1
            self.total += value
            if exemplar is not None and (
                self.exemplar_value is None or value > self.exemplar_value
            ):
                self.exemplar_value = value
                self.exemplar_label = exemplar
        finally:
            lock.release()

    @property
    def mean(self) -> float:
        """Mean of the observed values (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        """JSON-friendly summary of the histogram state."""
        labels = [f"le_{b:g}" for b in self.bounds] + ["inf"]
        data = {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "buckets": dict(zip(labels, self.bucket_counts)),
        }
        if self.exemplar_label is not None:
            data["exemplar"] = {
                "trace_id": self.exemplar_label,
                "value": self.exemplar_value,
            }
        return data

    def merge(self, other: "Histogram") -> None:
        """Fold *other* (same bounds) into this histogram."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket bounds differ"
            )
        with self._lock:
            for i, c in enumerate(other.bucket_counts):
                self.bucket_counts[i] += c
            self.count += other.count
            self.total += other.total
            if other.exemplar_label is not None and (
                self.exemplar_value is None
                or other.exemplar_value > self.exemplar_value
            ):
                self.exemplar_value = other.exemplar_value
                self.exemplar_label = other.exemplar_label

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count})"


class MetricsRegistry:
    """A named collection of metrics with get-or-create accessors.

    Parameters
    ----------
    owner:
        Diagnostic label of the owning component (``"qdb"``,
        ``"pir.two-server-xor"``); carried into snapshots.
    standalone:
        When False (default), the registry attaches itself to the process
        registry so its metrics appear in process-wide aggregation, and
        its totals are folded into the process registry when it is
        garbage-collected.
    """

    #: How many times :meth:`reset` has emptied this registry; a caller
    #: that caches metric objects re-resolves them when it moves (the
    #: stage histograms of ``requesttrace``).
    resets = 0

    def __init__(self, owner: str = "", standalone: bool = False):
        self.owner = owner
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._children: dict[int, weakref.ref] = {}
        self._finalizers: dict[int, weakref.finalize] = {}
        self._lock = threading.RLock()
        # Dead-child metric dicts parked by _fold; deque appends are
        # atomic, so the finalizer never needs (and must never take) a
        # lock.  Absorbed into _metrics by _absorb_folds.
        self._pending_folds: deque = deque()
        if not standalone:
            process_registry()._adopt(self)

    # -- accessors ---------------------------------------------------------

    def _get_or_create(self, cls, name: str, *args):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, *args)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        """Get or create the named counter."""
        return self._get_or_create(Counter, name)

    def gauge(self, name: str) -> Gauge:
        """Get or create the named gauge."""
        return self._get_or_create(Gauge, name)

    def histogram(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        """Get or create the named histogram (bounds fixed at creation)."""
        return self._get_or_create(Histogram, name, bounds)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    # -- aggregation -------------------------------------------------------

    def _adopt(self, child: "MetricsRegistry") -> None:
        """Track *child* for aggregation; fold its totals when it dies."""
        key = id(child)
        with self._lock:
            self._children[key] = weakref.ref(child)
            # The finalize callback holds the child's metrics dict (not
            # the registry itself), so the final totals survive until
            # folded.
            self._finalizers[key] = weakref.finalize(
                child, self._fold, key, child._metrics
            )

    def _fold(self, key: int, metrics: dict) -> None:
        """Park a dead child's final metric values for later absorption.

        Runs from ``weakref.finalize`` — i.e. potentially mid-allocation
        on an arbitrary thread, possibly while this registry's or a
        metric's lock is already held further down the same call stack.
        Taking any lock here can deadlock, so this only performs an
        atomic deque append; the merge happens in :meth:`_absorb_folds`.
        """
        self._pending_folds.append((key, metrics))

    def _absorb_folds(self) -> None:
        """Merge parked dead-child totals.  Caller holds ``_lock``.

        Entries are pruned by weakref *deadness*, never by the parked
        key: ``id()`` values recycle, so a new live child can share a
        dead child's key — evicting by key would silently detach the
        live child from aggregation.
        """
        absorbed = False
        while True:
            try:
                _key, metrics = self._pending_folds.popleft()
            except IndexError:
                break
            self._merge_into_self(metrics)
            absorbed = True
        if absorbed:
            dead = [k for k, ref in self._children.items() if ref() is None]
            for key in dead:
                self._children.pop(key, None)
                finalizer = self._finalizers.pop(key, None)
                if finalizer is not None:
                    finalizer.detach()

    def _merge_into_self(self, metrics: dict) -> None:
        for name, metric in list(metrics.items()):
            if metric.kind == "counter":
                self.counter(name).inc(metric.value)
            elif metric.kind == "gauge":
                self.gauge(name).set(metric.value)
            else:
                self.histogram(name, metric.bounds).merge(metric)

    def _live_children(self) -> list["MetricsRegistry"]:
        return [c for ref in self._children.values() if (c := ref()) is not None]

    def snapshot(self, include_children: bool = True) -> dict:
        """Aggregated point-in-time view: counters, gauges, histograms.

        Counter and histogram values sum across this registry and (by
        default) every live attached child; gauges take the most recently
        visited child's value.  Keys are sorted for deterministic output.
        """
        merged = MetricsRegistry(owner=self.owner, standalone=True)
        with self._lock:
            self._absorb_folds()
            merged._merge_into_self(self._metrics)
            children = self._live_children() if include_children else []
        for child in children:
            with child._lock:
                child._absorb_folds()
                merged._merge_into_self(child._metrics)
        out: dict = {"owner": self.owner, "counters": {}, "gauges": {},
                     "histograms": {}}
        for name in sorted(merged._metrics):
            metric = merged._metrics[name]
            if metric.kind == "counter":
                out["counters"][name] = metric.value
            elif metric.kind == "gauge":
                out["gauges"][name] = metric.value
            else:
                out["histograms"][name] = metric.as_dict()
        return out

    def reset(self) -> None:
        """Drop all metrics and detach children (test isolation)."""
        with self._lock:
            self._pending_folds.clear()
            for finalizer in self._finalizers.values():
                finalizer.detach()
            self._finalizers.clear()
            self._children.clear()
            self._metrics.clear()
            self.resets += 1

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(owner={self.owner!r}, "
            f"metrics={len(self._metrics)}, children={len(self._children)})"
        )


_PROCESS: MetricsRegistry | None = None


def process_registry() -> MetricsRegistry:
    """The single process-wide registry all component registries attach to."""
    global _PROCESS
    if _PROCESS is None:
        _PROCESS = MetricsRegistry(owner="process", standalone=True)
    return _PROCESS
