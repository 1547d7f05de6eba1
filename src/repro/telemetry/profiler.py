"""Continuous sampling profiler: stdlib-only background stack sampler.

A daemon thread wakes ``hz`` times per second, snapshots every live
thread's stack via :func:`sys._current_frames`, and folds each stack
into a ``thread;frame;frame;... count`` tally — the flamegraph "folded
stacks" text format (Brendan Gregg's ``flamegraph.pl`` / speedscope
both ingest it directly).  Because the serving runtime names its workers
``serving-shard{i}-w{n}``, samples attribute directly to shard/worker
without any extra bookkeeping.  A query decided on the calling thread
(its shard was idle) samples under the caller's thread name instead.

Nothing samples until a caller starts a profiler (``repro profile``
and the benchmark runner's profiled pair do).  When running, the only
cost to the profiled threads is the GIL time the sampler spends walking
frames — bounded by the ``profiler-on <= 1.05x`` benchmark gate.

>>> prof = SamplingProfiler(hz=50)
>>> prof.hz
50
>>> prof.running
False
>>> import threading, time
>>> with prof:
...     t = threading.Thread(target=time.sleep, args=(0.1,), name="napper")
...     t.start(); t.join()
>>> prof.running
False
>>> any(line.startswith("napper;") for line in prof.folded())
True
>>> prof.sample_count > 0
True
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Iterable

__all__ = [
    "SamplingProfiler",
    "render_folded",
    "top_frames",
]

#: Maximum stack depth folded per sample (deeper frames are dropped at
#: the root end — the leaf side is what a flamegraph reader cares about).
MAX_DEPTH = 64


class SamplingProfiler:
    """Background stack sampler producing folded-stack tallies.

    Parameters
    ----------
    hz:
        Samples per second; ``start`` raises when it is below 1.
    """

    def __init__(self, hz: int):
        self.hz = int(hz)
        self.sample_count = 0
        self._stacks: dict[str, int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        if self.hz <= 0:
            raise ValueError("SamplingProfiler needs hz >= 1 to start")
        if self.running:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # -- sampling ----------------------------------------------------------

    def _loop(self) -> None:
        interval = 1.0 / self.hz
        me = threading.get_ident()
        while not self._stop.wait(interval):
            self.sample_once(skip={me})

    def sample_once(self, skip: set[int] | None = None) -> int:
        """Take one sample of every live thread; returns stacks folded."""
        names = {t.ident: t.name for t in threading.enumerate()}
        frames = sys._current_frames()
        folded = 0
        with self._lock:
            self.sample_count += 1
            for ident, frame in frames.items():
                if skip and ident in skip:
                    continue
                stack = []
                depth = 0
                while frame is not None and depth < MAX_DEPTH:
                    code = frame.f_code
                    stack.append(
                        f"{os.path.basename(code.co_filename)}:{code.co_name}"
                    )
                    frame = frame.f_back
                    depth += 1
                # f_back walks leaf -> root; folded format wants
                # root -> leaf under the thread name.
                stack.reverse()
                key = names.get(ident, f"thread-{ident}") + ";" + ";".join(stack)
                self._stacks[key] = self._stacks.get(key, 0) + 1
                folded += 1
        return folded

    # -- export ------------------------------------------------------------

    def folded(self) -> list[str]:
        """Folded-stack lines (``stack count``), heaviest first."""
        with self._lock:
            items = sorted(
                self._stacks.items(), key=lambda kv: (-kv[1], kv[0])
            )
        return [f"{stack} {count}" for stack, count in items]

    def clear(self) -> None:
        with self._lock:
            self._stacks.clear()
            self.sample_count = 0


def render_folded(lines: Iterable[str]) -> str:
    """Join folded lines into the flamegraph-ready text blob."""
    return "\n".join(lines) + "\n" if lines else ""


def top_frames(lines: Iterable[str], top: int = 20) -> list[tuple[str, int]]:
    """Per-leaf-frame sample totals (hottest first) from folded lines."""
    totals: dict[str, int] = {}
    for line in lines:
        stack, _, count = line.rpartition(" ")
        if not stack:
            continue
        leaf = stack.rsplit(";", 1)[-1]
        totals[leaf] = totals.get(leaf, 0) + int(count)
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:top]
