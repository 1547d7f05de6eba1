"""Micro-benchmark: sweep OverlapControl's history chunk size.

``OverlapControl._review_packed`` scans the packed answered history in
chunks: small chunks exit earlier when a violation sits near the front
of the history, large chunks amortize per-call overhead (kernel
dispatch, the Python loop) over more rows.  This sweep times the two
workloads that bound the trade:

* **no-hit** — every probe scans the *entire* history (the benchmark
  gate's workload, and the common case for compliant query streams);
* **early-hit** — a violating query set sits in the first 64 history
  rows, so oversized chunks waste whole passes' worth of popcounts.

Refusal *decisions* are chunk-invariant (the scan preserves history
order, so the first violating entry is always the one reported); the
chunk only moves wall time.  The committed default
(``OverlapControl._CHUNK``) comes from this sweep's no-hit winner at
H=2000 — the depth the benchmark gate pins — sanity-checked against the
early-hit column; re-run after kernel-tier changes::

    PYTHONPATH=src python -m benchmarks.bench_overlap_chunk

and update the class constant if the optimum moved.  The sweep sets
``_CHUNK`` on each policy instance, shadowing the class value.
"""

from __future__ import annotations

import time

import numpy as np

from repro.qdb import (
    Aggregate,
    LogEntry,
    OverlapControl,
    Query,
    QueryHistory,
    TruePredicate,
)

_QDB_DUMMY_QUERY = Query(Aggregate.SUM, "x", TruePredicate())

CHUNKS = (128, 256, 512, 1024, 2048, 4096)
HISTORY_DEPTHS = (2000, 8000)
N_RECORDS = 5000
TRIALS = 5


def _history(h: int, n: int, early_hit: bool) -> tuple:
    """(history, probes): h answered ~n/2 sets plus 8 probe sets.

    With *early_hit*, one history row inside the first 64 is forced to a
    near-full query set, so every probe overlaps it immediately.
    """
    rng = np.random.default_rng(11)
    hist_masks = rng.random((h, n)) < 0.5
    if early_hit:
        hist_masks[min(32, h - 1)] = rng.random(n) < 0.98
    probes = list(rng.random((8, n)) < 0.5)
    history = QueryHistory(n)
    for mask in hist_masks:
        history.record(LogEntry(_QDB_DUMMY_QUERY, mask, True, 1.0))
    return history, probes


def _time_review(policy: OverlapControl, history, probes,
                 expect_refusal: bool) -> float:
    best = float("inf")
    for _ in range(TRIALS):
        t0 = time.perf_counter()
        for probe in probes:
            reason = policy.review(_QDB_DUMMY_QUERY, probe, None, history)
            if (reason is not None) != expect_refusal:
                raise RuntimeError(
                    f"unexpected review outcome at chunk={policy._CHUNK}: "
                    f"{reason!r}"
                )
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> int:
    max_overlap = (2 * N_RECORDS) // 5
    print(f"n={N_RECORDS}, max_overlap={max_overlap}, 8 probes/rep, "
          f"best of {TRIALS}; times in ms")
    header = "H      workload   " + "".join(f"{c:>10d}" for c in CHUNKS)
    print(header)
    for h in HISTORY_DEPTHS:
        for early_hit in (False, True):
            history, probes = _history(h, N_RECORDS, early_hit)
            row = []
            for chunk in CHUNKS:
                policy = OverlapControl(max_overlap)
                policy._CHUNK = chunk
                row.append(_time_review(
                    policy, history, probes, expect_refusal=early_hit
                ))
            label = "early-hit" if early_hit else "no-hit"
            cells = "".join(f"{t * 1e3:10.3f}" for t in row)
            print(f"{h:<6d} {label:<10s}{cells}")
            best_chunk = CHUNKS[int(np.argmin(row))]
            print(f"{'':17s}best: chunk={best_chunk}")
    print(f"\ncommitted default: OverlapControl._CHUNK = "
          f"{OverlapControl._CHUNK}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
