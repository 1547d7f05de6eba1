"""Frozen replicas of the seed's query-auditing policies.

The ``Seed*`` classes preserve, line for line, the pre-optimization
implementations of :class:`repro.qdb.OverlapControl` (per-entry Python
loop over full boolean masks) and :class:`repro.qdb.SumAuditPolicy`
(full re-QR of the stacked answered-query matrix on every review *and*
transform).

They exist for two reasons:

* the benchmark harness times them alongside the packed/incremental
  policies so the recorded ``qdb_*_vs_seed`` speedups stay honest on any
  machine, and
* the equivalence property tests (``tests/test_qdb_perf_equivalence.py``
  and ``tests/test_qdb_plan_equivalence.py``) use them as the decision
  oracle: the optimized policies, run through the plan path, must
  produce answer/refusal sequences identical to these replicas on
  randomized workloads.

Do not "fix" or vectorize anything here — the whole point is that this
file stays frozen at the seed behaviour.
"""

from __future__ import annotations

import numpy as np

from repro.qdb.engine import ProtectionPolicy
from repro.qdb.query import Aggregate


class SeedSumAuditPolicy(ProtectionPolicy):
    """Seed Chin–Ozsoyoglu audit: full QR re-factorization per query."""

    _LINEAR = (Aggregate.SUM, Aggregate.COUNT, Aggregate.AVG,
               Aggregate.VARIANCE, Aggregate.STDDEV)

    def __init__(self, tolerance: float = 1e-8):
        self.tolerance = tolerance
        self.name = "sum-audit"
        self._basis: np.ndarray | None = None  # orthonormal rows

    def _would_disclose(self, candidate: np.ndarray) -> bool:
        if self._basis is not None:
            stacked = np.vstack(
                [self._basis, candidate[None, :].astype(np.float64)]
            )
        else:
            stacked = candidate[None, :].astype(np.float64)
        # Orthonormal basis of the prospective row space.
        q, r = np.linalg.qr(stacked.T, mode="reduced")
        keep = np.abs(np.diag(r)) > self.tolerance
        basis = q[:, keep].T
        if basis.size == 0:
            return False
        # e_i lies in the row space iff its projection has norm 1.
        proj_norms = (basis ** 2).sum(axis=0)
        return bool(np.any(proj_norms >= 1.0 - self.tolerance))

    def review(self, query, mask, data, history):
        if query.aggregate not in self._LINEAR:
            return None
        candidate = mask.astype(np.float64)
        if self._would_disclose(candidate):
            return "answer would make an individual record deducible"
        return None

    def transform(self, query, answer, mask, data, rng):
        if answer.ok and query.aggregate in self._LINEAR:
            candidate = mask.astype(np.float64)[None, :]
            stacked = (
                np.vstack([self._basis, candidate])
                if self._basis is not None
                else candidate
            )
            q, r = np.linalg.qr(stacked.T, mode="reduced")
            keep = np.abs(np.diag(r)) > self.tolerance
            self._basis = q[:, keep].T
        return answer


class SeedOverlapControl(ProtectionPolicy):
    """Seed Dobkin–Jones–Lipton control: Python loop over the history."""

    def __init__(self, max_overlap: int):
        if max_overlap < 0:
            raise ValueError("max_overlap must be >= 0")
        self.max_overlap = max_overlap
        self.name = f"overlap-control(r={max_overlap})"

    def review(self, query, mask, data, history):
        for entry in history:
            if not entry.answered:
                continue
            overlap = int(np.sum(mask & entry.mask))
            if overlap > self.max_overlap:
                return (
                    f"query set overlaps a previous one in {overlap} "
                    f"records (> {self.max_overlap})"
                )
        return None
