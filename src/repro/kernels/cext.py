"""Runtime-compiled C kernels: the fastest backend when a C compiler is
present.

The hot loops — GF(2) parity matmul, AND+popcount and the two
nearest-record sweeps — are tiny, dependency-free C functions compiled
with whatever ``cc``/``gcc`` the machine has, cached as a shared object
keyed by the source, the flags and the compiler, and loaded through
:mod:`ctypes`.  No build system, no wheels, no install step; when
anything in the chain is missing (compiler, writable cache dir, dlopen)
the probe returns ``None`` and the registry falls through to the numpy
backend.

Design notes on the matmul, the kernel the ≥4x batch-retrieval gate
rides on:

* **branchless row selection** — the naive ``if (bit) acc ^= row``
  mispredicts half the time on uniformly random PIR masks, which is the
  worst case for a branch predictor; instead the bit is stretched to a
  full word (``0 - bit`` is all-ones or all-zeros) and ANDed in
  unconditionally, turning the loop into straight-line XOR/AND streams.
* **register blocking** — each pass over the database serves a tile of
  ``QT = 4`` queries and one column group of at most 8 words (a 64-byte
  cache line), walking the rows one 64-row run at a time: the tile's
  four mask words for the run and all of the group's accumulators sit
  in registers, so a row costs one load and, per query, a mask-bit
  stretch plus one AND/XOR per word.  The tile's query count and the
  group width are compile-time constants of an ``always_inline``
  helper, so a partial tile computes only its live queries and a
  one-word row needs no inner loop; the same helper with runtime
  sizes and no inlining ran the one-word case about 10x slower.

What bounds it is that per-row, per-query instruction stream, not the
database stream.  On a 2-vCPU Xeon VM (gcc 12, ``-O3 -march=native``)
the C for 4 queries over 16384 one-word rows takes about 17 µs (0.26 ns
per row and query, 8 GB/s of database and masks), and a call through
:meth:`CExtBackend.gf2_matmul` about 28 µs: the shape checks, the
contiguous views and above all the three address reads make up the
difference.  64 queries over 65536 eight-word rows take about 4.8 ms
(16 tile passes over a 4 MiB database, 14 GB/s), where the wrapper is
lost in the noise.  Cost follows rows x queries x column groups.

The nearest-record sweeps take each target on its own.  It starts at
its place in the release sorted by the first column and walks outward,
16 rows on each side in turn, and a side ends at the first row whose
first-column gap alone passes the target's cut (the tie reach of its
smallest sum so far, for linkage; the tolerance, for matching).
Rounding is monotone, so every row further on that side is at least as
far in that column, and a column-order sum of squares never rounds
below its first term: no row left unvisited could pass the cut.  The
release is handed over one contiguous array per column, so a chunk's
sums are computed with vector instructions; a row-major release, one
row at a time and always on the nearer side, screened fewer rows but
took 1.6-3x as long.  On the four linkage scans of an n=2000
Table 2 regeneration the sweep screens about 1.27M target-row pairs,
where the blocked numpy windows screen 4.9M.  Built with
``-ffp-contract=off``, each square and sum rounds separately, as
numpy's element-wise ops do, so both backends screen with the same
floats and return the same candidates.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from .backends import KernelBackend

#: Queries served per database pass; must match the C source below.
QUERY_TILE = 4

_C_SOURCE = r"""
#include <math.h>
#include <stdint.h>

#define QT 4
#define GW 8 /* words per column group: one 64-byte cache line */

/* Queries b0 .. b0+NQ-1 against database words g0 .. g0+G-1 of every row.
   NQ (1..QT) and G (1..GW) are constants at each call site, so every
   (NQ, G) pair compiles to its own fully unrolled loop whose accumulators
   and mask words stay in registers for the whole database scan. */
static inline __attribute__((always_inline)) void
gf2_group(const uint64_t *restrict masks, const uint64_t *restrict db,
          uint64_t *restrict out, long long b0, long long g0, long long n,
          long long nw, long long w, const int NQ, const int G)
{
    uint64_t acc[QT][GW] = {{0}};
    for (long long j = 0; j * 64 < n; j++) {
        /* One mask word per query covers this run of 64 rows. */
        uint64_t m[QT];
        for (int q = 0; q < NQ; q++)
            m[q] = masks[(b0 + q) * nw + j];
        const long long rows = (n - j * 64 < 64) ? n - j * 64 : 64;
        const uint64_t *restrict row = db + j * 64 * w + g0;
        for (long long r = 0; r < rows; r++, row += w) {
            for (int q = 0; q < NQ; q++) {
                /* all-ones when the bit is set, all-zeros otherwise */
                const uint64_t keep = (uint64_t)0 - ((m[q] >> r) & 1u);
                for (int k = 0; k < G; k++)
                    acc[q][k] ^= row[k] & keep;
            }
        }
    }
    for (int q = 0; q < NQ; q++)
        for (int k = 0; k < G; k++)
            out[(b0 + q) * w + g0 + k] = acc[q][k];
}

#define GROUP(NQ, G) \
    gf2_group(masks, db, out, b0, g0, n, nw, w, NQ, G)
#define GROUP_NQ(G)                                         \
    switch (nq) {                                           \
    case 1: GROUP(1, G); break;                             \
    case 2: GROUP(2, G); break;                             \
    case 3: GROUP(3, G); break;                             \
    default: GROUP(4, G); break;                            \
    }

/* out[b] = GF(2) sum (XOR) of db rows whose mask bit is set.
   masks: bq x nw little-bit-order uint64 words; db: n x w uint64 words. */
void gf2_matmul(const uint64_t *restrict masks, const uint64_t *restrict db,
                uint64_t *restrict out, long long bq, long long n,
                long long nw, long long w)
{
    for (long long b0 = 0; b0 < bq; b0 += QT) {
        const int nq = (int)((bq - b0 < QT) ? bq - b0 : QT);
        for (long long g0 = 0; g0 < w; g0 += GW) {
            switch ((w - g0 < GW) ? w - g0 : GW) {
            case 1: GROUP_NQ(1); break;
            case 2: GROUP_NQ(2); break;
            case 3: GROUP_NQ(3); break;
            case 4: GROUP_NQ(4); break;
            case 5: GROUP_NQ(5); break;
            case 6: GROUP_NQ(6); break;
            case 7: GROUP_NQ(7); break;
            default: GROUP_NQ(8); break;
            }
        }
    }
}

/* out[r] = popcount(rows[r] & cand), one intersection size per row. */
void overlap_popcount(const uint64_t *rows, const uint64_t *cand,
                      long long h, long long nw, int64_t *out)
{
    for (long long r = 0; r < h; r++) {
        const uint64_t *row = rows + r * nw;
        long long acc = 0;
        for (long long k = 0; k < nw; k++)
            acc += __builtin_popcountll(row[k] & cand[k]);
        out[r] = acc;
    }
}

/* Nearest-record sweeps.  cols: the release sorted by its first column,
   column-major (d columns of m values); tgt: n x d targets, row-major.
   A sweep walks out from the target's place in the sorted release, one
   chunk of CHUNK rows on each side in turn, and a side ends at the first
   row whose first-column gap alone passes the target's cut.  A chunk's
   values are computed in one vectorizable pass, so a side's last chunk
   may compute rows it never visits.  If any value is NaN or infinite, no
   side ends early: every target meets the whole release. */
#define CHUNK 16

static int all_finite(const double *x, long long count)
{
    for (long long k = 0; k < count; k++)
        if (!isfinite(x[k]))
            return 0;
    return 1;
}

/* The first sorted row whose first value is not below t0. */
static long long sorted_position(const double *first, long long m,
                                 double t0)
{
    long long lo = 0, hi = m;
    while (lo < hi) {
        const long long mid = lo + (hi - lo) / 2;
        if (first[mid] < t0)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* out[j]: squared distance from t to sorted row j0 + j, summed in column
   order, each square and sum rounded as numpy rounds them. */
static inline void chunk_sums(const double *cols, long long m, long long d,
                              const double *t, long long j0, long long k,
                              double *out)
{
    for (long long j = 0; j < k; j++) {
        const double e = cols[j0 + j] - t[0];
        out[j] = e * e;
    }
    for (long long c = 1; c < d; c++) {
        const double *col = cols + c * m + j0;
        for (long long j = 0; j < k; j++) {
            const double e = col[j] - t[c];
            out[j] += e * e;
        }
    }
}

/* Fold one sum into the target's smallest and its cut.  A NaN sum makes
   numpy's min NaN, and no sum is <= NaN: the target gets no candidates. */
static inline void fold(double s, double scale, double offset, double *best,
                        double *cut, int *nan)
{
    if (s != s) {
        *nan = 1;
    } else if (s < *best) {
        *best = s;
        const double reach = sqrt(s) * scale + offset;
        *cut = reach * reach;
    }
}

/* Linkage candidates: for each target, the sorted rows whose sum is at
   most (sqrt(smallest) * scale + offset)^2.  Pairs (target, sorted row)
   go to out[k] and out[cap + k] while k < cap; returns how many there
   are.  sq (m doubles) holds one target's sums. */
long long link_candidates(const double *cols, const double *tgt, long long n,
                          long long m, long long d, double scale,
                          double offset, double *sq, long long *out,
                          long long cap)
{
    const int finite = all_finite(cols, m * d) && all_finite(tgt, n * d);
    long long found = 0;
    for (long long i = 0; i < n; i++) {
        const double *t = tgt + i * d;
        const double t0 = t[0];
        /* Visited rows are [lo, hi). */
        long long lo = sorted_position(cols, m, t0), hi = lo;
        int left = lo > 0, right = hi < m, nan = 0;
        double best = INFINITY, cut = INFINITY;
        while (left || right) {
            if (right) {
                const long long end = m - hi < CHUNK ? m : hi + CHUNK;
                chunk_sums(cols, m, d, t, hi, end - hi, sq + hi);
                for (; hi < end; hi++) {
                    const double gap = cols[hi] - t0;
                    if (finite && gap * gap > cut)
                        break;
                    fold(sq[hi], scale, offset, &best, &cut, &nan);
                }
                right = hi == end && end < m;
            }
            if (left) {
                const long long end = lo < CHUNK ? 0 : lo - CHUNK;
                chunk_sums(cols, m, d, t, end, lo - end, sq + end);
                for (; lo > end; lo--) {
                    const double gap = t0 - cols[lo - 1];
                    if (finite && gap * gap > cut)
                        break;
                    fold(sq[lo - 1], scale, offset, &best, &cut, &nan);
                }
                left = lo == end && end > 0;
            }
        }
        if (nan)
            continue;
        for (long long j = lo; j < hi; j++) {
            if (sq[j] <= cut) {
                if (found < cap) {
                    out[found] = i;
                    out[cap + found] = j;
                }
                found++;
            }
        }
    }
    return found;
}

/* out[j]: the largest column gap from t to sorted row j0 + j, NaN when
   any gap is NaN, as numpy's maximum propagates it. */
static inline void chunk_gaps(const double *cols, long long m, long long d,
                              const double *t, long long j0, long long k,
                              double *out)
{
    for (long long j = 0; j < k; j++)
        out[j] = fabs(cols[j0 + j] - t[0]);
    for (long long c = 1; c < d; c++) {
        const double *col = cols + c * m + j0;
        for (long long j = 0; j < k; j++) {
            const double a = fabs(col[j] - t[c]);
            out[j] = (a > out[j] || a != a) ? a : out[j];
        }
    }
}

/* Tolerance matches: the targets some row matches within tol on every
   column.  With finite values a target stops at its first matching row;
   otherwise it meets every row, since a NaN gap to any of them leaves it
   unmatched, as numpy's min over the gaps does. */
long long tolerance_matches(const double *cols, const double *tgt,
                            long long n, long long m, long long d,
                            double tol)
{
    const int finite = all_finite(cols, m * d) && all_finite(tgt, n * d);
    long long matched = 0;
    double gaps[CHUNK];
    for (long long i = 0; i < n; i++) {
        const double *t = tgt + i * d;
        const double t0 = t[0];
        long long lo = sorted_position(cols, m, t0), hi = lo;
        int left = lo > 0, right = hi < m, hit = 0, nan = 0;
        while ((left || right) && !(hit && finite)) {
            if (right) {
                const long long end = m - hi < CHUNK ? m : hi + CHUNK;
                chunk_gaps(cols, m, d, t, hi, end - hi, gaps);
                for (const double *g = gaps; hi < end; hi++, g++) {
                    if (finite && cols[hi] - t0 > tol)
                        break;
                    nan |= *g != *g;
                    hit |= *g <= tol;
                }
                right = hi == end && end < m;
            }
            if (left) {
                const long long end = lo < CHUNK ? 0 : lo - CHUNK;
                chunk_gaps(cols, m, d, t, end, lo - end, gaps);
                for (; lo > end; lo--) {
                    const double g = gaps[lo - 1 - end];
                    if (finite && t0 - cols[lo - 1] > tol)
                        break;
                    nan |= g != g;
                    hit |= g <= tol;
                }
                left = lo == end && end > 0;
            }
        }
        matched += hit && !nan;
    }
    return matched;
}
"""

#: Optimisation flags, tried in order until one compiles: -march=native
#: is a measurable win but not universally accepted (e.g. some cross
#: toolchains).
_FLAG_CHAIN = (("-O3", "-march=native", "-funroll-loops"),
               ("-O3", "-funroll-loops"), ("-O2",))

#: Flags of every attempt.  -ffp-contract=off forbids fusing a multiply
#: and an add into one rounding, which would make the C sweeps' sums
#: differ from numpy's.
_BUILD_FLAGS = ("-ffp-contract=off", "-shared", "-fPIC")

_ADDR = ctypes.c_void_p
_LL = ctypes.c_longlong
_DOUBLE = ctypes.c_double


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNELS_CACHE")
    if override:
        return Path(override)
    return Path(tempfile.gettempdir()) / "repro-kernels"


def _find_compiler() -> str | None:
    """The first compiler on PATH, as its resolved path."""
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        found = shutil.which(candidate) if candidate else None
        if found:
            return os.path.realpath(found)
    return None


def _library_key(compiler: str) -> str:
    """Digest of what decides the library's code: the source, every flag
    and the compiler, so a library built another way is never reused."""
    recipe = repr((_C_SOURCE, _FLAG_CHAIN, _BUILD_FLAGS, compiler))
    return hashlib.sha256(recipe.encode()).hexdigest()[:16]


def build_library() -> ctypes.CDLL | None:
    """Compile (or reuse) the kernel shared object; None when impossible."""
    compiler = _find_compiler()
    if compiler is None:
        return None
    digest = _library_key(compiler)
    try:
        cache = _cache_dir()
        cache.mkdir(parents=True, exist_ok=True)
        so_path = cache / f"gf2-{digest}.so"
        if not so_path.exists():
            src_path = cache / f"gf2-{digest}.c"
            src_path.write_text(_C_SOURCE)
            for extra in _FLAG_CHAIN:
                scratch = cache / f".gf2-{digest}.{os.getpid()}.so"
                result = subprocess.run(
                    [compiler, *extra, *_BUILD_FLAGS,
                     str(src_path), "-o", str(scratch), "-lm"],
                    capture_output=True, timeout=120,
                )
                if result.returncode == 0:
                    os.replace(scratch, so_path)  # atomic vs other builders
                    break
            else:
                return None
        lib = ctypes.CDLL(str(so_path))
    except (OSError, subprocess.SubprocessError):
        return None
    # Buffers travel as raw addresses (``ndarray.ctypes.data``, about
    # 2.5 µs a buffer): a typed ``data_as`` pointer took about 4.5 µs,
    # against 17 µs of C for 4 queries over 16384 one-word rows.
    lib.gf2_matmul.argtypes = [_ADDR, _ADDR, _ADDR, _LL, _LL, _LL, _LL]
    lib.gf2_matmul.restype = None
    lib.overlap_popcount.argtypes = [_ADDR, _ADDR, _LL, _LL, _ADDR]
    lib.overlap_popcount.restype = None
    lib.link_candidates.argtypes = [_ADDR, _ADDR, _LL, _LL, _LL, _DOUBLE,
                                    _DOUBLE, _ADDR, _ADDR, _LL]
    lib.link_candidates.restype = _LL
    lib.tolerance_matches.argtypes = [_ADDR, _ADDR, _LL, _LL, _LL, _DOUBLE]
    lib.tolerance_matches.restype = _LL
    return lib


class CExtBackend(KernelBackend):
    """ctypes front-end over the compiled kernels.

    C sees only addresses and sizes, so every call checks the shapes
    first (:meth:`KernelBackend.check_gf2_matmul`,
    :meth:`KernelBackend.check_overlap`, :meth:`KernelBackend.check_scan`)
    and hands over C-contiguous copies or views that stay referenced
    until the call returns.
    """

    name = "cext"

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib

    def gf2_matmul(self, mask_words: np.ndarray, db_words: np.ndarray,
                   n_rows: int) -> np.ndarray:
        n_rows = self.check_gf2_matmul(mask_words, db_words, n_rows)
        masks = np.ascontiguousarray(mask_words, dtype=np.uint64)
        words = np.ascontiguousarray(db_words, dtype=np.uint64)
        bq, nw = masks.shape
        w = words.shape[1]
        out = np.empty((bq, w), dtype=np.uint64)
        if bq:
            self._lib.gf2_matmul(masks.ctypes.data, words.ctypes.data,
                                 out.ctypes.data, bq, n_rows, nw, w)
        return out

    def overlap_counts(self, rows: np.ndarray,
                       cand: np.ndarray) -> np.ndarray:
        self.check_overlap(rows, cand)
        rows = np.ascontiguousarray(rows, dtype=np.uint64)
        cand = np.ascontiguousarray(cand, dtype=np.uint64)
        h, nw = rows.shape
        out = np.empty(h, dtype=np.int64)
        if h:
            self._lib.overlap_popcount(rows.ctypes.data, cand.ctypes.data,
                                       h, nw, out.ctypes.data)
        return out

    def link_candidates(self, targets: np.ndarray, release: np.ndarray,
                        rtol: float, atol: float
                        ) -> tuple[np.ndarray, np.ndarray]:
        targets, release = self.check_scan("link_candidates", targets,
                                           release)
        order = np.argsort(release[:, 0], kind="stable")
        columns = _sorted_columns(release, order)
        (n, d), m = targets.shape, release.shape[0]
        sq = np.empty(m)
        # Room for every target to tie with 8 rows; more ties sweep once
        # more with room for all of them.
        capacity = 8 * n
        while True:
            pairs = np.empty((2, capacity), dtype=np.int64)
            found = self._lib.link_candidates(
                columns.ctypes.data, targets.ctypes.data, n, m, d,
                1 + 2 * rtol, 2 * atol, sq.ctypes.data, pairs.ctypes.data,
                capacity,
            )
            if found <= capacity:
                return pairs[0, :found], order[pairs[1, :found]]
            capacity = found

    def tolerance_matches(self, targets: np.ndarray, release: np.ndarray,
                          tol: float) -> int:
        targets, release = self.check_scan("tolerance_matches", targets,
                                           release)
        columns = _sorted_columns(
            release, np.argsort(release[:, 0], kind="stable")
        )
        return self._lib.tolerance_matches(
            columns.ctypes.data, targets.ctypes.data, targets.shape[0],
            release.shape[0], targets.shape[1], tol,
        )


def _sorted_columns(release: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The release rows in *order*, one contiguous array per column."""
    return np.ascontiguousarray(release[order].T)


def make_backend() -> CExtBackend | None:
    """Probe hook for the registry: a backend, or None when unbuildable."""
    lib = build_library()
    return CExtBackend(lib) if lib is not None else None
