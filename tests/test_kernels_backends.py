"""Cross-backend equivalence for the kernel tier.

The contract of :mod:`repro.kernels.backends` is *bit-identity*: every
backend — compiled C, pure-numpy uint64 — must produce exactly the
bytes the boolean ground truth below produces, at the kernel level and
end to end (every PIR scheme, the faulty wrappers, every audit policy
stack), and exactly the candidates and matches a per-target scan of
the whole release finds (Table 2 scores).  The truths are written from
the definitions, on unpacked bits and one Python float at a time, and
share no code with the backends, so a box without a C compiler still
checks uint64 against an independent oracle while a full box checks
both.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels.backends as backends
from repro.faults import Fault, FaultPlan, ResilientXorPIR
from repro.kernels import (
    KernelBackend,
    MemmapBlockStore,
    available_backends,
    backend_info,
    get_backend,
    gf2_matmul_store,
    pack_bool_rows,
    pack_bytes_rows,
    tail_mask,
    use_backend,
)
from repro.core import score_technologies
from repro.kernels import cext, nearest
from repro.kernels.backends import _probe
from repro.pir import MultiServerXorPIR, SquareSchemePIR, TwoServerXorPIR
from repro.qdb import (
    OverlapControl,
    QuerySetSizeControl,
    StatisticalDatabase,
    SumAuditPolicy,
)
from repro.data import patients

ALL = available_backends()


def _bits(words, n_bits):
    """Little-bit-order packed words -> ``(B, n_bits)`` booleans."""
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, axis=-1, bitorder="little")[..., :n_bits] == 1


class BooleanTruth(KernelBackend):
    """Each kernel's definition on unpacked bits: the correctness bar."""

    name = "truth"

    def gf2_matmul(self, mask_words, db_words, n_rows):
        out = np.zeros((mask_words.shape[0], db_words.shape[1]),
                       dtype=np.uint64)
        for b, selected in enumerate(_bits(mask_words, int(n_rows))):
            for i in np.flatnonzero(selected):
                out[b] ^= db_words[i]
        return out

    def overlap_counts(self, rows, cand):
        n_bits = rows.shape[1] * 64
        both = _bits(rows, n_bits) & _bits(cand[None, :], n_bits)
        return both.sum(axis=1, dtype=np.int64)


TRUTH = BooleanTruth()


def _random_case(seed, n, width, batch):
    rng = np.random.default_rng(seed)
    db = rng.integers(0, 256, size=(n, width), dtype=np.uint8)
    masks = rng.random((batch, n)) < 0.5
    return pack_bytes_rows(db), pack_bool_rows(masks), masks, db


@pytest.mark.parametrize("name", ALL)
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
    width=st.integers(1, 40),
    batch=st.integers(1, 5),
)
def test_gf2_matmul_bit_identical_to_truth(name, seed, n, width, batch):
    db_words, mask_words, masks, db = _random_case(seed, n, width, batch)
    reference = TRUTH.gf2_matmul(mask_words, db_words, n)
    result = _probe(name).gf2_matmul(mask_words, db_words, n)
    np.testing.assert_array_equal(result, reference)
    # And both match the same algebra on the logical bytes.
    for b in range(batch):
        expected = np.bitwise_xor.reduce(
            db[masks[b]], axis=0
        ) if masks[b].any() else np.zeros(width, dtype=np.uint8)
        np.testing.assert_array_equal(
            result.view(np.uint8)[b, :width], expected
        )


# A deterministic shape grid for the blocked matmul loops, which work in
# column groups of 8 words, tiles of 4 queries and runs of 64 rows.  The
# byte widths give every tail of 1-7 words after zero, one and two full
# groups, the full groups themselves and two ragged widths; 1..9 queries
# hit every partial tile; the row counts end on every kind of run.
GRID_WIDTHS = sorted(
    {8 * (tail + 8 * groups) for tail in range(1, 8) for groups in range(3)}
    | {64, 128, 13, 65}
)
GRID_ROWS = (1, 63, 64, 65, 127, 130, 4097)
GRID_QUERIES = 9


def _grid_masks(rng, n):
    masks = rng.random((GRID_QUERIES, n)) < 0.5
    masks[0, -1] = True  # the last 64-row run always selects a row
    return masks


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("n", GRID_ROWS)
def test_gf2_matmul_shape_grid(name, n):
    rng = np.random.default_rng(n)
    db = rng.integers(0, 256, size=(n, max(GRID_WIDTHS)), dtype=np.uint8)
    masks = _grid_masks(rng, n)
    mask_words = pack_bool_rows(masks)
    # Set bits past row n: n_rows, not the mask width, bounds the scan.
    mask_words[:, -1] |= ~tail_mask(n)
    backend = _probe(name)
    for width in GRID_WIDTHS:
        db_words = pack_bytes_rows(db[:, :width])
        reference = TRUTH.gf2_matmul(mask_words, db_words, n)
        truth = np.array([
            np.bitwise_xor.reduce(db[row, :width], axis=0) for row in masks
        ])
        np.testing.assert_array_equal(
            reference.view(np.uint8)[:, :width], truth
        )
        for queries in range(1, GRID_QUERIES + 1):
            np.testing.assert_array_equal(
                backend.gf2_matmul(mask_words[:queries], db_words, n),
                reference[:queries],
                err_msg=f"width={width} bytes, {queries} queries",
            )


@pytest.mark.parametrize("name", ALL)
def test_gf2_matmul_store_budgeted_wide_rows(name, tmp_path):
    n, width = 1000, 100  # 13-word rows: a full column group and a tail
    rng = np.random.default_rng(17)
    db = rng.integers(0, 256, size=(n, width), dtype=np.uint8)
    store = MemmapBlockStore.create(
        tmp_path / "db.npy", db, ram_budget=128 * 13 * 8
    )
    assert store.chunk_rows == 128  # eight chunks, the last 104 rows
    mask_words = pack_bool_rows(_grid_masks(rng, n))
    np.testing.assert_array_equal(
        gf2_matmul_store(mask_words, store, backend=_probe(name)),
        TRUTH.gf2_matmul(mask_words, store.words, n),
    )


@pytest.mark.parametrize("name", ALL)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), h=st.integers(0, 60),
       n=st.integers(1, 300))
def test_overlap_counts_bit_identical_to_truth(name, seed, h, n):
    rng = np.random.default_rng(seed)
    rows = pack_bool_rows(rng.random((h, n)) < 0.5)
    cand = pack_bool_rows(rng.random((1, n)) < 0.5)[0]
    reference = TRUTH.overlap_counts(rows, cand)
    np.testing.assert_array_equal(
        _probe(name).overlap_counts(rows, cand), reference
    )


def _layouts(words):
    """The same packed words in four memory layouts: contiguous, every
    other row of an array twice as tall, every other column of one twice
    as wide (both interleaved with all-ones junk words), and a
    Fortran-ordered copy."""
    rows = np.zeros((2 * words.shape[0], words.shape[1]), dtype=np.uint64)
    rows[::2] = words
    rows[1::2] = ~np.uint64(0)
    cols = np.zeros((words.shape[0], 2 * words.shape[1]), dtype=np.uint64)
    cols[:, 1::2] = words
    cols[:, ::2] = ~np.uint64(0)
    return {"contiguous": words, "row-sliced": rows[::2],
            "column-sliced": cols[:, 1::2],
            "fortran": np.asfortranarray(words)}


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("n", (1, 65, 130))
def test_gf2_matmul_non_contiguous_inputs(name, n):
    """Strided and Fortran-ordered masks and databases reach C as the
    words they hold, not as the buffers behind them."""
    rng = np.random.default_rng(n)
    db_words = pack_bytes_rows(
        rng.integers(0, 256, size=(n, 24), dtype=np.uint8)
    )
    mask_words = pack_bool_rows(_grid_masks(rng, n))
    reference = TRUTH.gf2_matmul(mask_words, db_words, n)
    backend = _probe(name)
    for mask_layout, masks in _layouts(mask_words).items():
        for db_layout, db in _layouts(db_words).items():
            np.testing.assert_array_equal(
                backend.gf2_matmul(masks, db, n), reference,
                err_msg=f"{mask_layout} masks, {db_layout} database",
            )
    # A column slice that keeps only the mask words n_rows needs.
    np.testing.assert_array_equal(
        backend.gf2_matmul(mask_words[:, :1], db_words, min(n, 64)),
        TRUTH.gf2_matmul(mask_words[:, :1], db_words, min(n, 64)),
    )


@pytest.mark.parametrize("name", ALL)
def test_overlap_counts_non_contiguous_inputs(name):
    rng = np.random.default_rng(3)
    rows = pack_bool_rows(rng.random((7, 200)) < 0.5)
    cand = pack_bool_rows(rng.random((2, 200)) < 0.5)
    reference = TRUTH.overlap_counts(rows, cand[0])
    for rows_layout, laid_out in _layouts(rows).items():
        for cand_layout, cands in _layouts(cand).items():
            np.testing.assert_array_equal(
                _probe(name).overlap_counts(laid_out, cands[0]), reference,
                err_msg=f"{rows_layout} rows, {cand_layout} candidate",
            )


# Calls whose shapes do not fit: C would read past the database, the
# masks or the candidate, and numpy would broadcast a 1-word candidate.
_BAD_MATMULS = {
    "rows past the database": ((3, 2), (100, 1), 150),
    "rows past the masks": ((3, 1), (100, 1), 100),
    "negative rows": ((3, 1), (100, 1), -1),
    "1-D masks": ((2,), (100, 1), 100),
    "1-D database": ((3, 2), (100,), 100),
}
_BAD_OVERLAPS = {
    "2-word candidate for 4-word rows": ((5, 4), (2,)),
    "1-word candidate for 4-word rows": ((5, 4), (1,)),
    "2-D candidate": ((5, 4), (1, 4)),
    "1-D rows": ((4,), (4,)),
}


@pytest.mark.parametrize("case", sorted(_BAD_MATMULS))
def test_gf2_matmul_rejects_mis_shaped_input(case):
    masks, db, n_rows = _BAD_MATMULS[case]
    messages = set()
    for name in ALL:
        with pytest.raises(ValueError, match="^gf2_matmul needs") as err:
            _probe(name).gf2_matmul(
                np.ones(masks, dtype=np.uint64), np.ones(db, dtype=np.uint64),
                n_rows,
            )
        messages.add(str(err.value))
    assert len(messages) == 1


@pytest.mark.parametrize("case", sorted(_BAD_OVERLAPS))
def test_overlap_counts_rejects_mis_shaped_input(case):
    rows, cand = _BAD_OVERLAPS[case]
    messages = set()
    for name in ALL:
        with pytest.raises(ValueError, match="^overlap_counts needs") as err:
            _probe(name).overlap_counts(
                np.ones(rows, dtype=np.uint64), np.ones(cand, dtype=np.uint64)
            )
        messages.add(str(err.value))
    assert len(messages) == 1


# -- nearest-record scans ---------------------------------------------------

_RTOL, _ATOL = 1e-9, 1e-12


def _truth_candidates(targets, release, rtol=_RTOL, atol=_ATOL):
    """Every target's (target, row) candidates by the contract's
    definition, one target, one row and one column at a time."""
    pairs = set()
    for i, target in enumerate(targets.tolist()):
        sums = []
        for row in release.tolist():
            s = 0.0
            for r, t in zip(row, target):
                s += (r - t) * (r - t)
            sums.append(s)
        if not sums or any(s != s for s in sums):
            continue  # a NaN sum makes the smallest NaN: no candidates
        reach = math.sqrt(min(sums)) * (1 + 2 * rtol) + 2 * atol
        pairs |= {(i, j) for j, s in enumerate(sums) if s <= reach * reach}
    return pairs


def _truth_matches(targets, release, tol):
    """Targets some row matches within *tol* on every column; a NaN gap
    to any row leaves the target unmatched."""
    matched = 0
    for target in targets.tolist():
        gaps = []
        for row in release.tolist():
            diffs = [abs(r - t) for r, t in zip(row, target)]
            gaps.append(math.nan if any(g != g for g in diffs) else max(diffs))
        if not any(g != g for g in gaps):
            matched += any(g <= tol for g in gaps)
    return matched


def _rounded(n, d, seed, decimals=1):
    """n rows of d standard-normal values, rounded so values collide."""
    return np.random.default_rng(seed).normal(size=(n, d)).round(decimals)


def _near_ties(d):
    """Rows in pairs 3e-13 apart in column 0: tied within the tolerance."""
    rows = _rounded(30, d, 3, decimals=9)[np.arange(30) // 2]
    rows[1::2, 0] += 3e-13
    return rows, rows


def _window_edge(d):
    """Targets whose nearest row is 1 away in column 1, with rows on both
    sides in column 0 at exactly the tie reach of 1, one float inside it
    and one float past it: the sweep's stop test and a window's edge."""
    reach = 1.0 * (1 + 2 * _RTOL) + 2 * _ATOL
    gaps = [reach, np.nextafter(reach, 0), np.nextafter(reach, 2), 1.0]
    release = np.zeros((2 + 2 * len(gaps), max(d, 2)))
    release[0, 1] = 1.0
    release[1, 1] = -1.0
    for k, gap in enumerate(gaps):
        release[2 + 2 * k, 0] = gap
        release[3 + 2 * k, 0] = -gap
    targets = np.zeros((3, max(d, 2)))
    targets[1, 0] = 1e-3
    targets[2, 0] = -1e-3
    return targets, release


def _constant_first(d):
    targets, release = _rounded(20, d, 4), _rounded(25, d, 5)
    targets[:, 0] = release[:, 0] = 1.5
    return targets, release


def _with(array, value, row, column):
    array = array.copy()
    array[row, column] = value
    return array


_SCAN_CASES = {
    "random": lambda d: (_rounded(40, d, 1), _rounded(55, d, 2)),
    "duplicated rows": lambda d: (_rounded(20, d, 1),
                                  _rounded(20, d, 1)[np.arange(60) // 3]),
    "ties within the tolerance": _near_ties,
    "ties on the window edge": _window_edge,
    "constant first column": _constant_first,
    "empty release": lambda d: (_rounded(5, d, 1), np.zeros((0, d))),
    "single row": lambda d: (_rounded(5, d, 1), _rounded(1, d, 2)),
    "single target": lambda d: (_rounded(1, d, 1), _rounded(30, d, 2)),
    "no targets": lambda d: (np.zeros((0, d)), _rounded(30, d, 2)),
}
for _value in (math.nan, math.inf, -math.inf):
    for _column in (0, -1):
        _SCAN_CASES[f"target {_value} in column {_column}"] = (
            lambda d, v=_value, c=_column: (
                _with(_rounded(20, d, 1), v, 3, c), _rounded(30, d, 2)))
        _SCAN_CASES[f"release {_value} in column {_column}"] = (
            lambda d, v=_value, c=_column: (
                _rounded(20, d, 1), _with(_rounded(30, d, 2), v, 3, c)))
_SCAN_CASES["inf in the same cell of both"] = lambda d: (
    _with(_rounded(20, d, 1), math.inf, 3, -1),
    _with(_rounded(30, d, 2), math.inf, 5, -1))


@pytest.fixture(params=["one block", "many blocks"])
def scan_blocks(request, monkeypatch):
    if request.param == "many blocks":
        # Blocks of one or a few targets on uint64.
        monkeypatch.setattr(nearest, "SCAN_BLOCK_FLOATS", 60)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("d", [1, 3, 9])
@pytest.mark.parametrize("case", sorted(_SCAN_CASES))
def test_link_candidates_match_truth(name, d, case, scan_blocks):
    targets, release = _SCAN_CASES[case](d)
    rows, released = _probe(name).link_candidates(
        targets, release, _RTOL, _ATOL
    )
    pairs = set(zip(rows.tolist(), released.tolist()))
    assert len(pairs) == rows.size == released.size  # each pair once
    assert pairs == _truth_candidates(targets, release)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("tol", [0.0, 0.15, 0.25, 1.0])
@pytest.mark.parametrize("d", [1, 3, 9])
@pytest.mark.parametrize("case", sorted(_SCAN_CASES))
def test_tolerance_matches_match_truth(name, d, case, tol, scan_blocks):
    targets, release = _SCAN_CASES[case](d)
    matched = _probe(name).tolerance_matches(targets, release, tol)
    assert matched == _truth_matches(targets, release, tol)


def _fused_edge_row():
    """A 2-column row on the tie cut of a nearest distance of 1 from the
    origin, on one side of it when its squares are rounded and summed
    separately and on the other when the second square is fused into the
    sum (one rounding, as a multiply-add instruction does)."""
    reach = 1.0 * (1 + 2 * _RTOL) + 2 * _ATOL
    cut = reach * reach
    for theta in np.random.default_rng(0).uniform(0.1, 1.4, 20000).tolist():
        a, b = reach * math.cos(theta), reach * math.sin(theta)
        separate = a * a + b * b
        fused = float(Fraction(b) ** 2 + Fraction(a * a))  # rounded once
        if (separate <= cut) != (fused <= cut):
            return [a, b]
    raise AssertionError("no row found")  # pragma: no cover


@pytest.mark.parametrize("name", ALL)
def test_link_candidates_round_each_square_and_sum(name, scan_blocks):
    """A backend whose compiler contracted the screen into multiply-adds
    would take, or drop, the second row."""
    targets = np.zeros((1, 2))
    release = np.array([[1.0, 0.0], _fused_edge_row()])
    rows, released = _probe(name).link_candidates(
        targets, release, _RTOL, _ATOL
    )
    assert set(zip(rows.tolist(), released.tolist())) == _truth_candidates(
        targets, release
    )


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_tolerance_matches_on_the_window_edge(name, d, scan_blocks):
    """Rows exactly the tolerance away in column 0 match; one float past
    it they do not."""
    tol = 0.15
    targets = _rounded(30, d, 6)
    release = np.concatenate([targets, targets])
    release[:30, 0] += tol
    release[30:, 0] = np.nextafter(release[30:, 0] + tol, np.inf)
    expected = _truth_matches(targets, release, tol)
    assert 0 < expected < 30
    assert _probe(name).tolerance_matches(targets, release, tol) == expected


@pytest.mark.skipif("cext" not in ALL, reason="no C compiler")
@pytest.mark.parametrize("d", [2, 3, 12])
@pytest.mark.parametrize("spread", [1.0, 1e-6])
def test_scans_equal_across_backends(d, spread, scan_blocks):
    """At sizes where the numpy windows span many blocks, both backends
    return the same candidate set and the same match count."""
    rng = np.random.default_rng(d)
    targets = rng.normal(size=(600, d)).round(2)
    release = np.concatenate([
        targets[:200] + rng.normal(scale=spread, size=(200, d)),
        targets[200:400],
        targets[np.arange(200) // 5],
    ])
    found = {}
    for name in ("cext", "uint64"):
        rows, released = _probe(name).link_candidates(
            targets, release, _RTOL, _ATOL
        )
        found[name] = (
            set(zip(rows.tolist(), released.tolist())),
            [_probe(name).tolerance_matches(targets, release, tol)
             for tol in (0.0, 0.05, 0.25)],
        )
    assert found["cext"] == found["uint64"]


_BAD_SCANS = {
    "1-D targets": ((3,), (4, 3)),
    "1-D release": ((3, 3), (4,)),
    "column counts differ": ((3, 2), (4, 3)),
    "no columns": ((3, 0), (4, 0)),
    "3-D release": ((3, 3), (4, 3, 1)),
}


@pytest.mark.parametrize("method", ["link_candidates", "tolerance_matches"])
@pytest.mark.parametrize("case", sorted(_BAD_SCANS))
def test_scans_reject_mis_shaped_input(method, case):
    targets, release = _BAD_SCANS[case]
    extra = (_RTOL, _ATOL) if method == "link_candidates" else (0.25,)
    messages = set()
    for name in ALL:
        with pytest.raises(ValueError, match=f"^{method} needs") as err:
            getattr(_probe(name), method)(
                np.ones(targets), np.ones(release), *extra
            )
        messages.add(str(err.value))
    assert len(messages) == 1


#: ``score_technologies`` digests over patients(400), recorded with the
#: blocked numpy scans before the kernel tier held them.
_TABLE2_DIGESTS = {0: "49a6bb49105ad4d2", 9: "86d4fa51d1bc5a16",
                   18: "83d0b709430f8c05"}


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("seed", sorted(_TABLE2_DIGESTS))
def test_table2_scores_identical_across_backends(name, seed):
    from tests.test_core_scoring import _digest

    population = patients(400, seed=seed).drop(["patient_id"])
    with use_backend(name):
        comparison = score_technologies(population, seed=seed)
    assert _digest(comparison) == _TABLE2_DIGESTS[seed]


@pytest.mark.skipif("cext" not in ALL, reason="no C compiler")
def test_library_is_keyed_on_how_it_was_built(tmp_path, monkeypatch):
    """A library built with other flags is never reused."""
    monkeypatch.setenv("REPRO_KERNELS_CACHE", str(tmp_path))
    first = cext.build_library()
    monkeypatch.setattr(cext, "_FLAG_CHAIN", (("-O1",),))
    second = cext.build_library()
    assert first is not None and second is not None
    assert first._name != second._name
    assert sorted(path.name for path in tmp_path.glob("*.so")) == sorted(
        path.rsplit("/", 1)[-1] for path in (first._name, second._name)
    )


def _scheme_transcript(scheme_factory):
    """Deterministic single + batch retrievals for one scheme instance."""
    pir = scheme_factory()
    singles = [pir.retrieve(i % pir.n, 1000 + i) for i in range(4)]
    batch = pir.retrieve_batch([0, pir.n // 2, pir.n - 1, 0], 77)
    return singles, batch, pir.last_batch_queries


# Ragged 13-byte blocks + a non-multiple-of-64 database size: the shapes
# where packed layouts break first.
_SCHEMES = {
    "two-server": lambda: TwoServerXorPIR(
        [bytes([i % 251]) * 13 for i in range(137)]
    ),
    "multi-server": lambda: MultiServerXorPIR(
        [bytes([i % 251]) * 13 for i in range(137)], n_servers=3
    ),
    "square": lambda: SquareSchemePIR(
        [bytes([i % 251]) * 13 for i in range(137)]
    ),
}


def _across_backends(transcript, monkeypatch):
    """Run *transcript* under the boolean truth, then assert every
    available backend reproduces it exactly; returns the truth's run."""
    monkeypatch.setattr(backends, "_active", TRUTH)
    reference = transcript()
    for name in ALL:
        with use_backend(name):
            assert transcript() == reference, name
    return reference


@pytest.mark.parametrize("scheme", sorted(_SCHEMES))
def test_schemes_byte_identical_across_backends(scheme, monkeypatch):
    _across_backends(lambda: _scheme_transcript(_SCHEMES[scheme]),
                     monkeypatch)


def test_faulty_wrappers_identical_across_backends(monkeypatch):
    """Byzantine voting over every backend returns the same blocks."""

    def transcript():
        plan = FaultPlan([Fault("byzantine", "pir.replica:0")], seed=9)
        pir = ResilientXorPIR(
            [bytes([i % 251]) * 13 for i in range(137)], f=1, plan=plan
        )
        singles = [pir.retrieve(i * 31 % pir.n, 500 + i) for i in range(3)]
        return singles, pir.retrieve_batch([0, 5, 136], 88)

    _across_backends(transcript, monkeypatch)


def test_audit_decisions_identical_across_backends(monkeypatch):
    """The full policy stack refuses/answers identically on any backend."""
    from tests.test_qdb_perf_equivalence import (  # reuse the workload maker
        random_workload,
    )

    pop = patients(300, seed=5)
    queries = random_workload(pop, np.random.default_rng(21), 60)

    def transcript():
        db = StatisticalDatabase(pop, [
            QuerySetSizeControl(5),
            OverlapControl(40),
            SumAuditPolicy(),
        ])
        out = []
        for query in queries:
            answer = db.ask(query)
            out.append((answer.refused, answer.reason, answer.value))
        return out

    reference = _across_backends(transcript, monkeypatch)
    assert any(r for r, _, _ in reference)  # the session must refuse some


def test_registry_selection_and_restore():
    assert get_backend().name in ALL
    assert backend_info()["name"] == get_backend().name
    before = get_backend()
    with use_backend("uint64") as backend:
        assert backend.name == "uint64"
        assert get_backend().name == "uint64"
    assert get_backend() is before
    with pytest.raises(ValueError, match="unknown kernel backend"):
        with use_backend("no-such-backend"):
            pass  # pragma: no cover
    assert get_backend() is before


def test_unavailable_backend_is_loud(monkeypatch):
    # Force the cext probe to have failed, as on a box without a compiler.
    monkeypatch.setitem(backends._probed, "cext", None)
    assert backends.available_backends() == ("uint64",)
    with pytest.raises(RuntimeError, match="unavailable"):
        with use_backend("cext"):
            pass  # pragma: no cover
    monkeypatch.setattr(backends, "_active", None)
    monkeypatch.setenv("REPRO_KERNELS", "cext")
    with pytest.raises(RuntimeError, match="unavailable"):
        backends.get_backend()


def test_env_override_requires_available_backend(monkeypatch):
    monkeypatch.setattr(backends, "_active", None)
    monkeypatch.setenv("REPRO_KERNELS", "definitely-not-a-backend")
    with pytest.raises(ValueError, match="unknown kernel backend"):
        backends.get_backend()
    for name in ("uint8", "numba"):  # only cext and uint64 are backends
        monkeypatch.setenv("REPRO_KERNELS", name)
        with pytest.raises(ValueError, match="unknown kernel backend"):
            backends.get_backend()
    monkeypatch.setenv("REPRO_KERNELS", "uint64")
    assert backends.get_backend().name == "uint64"
