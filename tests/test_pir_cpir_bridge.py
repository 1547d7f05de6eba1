"""Tests for computational PIR and the PIR-SQL bridge."""

import random

import numpy as np
import pytest

from repro.data import dataset_2, patients
from repro.pir import (
    LinearCPIR,
    MatrixCPIR,
    PrivateAggregateIndex,
)


class TestLinearCPIR:
    @pytest.fixture(scope="class")
    def pir(self):
        return LinearCPIR([10, 20, 30, 40, 50], key_bits=128,
                          rng=random.Random(0))

    def test_retrieval(self, pir):
        for i in range(5):
            assert pir.retrieve(i) == (i + 1) * 10

    def test_out_of_range(self, pir):
        with pytest.raises(IndexError):
            pir.retrieve(5)

    def test_upstream_is_linear(self, pir):
        before = pir.upstream_ciphertexts
        pir.retrieve(2)
        assert pir.upstream_ciphertexts - before == pir.n

    def test_negative_records(self):
        pir = LinearCPIR([-7, 3], key_bits=128, rng=random.Random(1))
        assert pir.retrieve(0) == -7


class TestMatrixCPIR:
    def test_retrieval(self):
        pir = MatrixCPIR(list(range(30)), key_bits=128, rng=random.Random(2))
        for i in (0, 13, 29):
            assert pir.retrieve(i) == i

    def test_upstream_sublinear(self):
        n = 64
        linear = LinearCPIR(list(range(n)), key_bits=128, rng=random.Random(3))
        matrix = MatrixCPIR(list(range(n)), key_bits=128, rng=random.Random(4))
        linear.retrieve(5)
        matrix.retrieve(5)
        assert matrix.upstream_ciphertexts < linear.upstream_ciphertexts / 4


class TestPrivateAggregateIndex:
    @pytest.fixture(scope="class")
    def index(self):
        return PrivateAggregateIndex(
            dataset_2(), ["height", "weight"], "blood_pressure",
            edges={"height": [150, 165, 180, 200],
                   "weight": [50, 80, 105, 130]},
        )

    def test_paper_count_query(self, index):
        result = index.query({"height": (0, 165), "weight": (105, 1000)})
        assert result.count == 1

    def test_paper_avg_query(self, index):
        """The Section 3 attack: AVG(blood_pressure) of the isolated
        individual is 146."""
        result = index.query({"height": (0, 165), "weight": (105, 1000)})
        assert result.average == pytest.approx(146.0)

    def test_unconstrained_query_counts_everyone(self, index):
        result = index.query({})
        assert result.count == 10

    def test_sum_consistency(self, index):
        result = index.query({})
        assert result.total == pytest.approx(float(dataset_2()["blood_pressure"].sum()))

    def test_empty_selection(self, index):
        result = index.query({"height": (195, 200), "weight": (105, 130)})
        assert result.count == 0
        assert np.isnan(result.average)

    def test_unknown_column_rejected(self, index):
        with pytest.raises(KeyError):
            index.query({"age": (0, 100)})

    def test_boundary_cells_excluded(self, index):
        """Predicates not aligned on published edges return partial cells
        only — the straddling cell is excluded, never approximated."""
        aligned = index.query({"height": (150, 165)})
        narrower = index.query({"height": (150, 160)})
        assert narrower.count == 0  # no cell fits inside [150, 160)
        assert aligned.count >= 1

    def test_server_sees_only_subsets(self, index):
        index.query({"height": (0, 165), "weight": (105, 1000)}, rng=9)
        q1, q2 = index.server_observations()
        assert set(q1) ^ set(q2)  # they differ in exactly the target cell

    def test_edges_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            PrivateAggregateIndex(
                dataset_2(), ["height"], "blood_pressure",
                edges={"height": [10, 5]},
            )

    def test_values_outside_edges_clamped(self):
        index = PrivateAggregateIndex(
            dataset_2(), ["height"], "blood_pressure",
            edges={"height": [160, 170, 180]},
        )
        # Every record lands somewhere; total count preserved.
        assert index.query({}).count == 10


def _section3_index():
    return PrivateAggregateIndex(
        dataset_2(), ["height", "weight"], "blood_pressure",
        edges={"height": [150, 165, 180, 200],
               "weight": [50, 80, 105, 130]},
    )


def _single_fetch_query(index, ranges, rng=0):
    """The dedicated single-predicate path ``query`` ran before it became
    a batch of one: one ``retrieve_batch`` over the predicate's cells in
    scan order, kept as the reference."""
    cells = index._cells_for_ranges(ranges)
    raws = index._pir.retrieve_batch(cells, rng)
    index.cells_fetched += len(cells)
    index.blocks_fetched += len(cells)
    return index._sum_cells(raws, range(len(cells)))


def _observed(index, result):
    return (
        result, index.cells_fetched, index.blocks_fetched,
        index.server_observations(), index._pir.upstream_bits,
        index._pir.downstream_bits,
    )


class TestQueryIsABatchOfOne:
    RANGE_SETS = (
        {"height": (0, 165), "weight": (105, 1000)},
        {},
        {"height": (195, 200), "weight": (105, 130)},
        {"weight": (50, 105)},
    )
    RNG_FORMS = {
        "default": lambda: {},
        "int": lambda: {"rng": 9},
        "generator": lambda: {"rng": np.random.default_rng(5)},
    }

    @pytest.mark.parametrize("rng", RNG_FORMS.values(), ids=RNG_FORMS.keys())
    @pytest.mark.parametrize("ranges", RANGE_SETS)
    def test_query_equals_batch_of_one_and_single_fetch(self, ranges, rng):
        single, batch, reference = (_section3_index() for _ in range(3))
        got = _observed(single, single.query(ranges, **rng()))
        assert got == _observed(
            batch, batch.query_batch([ranges], **rng())[0]
        )
        assert got == _observed(
            reference, _single_fetch_query(reference, ranges, **rng())
        )

    def test_batch_coalesces_shared_cells(self):
        index = _section3_index()
        results = index.query_batch(list(self.RANGE_SETS), rng=3)
        sequential = _section3_index()
        assert results == [sequential.query(r, rng=3)
                           for r in self.RANGE_SETS]
        assert index.cells_fetched == sequential.cells_fetched
        assert index.blocks_fetched < index.cells_fetched
        assert index.query_batch([]) == []


class TestBatchCells:
    def test_shared_cells_are_fetched_once_in_first_occurrence_order(self):
        # 3 x 3 grid, cell = height bin * 3 + weight bin: the first
        # predicate is cell 2, the second the whole height-bin-0 row.
        cells, routes = _section3_index().batch_cells([
            {"height": (0, 165), "weight": (105, 1000)},
            {"height": (0, 165)},
        ])
        assert cells == [2, 0, 1]
        assert routes == [[0], [1, 2, 0]]

    def test_a_batch_of_one_fetches_its_cells_in_scan_order(self):
        index = _section3_index()
        for ranges in TestQueryIsABatchOfOne.RANGE_SETS:
            cells, routes = index.batch_cells([ranges])
            assert cells == index._cells_for_ranges(ranges)
            assert routes == [list(range(len(cells)))]

    def test_an_unknown_column_fails_before_any_fetch(self):
        index = _section3_index()
        with pytest.raises(KeyError, match="non-grid"):
            index.query_batch([{"height": (0, 165)}, {"age": (0, 100)}])
        assert index.server_observations() is None
        assert (index.cells_fetched, index.blocks_fetched) == (0, 0)
