"""Tests for disclosure-risk measures."""

import numpy as np
import pytest

from repro.data import Dataset
from repro.kernels import available_backends, nearest, use_backend
from repro.sdc import (
    IdentityMasking,
    Microaggregation,
    UncorrelatedNoise,
    assess_risk,
    class_linkage_rate,
    distance_linkage_rate,
    equivalence_classes,
    interval_disclosure_rate,
    unique_interval_disclosure_rate,
    uniqueness_rate,
)
from repro.sdc import risk


class TestDistanceLinkage:
    def test_identity_release_fully_linkable(self, patients_300):
        rate = distance_linkage_rate(
            patients_300, patients_300, ["height", "weight", "age"]
        )
        assert rate > 0.95

    def test_k_anonymous_release_caps_at_1_over_k(self, patients_300):
        release = Microaggregation(5).mask(patients_300)
        rate = distance_linkage_rate(
            patients_300, release, ["height", "weight", "age"]
        )
        assert rate == pytest.approx(1 / 5, abs=0.06)

    def test_noise_reduces_linkage(self, patients_300, rng):
        release = UncorrelatedNoise(1.0).mask(patients_300, rng)
        rate = distance_linkage_rate(
            patients_300, release, ["height", "weight", "age"]
        )
        assert rate < 0.3

    def test_intruder_noise_lowers_success(self, patients_300):
        exact = distance_linkage_rate(
            patients_300, patients_300, ["height", "weight"], 0.0
        )
        fuzzy = distance_linkage_rate(
            patients_300, patients_300, ["height", "weight"], 1.0
        )
        assert fuzzy < exact

    def test_misaligned_rejected(self, patients_300):
        with pytest.raises(ValueError, match="row-aligned"):
            distance_linkage_rate(
                patients_300, patients_300.select(np.arange(10))
            )

    def test_empty(self):
        from repro.data import Dataset
        empty = Dataset.from_rows(["a"], [])
        assert distance_linkage_rate(empty, empty, ["a"]) == 0.0


def _scan_linkage(original, masked, columns, intruder_noise_sd=0.0, rng=0):
    """The per-target scan distance_linkage_rate used to run: the oracle."""
    rng = np.random.default_rng(rng)
    x, y = original.matrix(columns), masked.matrix(columns)
    scale = x.std(axis=0)
    scale[scale == 0] = 1.0
    known = x + rng.normal(0.0, intruder_noise_sd, x.shape) * scale
    xs, ys = known / scale, y / scale
    hits = 0.0
    for i in range(xs.shape[0]):
        d = np.linalg.norm(ys - xs[i], axis=1)
        best = d.min()
        ties = np.flatnonzero(np.isclose(d, best, rtol=1e-9, atol=1e-12))
        if i in ties:
            hits += 1.0 / ties.size
    return hits / xs.shape[0]


def _table(n, width, decimals=1):
    """n records of *width* numeric columns, rounded so values collide."""
    values = np.random.default_rng(0).normal(size=(n, width)).round(decimals)
    return Dataset.from_matrix(values)


def _near_duplicates(n, width):
    """Records in pairs whose first column differs by 3e-13: tied within
    the linkage tolerance, but not equal."""
    values = _table(n, width, decimals=9).matrix()[np.arange(n) // 2]
    values[1::2, 0] += 3e-13
    return Dataset.from_matrix(values)


def _tolerance_edge_pair(width):
    """Filler records plus a pair whose distance, in std units, lands on
    opposite sides of the 1e-12 tie tolerance when its squares are summed
    in column order and when np.linalg.norm sums them, or None."""
    for seed in range(200):
        rng = np.random.default_rng(seed)
        filler = rng.normal(size=(40, width))
        base = np.zeros(width)
        base[0] = 50.0  # far from the filler, so the pair is each other's nearest
        step = rng.normal(size=width)
        step[0] = 0.0
        step /= np.linalg.norm(step)
        scale = np.vstack([filler, base, base]).std(axis=0)
        for ulps in range(-64, 65):
            nudge = step * scale * 1e-12 * (1 + ulps * 2.0 ** -52)
            values = np.vstack([filler, base, base + nudge])
            scaled = values / values.std(axis=0)
            diff = scaled[-1:] - scaled[-2]
            in_order = 0.0
            for term in (diff * diff)[0]:
                in_order += term
            norm = np.linalg.norm(diff, axis=1)[0]  # as the scan computes it
            if (np.sqrt(in_order) <= 1e-12) != (norm <= 1e-12):
                return Dataset.from_matrix(values)
    return None


_RELEASES = {
    "verbatim": lambda data: data,
    "microaggregation": lambda data: Microaggregation(5).mask(
        data, np.random.default_rng(1)
    ),
    "noise": lambda data: UncorrelatedNoise(0.5).mask(
        data, np.random.default_rng(2)
    ),
}


def _with_cell(data, row, column, value):
    """A copy of *data* with one cell replaced."""
    values = data.matrix()
    values[row, column] = value
    return Dataset.from_matrix(values)


def _far_neighbours(width):
    """Target 0 and the release.  The target's own released row is far
    away, and the rows beside it in first-column order are 50 away in the
    other columns.  Its nearest release row differs from it by 2.9 in
    column 0 alone."""
    original = _table(150, width).matrix()
    original[0, 1:] = 50.0
    released = original.copy()
    released[0] = 1000.0
    released[1] = original[0]
    released[1, 0] += 2.9
    return Dataset.from_matrix(original), Dataset.from_matrix(released)


def _straddling_tie(width):
    """Records in first-column order whose 6th and 7th differ by 3e-13 in
    column 0 alone: tied within the 1e-12 tolerance, and on either side of
    a block edge when blocks hold 6 targets.  The first values of the
    first block are below 0.12 in std units, so a window that was not
    widened by the tie tolerance would stop short of the partner."""
    values = _table(150, width, decimals=9).matrix()
    values[:, 0] = np.arange(150) * 0.01 - 0.05
    values[6] = values[5]
    values[6, 0] += 3e-13
    return Dataset.from_matrix(values)


class TestBlockedLinkageMatchesScan:
    """distance_linkage_rate scores targets against the whole release on
    every kernel backend; it must return the per-target scan's float
    exactly."""

    @pytest.fixture(autouse=True, params=available_backends())
    def backend(self, request):
        with use_backend(request.param):
            yield

    @pytest.fixture(params=["one block", "many blocks"])
    def blocks(self, request, monkeypatch):
        if request.param == "many blocks":
            # At 150 release rows: blocks of 6 targets on uint64, the last
            # one short.
            monkeypatch.setattr(nearest, "SCAN_BLOCK_FLOATS", 1000)

    @pytest.mark.parametrize("noise_sd", [0.0, 0.5])
    @pytest.mark.parametrize("release", sorted(_RELEASES))
    @pytest.mark.parametrize("width", [1, 3, 9, 12])
    def test_release(self, blocks, width, release, noise_sd):
        data = _table(150, width)
        masked = _RELEASES[release](data)
        columns = list(data.column_names)
        assert distance_linkage_rate(
            data, masked, columns, noise_sd, rng=4
        ) == _scan_linkage(data, masked, columns, noise_sd, rng=4)

    @pytest.mark.parametrize("width", [1, 3, 9, 12])
    def test_duplicated_rows(self, blocks, width):
        data = _table(150, width, decimals=9).take(np.arange(150) // 3)
        columns = list(data.column_names)
        rate = distance_linkage_rate(data, data, columns)
        assert rate == _scan_linkage(data, data, columns)
        assert rate == pytest.approx(1 / 3)

    @pytest.mark.parametrize("width", [1, 3, 9, 12])
    def test_ties_within_tolerance(self, blocks, width):
        data = _near_duplicates(150, width)
        columns = list(data.column_names)
        rate = distance_linkage_rate(data, data, columns)
        assert rate == _scan_linkage(data, data, columns)
        assert rate == pytest.approx(1 / 2)

    @pytest.mark.parametrize("width", [8, 9, 12, 20])
    def test_tie_on_the_tolerance_edge(self, blocks, width):
        """From 8 columns numpy sums squares pairwise, so only recomputing
        the candidates with np.linalg.norm settles this pair as the scan
        did."""
        data = _tolerance_edge_pair(width)
        if data is None:
            pytest.skip("column-order sums agree with np.linalg.norm here")
        columns = list(data.column_names)
        assert distance_linkage_rate(
            data, data, columns
        ) == _scan_linkage(data, data, columns)

    @pytest.mark.parametrize("noise_sd", [0.0, 0.5])
    @pytest.mark.parametrize("release", sorted(_RELEASES))
    @pytest.mark.parametrize("width", [1, 3, 9])
    def test_constant_first_column(self, blocks, width, release, noise_sd):
        values = _table(150, width).matrix()
        values[:, 0] = 1.5
        data = Dataset.from_matrix(values)
        masked = _RELEASES[release](data)
        columns = list(data.column_names)
        assert distance_linkage_rate(
            data, masked, columns, noise_sd, rng=4
        ) == _scan_linkage(data, masked, columns, noise_sd, rng=4)

    @pytest.mark.parametrize("width", [2, 3, 9, 12])
    def test_neighbours_in_sort_order_far_away(self, blocks, width):
        original, released = _far_neighbours(width)
        columns = list(original.column_names)
        assert distance_linkage_rate(
            original, released, columns
        ) == _scan_linkage(original, released, columns)

    @pytest.mark.parametrize("width", [1, 3, 9, 12])
    def test_tie_straddling_a_block_edge(self, blocks, width):
        data = _straddling_tie(width)
        columns = list(data.column_names)
        rate = distance_linkage_rate(data, data, columns)
        assert rate == _scan_linkage(data, data, columns)
        assert rate == pytest.approx(149 / 150)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", [0, -1])
    @pytest.mark.parametrize("side", ["release", "target"])
    @pytest.mark.parametrize("width", [1, 3])
    def test_non_finite_cell(self, blocks, width, side, column, value):
        """A NaN or infinite value anywhere takes the whole release into
        every window: one NaN release cell makes every share 0."""
        data = _table(150, width)
        masked = _RELEASES["noise"](data)
        if side == "release":
            masked = _with_cell(masked, 7, column, value)
        else:
            data = _with_cell(data, 7, column, value)
        columns = list(data.column_names)
        rate = distance_linkage_rate(data, masked, columns)
        assert rate == _scan_linkage(data, masked, columns)
        if value != value:  # NaN
            assert rate == 0.0

    @pytest.mark.parametrize("noise_sd", [0.0, 0.5])
    @pytest.mark.parametrize("release", sorted(_RELEASES))
    @pytest.mark.parametrize("width", [1, 3])
    def test_600_rows(self, blocks, width, release, noise_sd):
        data = _table(600, width)
        masked = _RELEASES[release](data)
        columns = list(data.column_names)
        assert distance_linkage_rate(
            data, masked, columns, noise_sd, rng=5
        ) == _scan_linkage(data, masked, columns, noise_sd, rng=5)

    @pytest.mark.parametrize("noise_sd", [0.0, 0.5])
    @pytest.mark.parametrize("width", [1, 3, 9, 12])
    def test_single_record(self, width, noise_sd):
        data = _table(1, width)
        masked = _RELEASES["noise"](data)
        columns = list(data.column_names)
        assert distance_linkage_rate(
            data, masked, columns, noise_sd
        ) == _scan_linkage(data, masked, columns, noise_sd) == 1.0


class TestClassLinkage:
    def test_unique_records(self, ds2):
        assert class_linkage_rate(ds2, ["height", "weight"]) == pytest.approx(
            7 / 10  # 7 classes (5 singletons, one pair, one triple) / 10
        )

    def test_k_anonymous(self, ds1):
        rate = class_linkage_rate(ds1, ["height", "weight"])
        assert rate == pytest.approx(3 / 10)  # 3 classes / 10 records


class TestUniqueness:
    def test_dataset_2(self, ds2):
        assert uniqueness_rate(ds2, ["height", "weight"]) == pytest.approx(0.5)

    def test_dataset_1(self, ds1):
        assert uniqueness_rate(ds1, ["height", "weight"]) == 0.0

    def test_k_counts_classes_up_to_k(self, ds2):
        # Five singletons and one pair: 7 of 10 records sit in classes of
        # at most 2; classes of fewer than 2 would hold only 5.
        assert uniqueness_rate(ds2, ["height", "weight"], k=2) == pytest.approx(
            0.7
        )


def _singletons_from_classes(data, columns):
    """The singleton mask unique_interval_disclosure_rate used to build
    from equivalence_classes: the oracle."""
    singleton = np.zeros(data.n_rows, dtype=bool)
    for cls in equivalence_classes(data, columns):
        if cls.size == 1:
            singleton[list(cls.indices)] = True
    return singleton


def _unique_interval_scan(original, masked, columns, interval_pct=20.0):
    """unique_interval_disclosure_rate over equivalence_classes: the
    oracle."""
    x, y = original.matrix(columns), masked.matrix(columns)
    std = x.std(axis=0)
    std[std == 0] = 1.0
    within = np.abs(y - x) <= (interval_pct / 100.0) * std
    singleton = _singletons_from_classes(masked, columns)
    return float((within * singleton[:, None]).mean())


_KEYED = {
    "nan": [[1.0, np.nan], [1.0, np.nan], [np.nan, np.nan], [np.nan, np.nan],
            [2.0, 3.0], [2.0, 3.0], [2.0, 4.0], [np.nan, 3.0]],
    "signed zero": [[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [-0.0, 0.0],
                    [-0.0, 2.0], [1.0, 1.0]],
    "integers": [[2 ** 53, 1], [2 ** 53 + 1, 1], [7, 1], [7, 2], [7, 1],
                 [-3, 0], [-3, 1]],
    "one row": [[4.0, 5.0]],
    "all equal": [[4.0, 5.0]] * 6,
    "collisions": np.random.default_rng(3).integers(0, 4, size=(300, 3)),
}


class TestSingletonsMatchEquivalenceClasses:
    """unique_interval_disclosure_rate finds release-unique rows with one
    sort; they must be exactly the singleton equivalence classes."""

    @pytest.mark.parametrize("case", sorted(_KEYED))
    def test_singleton_mask(self, case):
        rows = np.array(_KEYED[case])  # integer cases stay integer arrays
        data = Dataset({f"x{j}": column for j, column in enumerate(rows.T)})
        everything = list(data.column_names)
        for columns in (["x0"], ["x1"], ["x1", "x0"], everything):
            assert np.array_equal(
                risk._singletons(data, columns),
                _singletons_from_classes(data, columns),
            )

    @pytest.mark.parametrize("release", sorted(_RELEASES))
    @pytest.mark.parametrize("width", [1, 3, 9])
    def test_rate(self, width, release):
        data = _table(300, width)
        masked = _RELEASES[release](data)
        columns = list(data.column_names)
        assert unique_interval_disclosure_rate(
            data, masked, columns, 20.0
        ) == _unique_interval_scan(data, masked, columns)


class TestIntervalDisclosure:
    def test_identity_is_total(self, patients_300):
        assert interval_disclosure_rate(
            patients_300, patients_300, ["height", "weight"]
        ) == 1.0

    def test_heavy_noise_low(self, patients_300, rng):
        release = UncorrelatedNoise(2.0).mask(patients_300, rng)
        rate = interval_disclosure_rate(
            patients_300, release, ["height", "weight"], 10.0
        )
        assert rate < 0.2

    def test_unique_variant_zero_for_k_anonymous(self, patients_300):
        """k-Anonymous releases defeat interval re-identification: no
        released key combination is unique."""
        release = Microaggregation(5).mask(patients_300)
        rate = unique_interval_disclosure_rate(
            patients_300, release, ["height", "weight", "age"]
        )
        assert rate == 0.0

    def test_unique_variant_positive_for_noise(self, patients_300, rng):
        release = UncorrelatedNoise(0.3).mask(patients_300, rng)
        rate = unique_interval_disclosure_rate(
            patients_300, release, ["height", "weight", "age"]
        )
        assert rate > 0.2


class TestAssessRisk:
    def test_report_fields(self, patients_300, rng):
        release = UncorrelatedNoise(0.5).mask(patients_300, rng)
        report = assess_risk(patients_300, release,
                             ["height", "weight", "age"])
        assert 0 <= report.linkage_rate <= 1
        assert 0 <= report.respondent_privacy <= 1

    def test_identity_release_no_privacy(self, patients_300):
        report = assess_risk(
            patients_300, IdentityMasking().mask(patients_300),
            ["height", "weight", "age"],
        )
        assert report.respondent_privacy < 0.05
