"""Tests for the attack adversaries."""

import numpy as np
import pytest

from repro.attacks import (
    DistanceLinkageAttack,
    ProbabilisticLinkageAttack,
    best_linkage_rate,
    dimensionality_sweep,
    extraction_from_release,
    extraction_from_transcript,
    extraction_via_pir_download,
    isolation_attack,
    reconstruction_attack,
)
from repro.data import Dataset, dataset_2, patients, sparse_uniform
from repro.kernels import available_backends, nearest, use_backend
from repro.pir import PrivateAggregateIndex
from repro.ppdm import (
    AgrawalSrikantRandomizer,
    NoiseModel,
    posterior_cells,
    reconstruct_joint,
)
from repro.sdc import IdentityMasking, Microaggregation, UncorrelatedNoise
from repro.smc import Transcript


class TestLinkage:
    def test_distance_attack_identity(self, patients_300):
        outcome = DistanceLinkageAttack(["height", "weight", "age"]).run(
            patients_300, patients_300
        )
        assert outcome.success_rate > 0.95

    def test_probabilistic_attack_identity(self, patients_300):
        outcome = ProbabilisticLinkageAttack(["height", "weight"]).run(
            patients_300, patients_300
        )
        assert outcome.success_rate > 0.8

    def test_probabilistic_prefers_rare_values(self):
        """Agreement on a rare value outweighs agreement on a common one."""
        from repro.data import Dataset
        release = Dataset({
            "a": ["common"] * 9 + ["rare"],
            "b": [str(i) for i in range(10)],
        })
        attack = ProbabilisticLinkageAttack(["a"])
        outcome = attack.run(release, release)
        # The rare record links perfectly; commons are 1/9 each.
        assert outcome.correct == pytest.approx(9 * (1 / 9) + 1.0)

    def test_probabilistic_needs_columns(self):
        with pytest.raises(ValueError):
            ProbabilisticLinkageAttack([])

    def test_probabilistic_matches_reference_loop(self):
        """The vectorized score accumulation must agree with a direct
        per-record reference implementation."""
        import math
        rng = np.random.default_rng(11)
        from repro.data import Dataset
        n = 40
        original = Dataset({
            "a": rng.integers(0, 5, size=n).astype(str),
            "b": rng.integers(0, 3, size=n).astype(str),
        })
        release = Dataset({
            "a": rng.integers(0, 5, size=n).astype(str),
            "b": rng.integers(0, 3, size=n).astype(str),
        })
        columns = ["a", "b"]

        weights = {}
        for name in columns:
            values, counts = np.unique(release[name].astype(str),
                                       return_counts=True)
            weights[name] = {v: -math.log2(c / n)
                             for v, c in zip(values, counts)}
        expected = 0.0
        for i in range(n):
            scores = np.zeros(n)
            for name in columns:
                target = original[name].astype(str)[i]
                agree = release[name].astype(str) == target
                scores += np.where(agree, weights[name].get(target, 0.0), 0.0)
            best = scores.max()
            ties = np.flatnonzero(scores >= best - 1e-12)
            if i in ties:
                expected += 1.0 / ties.size

        outcome = ProbabilisticLinkageAttack(columns).run(original, release)
        assert outcome.correct == pytest.approx(expected, abs=1e-9)

    def test_probabilistic_chunked_scoring_consistent(self, patients_300):
        attack = ProbabilisticLinkageAttack(["height", "weight"])
        whole = attack.run(patients_300, patients_300)
        small_chunks = ProbabilisticLinkageAttack(["height", "weight"])
        small_chunks._CHUNK = 17
        chunked = small_chunks.run(patients_300, patients_300)
        assert chunked.correct == pytest.approx(whole.correct, abs=1e-9)

    def test_best_linkage_uses_class_model_for_suppressed(self, patients_300):
        from repro.sdc import RecordSuppression
        release = RecordSuppression(2).mask(patients_300)
        rate = best_linkage_rate(patients_300, release, ["height", "weight"])
        assert 0.0 <= rate <= 1.0

    def test_masking_reduces_best_linkage(self, patients_300, rng):
        masked = UncorrelatedNoise(1.0).mask(patients_300, rng)
        assert best_linkage_rate(
            patients_300, masked, ["height", "weight", "age"]
        ) < best_linkage_rate(
            patients_300, patients_300, ["height", "weight", "age"]
        )


class TestSparseReconstruction:
    def test_disclosure_rises_with_dimension(self):
        """The [11] effect: same per-value noise, more dimensions, more
        respondents pinned into singleton cells."""
        def make_pop(d):
            return sparse_uniform(150, d, seed=7)

        def randomize(data):
            r = AgrawalSrikantRandomizer(
                relative_scale=0.3, columns=list(data.column_names)
            )
            rel = r.mask(data, np.random.default_rng(1))
            return rel, [r.noise_models[c] for c in data.column_names]

        reports = dimensionality_sweep(make_pop, randomize, dims=[2, 6], bins=3)
        assert reports[0].disclosure_rate < 0.05
        assert reports[1].disclosure_rate > 0.15

    def test_report_arithmetic(self):
        from repro.attacks import SparseDisclosureReport
        report = SparseDisclosureReport(100, 4, 3, 40, 10)
        assert report.cell_recovery_rate == 0.4
        assert report.disclosure_rate == 0.1

    def test_attack_runs_on_dataset(self):
        pop = sparse_uniform(80, 3, seed=2)
        r = AgrawalSrikantRandomizer(0.4, columns=["x0", "x1", "x2"])
        rel = r.mask(pop, np.random.default_rng(3))
        report = reconstruction_attack(
            pop, rel, [r.noise_models[c] for c in ["x0", "x1", "x2"]],
            ["x0", "x1", "x2"], bins=3, max_iter=20,
        )
        assert report.n_records == 80
        assert 0 <= report.disclosure_rate <= report.cell_recovery_rate <= 1


def _reconstruction_attack_loop(original, randomized, noises, columns, bins):
    """The per-record counting reconstruction_attack used to run, with
    records of no posterior mass left uncounted: the oracle."""
    x = original.matrix(list(columns))
    w = randomized.matrix(list(columns))
    dist = reconstruct_joint(w, noises, bins=bins, max_iter=60)
    true_cells = [dist.cell_index(x[i]) for i in range(x.shape[0])]
    occupancy = {}
    for cell in true_cells:
        occupancy[cell] = occupancy.get(cell, 0) + 1
    correct = rare = 0
    for i, (cell, confidence) in enumerate(posterior_cells(w, noises, dist)):
        if confidence > 0 and cell == true_cells[i]:
            correct += 1
            if occupancy[cell] == 1:
                rare += 1
    return correct, rare


def _noisy_uniform(kind, d, scale, n=200, seed=0):
    """n records uniform on [0, 10]^d and their noisy copies."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 10, size=(n, d))
    models = [NoiseModel(kind, scale)] * d
    w = x + np.column_stack([m.sample(n, rng) for m in models])
    return Dataset.from_matrix(x), Dataset.from_matrix(w), models


class TestReconstructionAttackMatchesLoop:
    @pytest.mark.parametrize("d", [1, 2, 3, 6])
    @pytest.mark.parametrize(
        "kind,scale", [("gaussian", 1.5), ("uniform", 4.0), ("uniform", 0.5)]
    )
    def test_counts(self, kind, scale, d):
        original, randomized, models = _noisy_uniform(kind, d, scale)
        columns = list(original.column_names)
        bins = 4 if d <= 3 else 3
        report = reconstruction_attack(
            original, randomized, models, columns, bins
        )
        assert (report.correct_cells, report.rare_disclosures) == (
            _reconstruction_attack_loop(
                original, randomized, models, columns, bins
            )
        )

    def test_records_without_posterior_mass_are_not_recovered(self):
        """Uniform noise of width 0.5 on a 4-bin grid over [0, 10]^2 leaves
        191 of 200 records with no posterior mass; posterior_cells gives
        them the first cell, and the 4 whose true cell that is were once
        counted as recovered."""
        original, randomized, models = _noisy_uniform("uniform", 2, 0.5)
        w = randomized.matrix()
        dist = reconstruct_joint(w, models, bins=4, max_iter=60)
        cells = posterior_cells(w, models, dist)
        massless = [i for i, (_, p) in enumerate(cells) if p == 0.0]
        first_cell = [
            i for i in massless
            if dist.cell_index(original.matrix()[i]) == (0, 0)
        ]
        assert (len(massless), len(first_cell)) == (191, 4)
        report = reconstruction_attack(
            original, randomized, models, ["x0", "x1"], bins=4
        )
        recovered = sum(
            1 for i, (cell, p) in enumerate(cells)
            if p > 0 and cell == dist.cell_index(original.matrix()[i])
        )
        assert report.correct_cells == recovered == 9


class TestPIRIsolation:
    def test_dataset_2_attack(self):
        ds2 = dataset_2()
        index = PrivateAggregateIndex(
            ds2, ["height", "weight"], "blood_pressure",
            edges={"height": [150, 165, 180, 200],
                   "weight": [50, 80, 105, 130]},
        )
        report = isolation_attack(index, ds2.n_rows)
        assert report.cells_probed == 9
        values = {v.confidential_value for v in report.victims}
        assert 146.0 in values  # the paper's victim

    def test_k_anonymous_data_yields_fewer_victims(self, patients_300):
        masked = Microaggregation(5).mask(patients_300)
        edges = {
            "height": list(np.linspace(140, 210, 8)),
            "weight": list(np.linspace(30, 140, 8)),
        }
        raw_index = PrivateAggregateIndex(
            patients_300, ["height", "weight"], "blood_pressure", edges
        )
        masked_index = PrivateAggregateIndex(
            masked, ["height", "weight"], "blood_pressure", edges
        )
        raw_report = isolation_attack(raw_index, 300)
        masked_report = isolation_attack(masked_index, 300)
        assert masked_report.disclosure_rate < raw_report.disclosure_rate


class TestOwnerExtraction:
    def test_identity_release_total(self, patients_300):
        report = extraction_from_release(
            patients_300, IdentityMasking().mask(patients_300)
        )
        assert report.extraction_rate == 1.0
        assert report.owner_privacy == 0.0

    def test_masking_reduces_extraction(self, patients_300, rng):
        noisy = UncorrelatedNoise(1.5).mask(patients_300, rng)
        report = extraction_from_release(
            patients_300, noisy, ["height", "weight", "age"]
        )
        assert report.extraction_rate < 0.4

    def test_shuffled_release_matched_by_nearest(self, patients_300):
        shuffled = patients_300.take(
            np.random.default_rng(1).permutation(300)
        )
        report = extraction_from_release(
            patients_300, shuffled, ["height", "weight"]
        )
        # Values are all still there; nearest-neighbour matching finds them.
        assert report.extraction_rate == 1.0

    def test_transcript_extraction(self):
        t = Transcript()
        t.record("P0", "P1", "raw", [1.5, 2.5])
        report = extraction_from_transcript(t, {"P0": [1.5, 2.5], "P1": [9.9]})
        assert report.extraction_rate == pytest.approx(2 / 3)

    def test_pir_download_is_total(self, patients_300):
        report = extraction_via_pir_download(patients_300)
        assert report.extraction_rate == 1.0


def _scan_extraction(original, release, columns, tolerance_sd):
    """The per-record scan extraction_from_release used to run: the
    oracle for its cells_recovered."""
    x, y = original.matrix(columns), release.matrix(columns)
    sd = x.std(axis=0)
    sd[sd == 0] = 1.0
    aligned_recovered = 0
    if release.n_rows == original.n_rows:
        aligned_recovered = int(np.sum(np.abs(x - y) / sd <= tolerance_sd))
    xn, yn = x / sd, y / sd
    matched_rows = 0
    for i in range(xn.shape[0]):
        gaps = np.abs(yn - xn[i]).max(axis=1)
        if gaps.min() <= tolerance_sd:
            matched_rows += 1
    return max(aligned_recovered, matched_rows * len(columns))


def _table(n, width):
    """n records of *width* numeric columns, rounded so values collide."""
    values = np.random.default_rng(0).normal(size=(n, width)).round(1)
    return Dataset.from_matrix(values)


_RELEASES = {
    "verbatim": lambda data: data,
    "shuffled": lambda data: data.take(
        np.random.default_rng(1).permutation(data.n_rows)
    ),
    "microaggregation": lambda data: Microaggregation(5).mask(
        data, np.random.default_rng(1)
    ),
    "duplicated": lambda data: data.take(np.arange(data.n_rows) // 3),
    "noise": lambda data: UncorrelatedNoise(0.3).mask(
        data, np.random.default_rng(2)
    ),
    "subset": lambda data: data.take(np.arange(0, data.n_rows, 4)),
}


def _with_cell(data, row, column, value):
    """A copy of *data* with one cell replaced."""
    values = data.matrix()
    values[row, column] = value
    return Dataset.from_matrix(values)


def _far_neighbours(width):
    """Record 0 and a release without it.  The release rows beside the
    record in first-column order are 50 away in the other columns; one row
    matches it on every column but column 0, where it is 0.2 sd away."""
    original = _table(150, width).matrix()
    original[0, 1:] = 50.0
    match = original[0].copy()
    match[0] += 0.2 * original[:, 0].std()
    released = np.vstack([original[1:], match])
    return Dataset.from_matrix(original), Dataset.from_matrix(released)


def _shifted_by_tolerance(width, tolerance_sd):
    """Records and a shuffled release of them with column 0 moved by the
    tolerance, give or take a few ulps: each record's match sits on the
    edge of its window, most of them beyond its block's own span."""
    original = _table(150, width).matrix()
    released = original.copy()
    ulps = 1 + (np.arange(150) % 7 - 3) * 2.0 ** -52
    released[:, 0] += tolerance_sd * original[:, 0].std() * ulps
    released = released[np.random.default_rng(3).permutation(150)]
    return Dataset.from_matrix(original), Dataset.from_matrix(released)


class TestBlockedExtractionMatchesScan:
    """extraction_from_release matches records against the whole release
    on every kernel backend; it must recover exactly the cells the
    per-record scan did."""

    @pytest.fixture(autouse=True, params=available_backends())
    def backend(self, request):
        with use_backend(request.param):
            yield

    @pytest.fixture(params=["one block", "many blocks"])
    def blocks(self, request, monkeypatch):
        if request.param == "many blocks":
            # At 150 release rows: blocks of 6 records on uint64, the last
            # one short.
            monkeypatch.setattr(nearest, "SCAN_BLOCK_FLOATS", 1000)

    @pytest.mark.parametrize("tolerance_sd", [0.0, 0.15, 0.25])
    @pytest.mark.parametrize("release", sorted(_RELEASES))
    @pytest.mark.parametrize("width", [1, 3, 9, 12])
    def test_release(self, blocks, width, release, tolerance_sd):
        data = _table(150, width)
        published = _RELEASES[release](data)
        columns = list(data.column_names)
        report = extraction_from_release(data, published, columns, tolerance_sd)
        assert report.cells_recovered == _scan_extraction(
            data, published, columns, tolerance_sd
        )
        assert report.cells_total == 150 * width

    @pytest.mark.parametrize("width", [1, 3, 9, 12])
    def test_shuffled_release_only_matched_by_records(self, blocks, width):
        data = _table(150, width)
        report = extraction_from_release(
            data, _RELEASES["shuffled"](data), list(data.column_names)
        )
        assert report.extraction_rate == 1.0

    @pytest.mark.parametrize("tolerance_sd", [0.0, 0.15, 0.25])
    @pytest.mark.parametrize("release", sorted(_RELEASES))
    @pytest.mark.parametrize("width", [1, 3, 9])
    def test_constant_first_column(self, blocks, width, release, tolerance_sd):
        values = _table(150, width).matrix()
        values[:, 0] = 1.5
        data = Dataset.from_matrix(values)
        published = _RELEASES[release](data)
        columns = list(data.column_names)
        assert extraction_from_release(
            data, published, columns, tolerance_sd
        ).cells_recovered == _scan_extraction(
            data, published, columns, tolerance_sd
        )

    @pytest.mark.parametrize("width", [2, 3, 9, 12])
    def test_neighbours_in_sort_order_far_away(self, blocks, width):
        original, released = _far_neighbours(width)
        columns = list(original.column_names)
        report = extraction_from_release(original, released, columns, 0.25)
        assert report.cells_recovered == _scan_extraction(
            original, released, columns, 0.25
        ) == 150 * width

    @pytest.mark.parametrize("tolerance_sd", [0.15, 0.25])
    @pytest.mark.parametrize("width", [1, 3, 9, 12])
    def test_match_on_the_window_edge(self, blocks, width, tolerance_sd):
        original, released = _shifted_by_tolerance(width, tolerance_sd)
        columns = list(original.column_names)
        assert extraction_from_release(
            original, released, columns, tolerance_sd
        ).cells_recovered == _scan_extraction(
            original, released, columns, tolerance_sd
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", [0, -1])
    @pytest.mark.parametrize("side", ["release", "record"])
    @pytest.mark.parametrize("width", [1, 3])
    def test_non_finite_cell(self, blocks, width, side, column, value):
        """A NaN or infinite value anywhere takes the whole release into
        every window: one NaN release cell leaves no record matched."""
        data = _table(150, width)
        published = _RELEASES["subset"](data)
        if side == "release":
            published = _with_cell(published, 7, column, value)
        else:
            data = _with_cell(data, 7, column, value)
        columns = list(data.column_names)
        recovered = extraction_from_release(data, published, columns).cells_recovered
        assert recovered == _scan_extraction(data, published, columns, 0.25)
        if value != value:  # NaN
            assert recovered == 0

    @pytest.mark.parametrize("tolerance_sd", [0.0, 0.25])
    @pytest.mark.parametrize("release", sorted(_RELEASES))
    @pytest.mark.parametrize("width", [1, 3])
    def test_600_rows(self, blocks, width, release, tolerance_sd):
        data = _table(600, width)
        published = _RELEASES[release](data)
        columns = list(data.column_names)
        assert extraction_from_release(
            data, published, columns, tolerance_sd
        ).cells_recovered == _scan_extraction(
            data, published, columns, tolerance_sd
        )

    @pytest.mark.parametrize("width", [1, 3, 9, 12])
    def test_single_record(self, width):
        data = _table(1, width)
        noisy = _RELEASES["noise"](data)
        columns = list(data.column_names)
        for published in (data, noisy):
            assert extraction_from_release(
                data, published, columns
            ).cells_recovered == _scan_extraction(data, published, columns, 0.25)

