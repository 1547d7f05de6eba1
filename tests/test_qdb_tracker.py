"""Tests for the Schlörer tracker attack."""

import itertools

import pytest

from repro.data import patients
from repro.qdb import (
    NoisePerturbation,
    QuerySetSizeControl,
    StatisticalDatabase,
    SumAuditPolicy,
    identifying_predicate,
    split_predicate,
    tracker_attack,
    tracker_success_rate,
    tracker_targets,
)
from repro.sdc import equivalence_classes


@pytest.fixture(scope="module")
def population():
    return patients(200, seed=11)


@pytest.fixture(scope="module")
def unique_targets(population):
    """Indices of records unique on (height, weight)."""
    return [
        cls.indices[0]
        for cls in equivalence_classes(population, ["height", "weight"])
        if cls.size == 1
    ]


class TestPredicates:
    def test_identifying_predicate_pins_target(self, population, unique_targets):
        target = unique_targets[0]
        pred = identifying_predicate(population, target, ["height", "weight"])
        assert pred.mask(population).sum() == 1

    def test_split_rejoins(self, population, unique_targets):
        target = unique_targets[0]
        c1, c2 = split_predicate(population, target, ["height", "weight"])
        joined = c1 & c2
        assert list(joined.mask(population).nonzero()[0]) == [target]

    def test_split_needs_two_columns(self, population):
        with pytest.raises(ValueError):
            split_predicate(population, 0, ["height"])

    def test_identifying_needs_columns(self, population):
        with pytest.raises(ValueError):
            identifying_predicate(population, 0, [])


class TestTargets:
    @pytest.mark.parametrize("k", [1, 5, 9])
    def test_each_target_is_unique_with_a_large_padding_set(self,
                                                            population, k):
        targets = tracker_targets(population, ["height", "weight"], k)
        assert targets
        for target in targets:
            c1, c2 = split_predicate(population, target, ["height", "weight"])
            assert (c1 & c2).mask(population).sum() == 1
            assert c1.mask(population).sum() > k

    def test_a_larger_k_keeps_a_subset_in_order(self, population):
        loose = tracker_targets(population, ["height", "weight"], 3)
        strict = tracker_targets(population, ["height", "weight"], 8)
        assert strict and len(strict) < len(loose)
        assert [t for t in loose if t in strict] == strict


class TestAttack:
    def test_defeats_size_control(self, population, unique_targets):
        """Paper Section 3: size control alone is broken by trackers."""
        db = StatisticalDatabase(population, [QuerySetSizeControl(5)])
        result = tracker_attack(
            db, population, unique_targets[0],
            ["height", "weight"], "blood_pressure",
        )
        assert result.succeeded
        assert result.exact
        assert result.inferred_count == 1

    def test_succeeds_without_any_policy(self, population, unique_targets):
        db = StatisticalDatabase(population)
        result = tracker_attack(
            db, population, unique_targets[0],
            ["height", "weight"], "blood_pressure",
        )
        assert result.exact

    def test_fails_on_non_unique_target(self, population):
        """If (height, weight) matches several people, the COUNT check
        reports the target was not isolated."""
        classes = [
            c for c in equivalence_classes(population, ["height", "weight"])
            if c.size > 1
        ]
        target = classes[0].indices[0]
        db = StatisticalDatabase(population)
        result = tracker_attack(
            db, population, target, ["height", "weight"], "blood_pressure"
        )
        assert not result.succeeded
        assert "not isolated" in result.detail

    def test_audit_blocks_tracker(self, population, unique_targets):
        rate = tracker_success_rate(
            lambda: StatisticalDatabase(
                population, [QuerySetSizeControl(5), SumAuditPolicy()]
            ),
            population, ["height", "weight"], "blood_pressure",
            unique_targets[:8],
        )
        assert rate == 0.0

    def test_perturbation_blunts_tracker(self, population, unique_targets):
        # One seed per target: each attack meets its own noise draws.
        seeds = itertools.count(1)
        rate = tracker_success_rate(
            lambda: StatisticalDatabase(
                population,
                [QuerySetSizeControl(5), NoisePerturbation(20.0)],
                seed=next(seeds),
            ),
            population, ["height", "weight"], "blood_pressure",
            unique_targets[:8], tolerance=2.0,
        )
        assert rate <= 0.25

    def test_success_rate_against_size_control_high(
        self, population, unique_targets
    ):
        rate = tracker_success_rate(
            lambda: StatisticalDatabase(population, [QuerySetSizeControl(5)]),
            population, ["height", "weight"], "blood_pressure",
            unique_targets[:10],
        )
        assert rate >= 0.6

    def test_empty_targets(self, population):
        assert tracker_success_rate(
            lambda: StatisticalDatabase(population), population,
            ["height", "weight"], "blood_pressure", [],
        ) == 0.0
