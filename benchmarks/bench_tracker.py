"""S3a — respondent privacy without user privacy: SDC of interactive
databases and the Schlörer tracker arms race.

The paper: query-set-size control is the textbook defence, the tracker
attack [22] defeats it, and the literature's answers are auditing [7]
and output perturbation [14] — all of which require the owner to see the
queries (no user privacy).
"""

import itertools

from repro.data import patients
from repro.qdb import (
    GeneralTracker,
    NoisePerturbation,
    QuerySetSizeControl,
    RandomSampleQueries,
    StatisticalDatabase,
    SumAuditPolicy,
    find_general_tracker,
    identifying_predicate,
    tracker_success_rate,
    tracker_targets,
)


def _setup():
    pop = patients(250, seed=3)
    return pop, tracker_targets(pop, ["height", "weight"], 5)[:12]


def test_s3a_tracker_arms_race(benchmark):
    pop, targets = _setup()
    # Each target's database draws its own noise: one seed for all would
    # repeat one noise draw per target instead of sampling the defence.
    noise_seeds = itertools.count(1)
    defences = {
        "no protection": lambda: StatisticalDatabase(pop),
        "size control (k=5)": lambda: StatisticalDatabase(
            pop, [QuerySetSizeControl(5)]
        ),
        "size control + audit": lambda: StatisticalDatabase(
            pop, [QuerySetSizeControl(5), SumAuditPolicy()]
        ),
        "size control + noise": lambda: StatisticalDatabase(
            pop, [QuerySetSizeControl(5), NoisePerturbation(20.0)],
            seed=next(noise_seeds),
        ),
        "size control + sampling": lambda: StatisticalDatabase(
            pop, [QuerySetSizeControl(5), RandomSampleQueries(0.9)]
        ),
    }

    def run():
        return {
            name: tracker_success_rate(
                factory, pop, ["height", "weight"], "blood_pressure",
                targets, tolerance=2.0,
            )
            for name, factory in defences.items()
        }

    rates = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(f"S3a [22]: tracker success against {len(targets)} unique targets")
    for name, rate in rates.items():
        print(f"    {name:22s} {rate * 100:5.0f}%")
    # Shape: size control alone is defeated; audit and noise stop the attack.
    assert rates["size control (k=5)"] >= 0.8
    assert rates["size control + audit"] == 0.0
    assert rates["size control + noise"] <= 0.1
    assert rates["size control + sampling"] <= 0.15


def test_s3a_general_tracker_batched_sweep(benchmark):
    """The general tracker sweeping *every* target through `ask_batch`.

    Each tracker identity consumes its queries in pairs, which ride the
    engine's batched workload API; the tracker predicate T / NOT T masks
    repeat across the whole sweep and hit the engine's predicate-mask
    cache, so the per-target cost collapses to the two fresh C OR T /
    C OR NOT T masks.
    """
    pop, targets = _setup()
    db = StatisticalDatabase(pop, [QuerySetSizeControl(5)])
    predicate = find_general_tracker(pop, db, 5, ["age"])
    assert predicate is not None

    def run():
        tracker = GeneralTracker(db, predicate)
        return [
            tracker.count(
                identifying_predicate(pop, t, ["height", "weight"])
            )
            for t in targets
        ]

    counts = benchmark.pedantic(run, rounds=1, iterations=1)
    hits, misses = db.mask_cache_hits, db.mask_cache_misses
    print()
    print(
        f"S3a [22]: general tracker swept {len(targets)} targets in "
        f"{db.queries_asked} queries; mask cache {hits} hits / "
        f"{misses} misses"
    )
    # Every swept target is unique on (height, weight): count == 1, through
    # legal queries only.
    assert all(c == 1.0 for c in counts)
    # The tracker-side predicates are shared across the sweep.
    assert hits >= len(targets)
