"""Defending an interactive statistical database (paper, Section 3).

A hospital exposes COUNT/SUM/AVG queries over patient data.  This example
walks the classical arms race:

1. no protection             -> direct isolation works;
2. query-set-size control    -> direct isolation refused, but the
                                Schlörer tracker walks right through;
3. + exact SUM auditing      -> the tracker is refused;
4. + output perturbation     -> the tracker's arithmetic breaks down;
5. camouflage intervals      -> answers become intervals.

Run:  python examples/interactive_database_defense.py
"""

import itertools

from repro.data import patients
from repro.qdb import (
    CamouflageIntervals,
    NoisePerturbation,
    QuerySetSizeControl,
    RandomSampleQueries,
    StatisticalDatabase,
    SumAuditPolicy,
    tracker_attack,
    tracker_success_rate,
    tracker_targets,
)
from repro.sdc import equivalence_classes


def main() -> None:
    pop = patients(250, seed=3)
    unique = sum(
        cls.size == 1 for cls in equivalence_classes(pop, ["height", "weight"])
    )
    print(f"{pop.n_rows} patients; {unique} unique on (height, weight)\n")
    # Unique targets whose tracker padding set is large enough to slip
    # past size control: |C1| >= k+1, so C1 AND NOT C2 keeps >= k records.
    trackable = tracker_targets(pop, ["height", "weight"], 5)[:10]
    target = trackable[0]
    h, w = pop["height"][target], pop["weight"][target]

    # 1. Unprotected: ask for the target directly.
    naked = StatisticalDatabase(pop)
    answer = naked.ask(
        f"SELECT AVG(blood_pressure) WHERE height = {h} AND weight = {w}"
    )
    print(f"1. unprotected direct query    -> {answer.value:.0f} mmHg "
          "(respondent fully disclosed)")

    # 2. Size control refuses it... but the tracker succeeds.
    controlled = StatisticalDatabase(pop, [QuerySetSizeControl(5)])
    direct = controlled.ask(
        f"SELECT AVG(blood_pressure) WHERE height = {h} AND weight = {w}"
    )
    print(f"2. size control direct query   -> refused: {direct.reason}")
    result = tracker_attack(
        controlled, pop, target, ["height", "weight"], "blood_pressure"
    )
    print(f"   ...but the tracker infers   -> {result.inferred_value:.0f} mmHg "
          f"(truth {result.true_value:.0f}; queries={result.queries_asked})")

    # 3-4. Success rate across ten targets under stronger policies.  Each
    # target's noisy database draws its own noise.
    noise_seeds = itertools.count(1)
    policies = {
        "size control only": lambda: StatisticalDatabase(
            pop, [QuerySetSizeControl(5)]
        ),
        "+ SUM auditing": lambda: StatisticalDatabase(
            pop, [QuerySetSizeControl(5), SumAuditPolicy()]
        ),
        "+ output noise (sd=20)": lambda: StatisticalDatabase(
            pop, [QuerySetSizeControl(5), NoisePerturbation(20.0)],
            seed=next(noise_seeds),
        ),
        "+ random sampling (90%)": lambda: StatisticalDatabase(
            pop, [QuerySetSizeControl(5), RandomSampleQueries(0.9)]
        ),
    }
    print(f"\nTracker success against {len(trackable)} unique targets "
          "(padding sets large enough to pass size control):")
    for name, factory in policies.items():
        rate = tracker_success_rate(
            factory, pop, ["height", "weight"], "blood_pressure",
            trackable, tolerance=2.0,
        )
        print(f"   {name:24s} {rate * 100:5.0f}%")

    # 5. Camouflage: interval answers.
    camo = StatisticalDatabase(pop, [CamouflageIntervals(3)])
    interval = camo.ask("SELECT AVG(blood_pressure) WHERE height > 170")
    lo, hi = interval.interval
    print(f"\n5. camouflage interval answer -> AVG in [{lo:.1f}, {hi:.1f}]")

    print(
        "\nNote (the paper's point): every one of these defences requires "
        "the owner\nto inspect the queries — the user has no privacy here."
    )


if __name__ == "__main__":
    main()
