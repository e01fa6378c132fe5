"""Ablations of QOCO's design choices (DESIGN.md §3).

Not a paper figure — these isolate the individual ingredients the paper
bundles together:

* the Theorem 4.5 unique-minimal-hitting-set shortcut (QOCO vs QOCO−);
* the most-frequent-tuple heuristic vs a random pick *with* the
  shortcut kept (separating heuristic from inference);
* the majority-vote sample size vs residual error under noisy experts;
* the insertion candidate cap (crowd patience) vs question volume.
"""

from __future__ import annotations

import random

from repro.core.deletion import DeletionStrategy, crowd_remove_wrong_answer
from repro.core.insertion import InsertionConfig
from repro.core.qoco import QOCO, QOCOConfig
from repro.experiments.harness import make_strategy, plant_errors, run_insertion
from repro.experiments.reporting import render_table
from repro.oracle.aggregator import MajorityVote
from repro.oracle.base import AccountingOracle
from repro.oracle.crowd import Crowd
from repro.oracle.imperfect import ImperfectOracle
from repro.oracle.perfect import PerfectOracle
from repro.oracle.questions import QuestionKind
from repro.query.evaluator import Evaluator
from repro.workloads import Q3, Q5


class RandomWithInference(DeletionStrategy):
    """Random tuple order but keeping the Theorem 4.5 singleton rule —
    isolates the greedy heuristic from the free inference."""

    name = "Random+Thm4.5"
    infer_singletons = True

    def choose(self, sets, rng):
        pool = sorted({f for s in sets for f in s}, key=repr)
        return rng.choice(pool)


def _deletion_cost(gt, errors, strategy, seed=0):
    dirty = errors.dirty.copy()
    oracle = AccountingOracle(PerfectOracle(gt))
    rng = random.Random(seed)
    for answer in sorted(errors.wrong_answers, key=repr):
        if answer in Evaluator(Q3, dirty).answers():
            crowd_remove_wrong_answer(Q3, dirty, answer, oracle, strategy, rng)
    return oracle.log.cost_of([QuestionKind.VERIFY_FACT])


def test_ablation_singleton_shortcut_and_heuristic(benchmark, worldcup_gt):
    """Theorem 4.5 and the greedy order each pay for themselves."""

    def run():
        errors = plant_errors(worldcup_gt, Q3, n_wrong=10, n_missing=0, seed=202)
        return {
            "QOCO (greedy + Thm4.5)": _deletion_cost(
                worldcup_gt, errors, make_strategy("QOCO")
            ),
            "QOCO- (greedy only)": _deletion_cost(
                worldcup_gt, errors, make_strategy("QOCO-")
            ),
            "Random + Thm4.5": _deletion_cost(
                worldcup_gt, errors, RandomWithInference()
            ),
            "Random (neither)": _deletion_cost(
                worldcup_gt, errors, make_strategy("Random")
            ),
        }

    costs = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render_table(["variant", "fact questions"], list(costs.items())))
    assert costs["QOCO (greedy + Thm4.5)"] <= costs["QOCO- (greedy only)"]
    assert costs["QOCO (greedy + Thm4.5)"] <= costs["Random (neither)"]
    benchmark.extra_info["costs"] = costs


def test_ablation_majority_sample_size(benchmark, worldcup_gt):
    """Bigger vote samples cost more answers but leave fewer residuals."""

    def residual_and_cost(sample_size, trials=3, p=0.2):
        residuals = cost = 0
        errors = plant_errors(worldcup_gt, Q3, n_wrong=3, n_missing=0, seed=203)
        for trial in range(trials):
            rng = random.Random(500 + trial)
            members = [
                ImperfectOracle(worldcup_gt, p, random.Random(rng.randrange(1 << 30)))
                for _ in range(sample_size)
            ]
            crowd = Crowd(members, MajorityVote(sample_size))
            dirty = errors.dirty.copy()
            oracle = AccountingOracle(crowd)
            QOCO(dirty, oracle, QOCOConfig(seed=trial, max_iterations=5)).clean(Q3)
            residuals += len(
                Evaluator(Q3, dirty).answers()
                ^ Evaluator(Q3, worldcup_gt).answers()
            )
            cost += crowd.stats.total
        return residuals / trials, cost / trials

    def run():
        return {k: residual_and_cost(k) for k in (1, 3, 5)}

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        (k, f"{res:.2f}", f"{cost:.0f}") for k, (res, cost) in outcome.items()
    ]
    print()
    print(render_table(["sample size", "mean residual", "mean crowd answers"], rows))
    # Larger samples never leave more residual errors than a single expert.
    assert outcome[5][0] <= outcome[1][0]
    benchmark.extra_info["outcome"] = {str(k): v for k, v in outcome.items()}


def test_ablation_composite_questions(benchmark, worldcup_gt):
    """§9 composite questions: fewer interactions, same judgments."""
    from repro.core.composite import crowd_remove_wrong_answer_composite

    def run():
        errors = plant_errors(worldcup_gt, Q3, n_wrong=10, n_missing=0, seed=205)
        result = {}
        for batch_size in (1, 3, 5):
            dirty = errors.dirty.copy()
            oracle = AccountingOracle(PerfectOracle(worldcup_gt))
            rng = random.Random(0)
            for answer in sorted(errors.wrong_answers, key=repr):
                if answer in Evaluator(Q3, dirty).answers():
                    crowd_remove_wrong_answer_composite(
                        Q3, dirty, answer, oracle, batch_size, rng
                    )
            result[batch_size] = oracle.log.question_count
        return result

    interactions = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render_table(["batch size", "interactions"], list(interactions.items())))
    assert interactions[3] <= interactions[1]
    assert interactions[5] <= interactions[3]
    benchmark.extra_info["interactions"] = {
        str(k): v for k, v in interactions.items()
    }


def test_ablation_candidate_cap(benchmark, worldcup_gt):
    """The crowd-patience cap trades subquery splitting against floods."""

    def run():
        errors = plant_errors(worldcup_gt, Q5, n_wrong=0, n_missing=5, seed=204)
        result = {}
        for cap in (2, 12, 48):
            bar = run_insertion(
                worldcup_gt,
                Q5,
                errors,
                "Provenance",
                seed=1,
                insertion=InsertionConfig(max_candidates_per_subquery=cap),
            )
            result[cap] = bar.questions
        return result

    costs = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render_table(["candidate cap", "questions"], list(costs.items())))
    assert all(cost > 0 for cost in costs.values())
    benchmark.extra_info["costs"] = {str(k): v for k, v in costs.items()}
