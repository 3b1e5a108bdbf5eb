#!/usr/bin/env python3
"""Planted-cluster experiment: neighbor-model mAP@k vs global popularity.

Generates users in disjoint taste clusters, hides half of each history,
builds the index on the visible half, and scores both recommenders on the
hidden half. The neighbor model should win by a wide margin on every seed;
the acceptance suite pins the exact values for seeds 101..105. Exits 1
unless the neighbor model wins every seed it runs.
"""

import argparse
import sys

from tastecf import (
    Config,
    build_index,
    compute_idf,
    mean_average_precision,
    recommend_all,
    split_history,
)
from tastecf.synth import planted_clusters, popularity_recommend


def run_seed(seed, k, fraction, prune_ratio, workers):
    batch = planted_clusters(seed=seed)
    split = split_history(batch, fraction, seed)
    index = build_index(split.visible)
    idf = compute_idf(index)
    hidden = split.hidden_by_user()
    users = sorted(hidden)

    config = Config(prune_ratio=prune_ratio, k=k)
    rankings = {rec.user: rec.items
                for rec in recommend_all(index, idf, users, config, workers)}
    cf_map = mean_average_precision(rankings, hidden, k).map_score

    pop_rankings = {u: popularity_recommend(index, u, k) for u in users}
    pop_map = mean_average_precision(pop_rankings, hidden, k).map_score
    return cf_map, pop_map, len(users)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default="101,102,103,104,105",
                        help="comma-separated seeds")
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--fraction", type=float, default=0.5)
    parser.add_argument("--prune-ratio", type=float, default=0.4)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    seeds = [int(s) for s in args.seeds.split(",") if s]
    print(f"{'seed':>6} {'users':>6} {'neighbor mAP':>13} "
          f"{'popularity mAP':>15} {'margin':>9}")
    wins = 0
    for seed in seeds:
        cf_map, pop_map, n_users = run_seed(seed, args.k, args.fraction,
                                            args.prune_ratio, args.workers)
        margin = cf_map - pop_map
        wins += cf_map > pop_map
        print(f"{seed:>6} {n_users:>6} {cf_map:>13.6f} {pop_map:>15.6f} "
              f"{margin:>9.6f}")
    print(f"neighbor model wins {wins}/{len(seeds)} seeds at k={args.k}")
    return 0 if wins == len(seeds) else 1


if __name__ == "__main__":
    sys.exit(main())
