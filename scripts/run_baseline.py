"""Run the plain marketplace with no policy lever and summarize it.

Prints mean lifecycle counters and the three outcome shares over the
replication set, plus the per-replication spread that the control chart
in the CSV outputs is built from.
"""

from __future__ import annotations

import argparse
import dataclasses
import statistics

from csdsim import RunConfig, run_replications

def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=RunConfig().seed)
    parser.add_argument("--replications", type=int, default=RunConfig().replications)
    args = parser.parse_args()

    cfg = dataclasses.replace(RunConfig(), seed=args.seed, replications=args.replications)
    results = list(run_replications(cfg))

    print(f"baseline: {cfg.replications} replications, seed {cfg.seed}, horizon {cfg.horizon_days:g} days")
    print()
    print(f"{'counter':<14} {'mean':>9} {'min':>6} {'max':>6}")
    for key in results[0].counters:
        values = [r.counters[key] for r in results]
        print(f"{key:<14} {statistics.mean(values):>9.1f} {min(values):>6} {max(values):>6}")

    failures = [r.reported_failures for r in results]
    print()
    print(
        f"reported failures: mean {statistics.mean(failures):.1f},"
        f" stdev {statistics.stdev(failures) if len(failures) > 1 else 0.0:.1f}"
    )
    print("outcome shares of resolved tasks:")
    print(f"  success         {statistics.mean(r.success_ratio for r in results):7.1%}")
    print(f"  unqualified     {statistics.mean(r.unqualified_ratio for r in results):7.1%}")
    print(f"  zero-submission {statistics.mean(r.zero_submission_ratio for r in results):7.1%}")


if __name__ == "__main__":
    main()
