"""Show where the configured defaults sit against freshly derived values.

Refits the submission-risk line on simulated resolutions and prints it
next to the configured slope and intercept; the configured line is a
fixed operating point taken from field data, so a gap here measures how
far the simulated market sits from that regime rather than an error.
Also prints population-implied belt shares next to the configured table
and the duration sample mean.
"""

from __future__ import annotations

import argparse
import dataclasses

from csdsim import RunConfig
from csdsim.domain import DEFAULT_BELT_TABLE
from csdsim.engine import RngStreams
from csdsim.lifecycle import sample_duration
from csdsim.platform import implied_belt_shares
from csdsim.scenarios import calibrate_fps


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=RunConfig().seed)
    parser.add_argument("--replications", type=int, default=10)
    args = parser.parse_args()

    cfg = dataclasses.replace(RunConfig(), seed=args.seed, replications=args.replications)

    slope, intercept, points = calibrate_fps(cfg)
    print(f"submission risk line ({points} resolved tasks, {cfg.replications} replications):")
    print(f"  fitted     slope {slope:+.4f}  intercept {intercept:+.4f}")
    print(f"  configured slope {cfg.fps_slope:+.4f}  intercept {cfg.fps_intercept:+.4f}")
    print()

    print("belt shares, configured table vs population-implied:")
    analytic = implied_belt_shares(DEFAULT_BELT_TABLE, cfg)
    for row in DEFAULT_BELT_TABLE.rows:
        print(f"  {row.belt:<7} configured {row.share:6.3f}  analytic {analytic[row.belt]:6.3f}")

    rng = RngStreams(args.seed).get("duration")
    n = 20_000
    mean = sum(sample_duration(rng, cfg) for _ in range(n)) / n
    print()
    print(f"duration mean over {n} draws: {mean:.3f} (theoretical 15.667)")


if __name__ == "__main__":
    main()
