"""Show where the configured defaults sit against freshly derived values.

Refits the submission-risk line on simulated resolutions and prints it
next to the configured slope and intercept; the configured line is a
fixed operating point taken from field data, so a gap here measures how
far the simulated market sits from that regime rather than an error.
Also prints the belt shares the paper publishes next to those the rating
distribution implies, and the duration sample mean.
"""

from __future__ import annotations

import argparse
import dataclasses

from csdsim import RunConfig
from csdsim.domain import DEFAULT_BELT_TABLE
from csdsim.engine import RngStreams
from csdsim.platform import implied_belt_shares, sample_duration
from csdsim.scenarios import calibrate_fps

# The crowd mix the paper publishes, field data the model never reads: a
# simulated worker's belt follows from the rating drawn for them.
PUBLISHED_BELT_SHARES = {"gray": 0.9002, "green": 0.0288, "blue": 0.0539, "yellow": 0.0154, "red": 0.0016}


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

    print("belt shares, published vs population-implied:")
    analytic = implied_belt_shares(DEFAULT_BELT_TABLE, cfg)
    for belt, published in PUBLISHED_BELT_SHARES.items():
        print(f"  {belt:<7} published {published:6.3f}  analytic {analytic[belt]:6.3f}")

    rng = RngStreams(args.seed).get("duration")
    n = 20_000
    mean = sum(sample_duration(rng, cfg) for _ in range(n)) / n
    print()
    print(f"duration mean over {n} draws: {mean:.3f} (theoretical 15.667)")


if __name__ == "__main__":
    main()
