"""Plant each registered fault in a copy of the tree and check that a test fails.

Each entry of ``FAULTS`` names a file, an exact text that occurs once in it,
the text that replaces it, and the test node that must fail once the fault is
planted. The script copies ``src/``, ``tests/``, ``scripts/`` and the README
to a temporary directory, checks that every node passes there, then plants
one fault at a time, runs its node with pytest and prints ``bites`` if the
node fails or ``MISSED`` if it passes. It exits 1 if any fault is missed.

    python3 scripts/planted_faults.py

Each node runs as tier-1 runs it, under the Hypothesis profile that
``tests/conftest.py`` loads, so a property test draws the examples it draws
in every tier-1 run and ``bites`` means tier-1 itself catches the fault. A
change that shows a fault failing a test adds it here; a change that removes
the code a fault lives in removes its entry and says why.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "scripts", "README.md")

BUSY_MARKET = "tests/test_config_fuzz.py::test_a_busy_market_keeps_its_invariants_and_scores"
MIXED_REVIEW = "tests/test_config_fuzz.py::test_a_review_of_a_mixed_field_completes_on_a_later_qualified_submission"
PLATFORM = "src/csdsim/platform.py"
EXPERIENCE = "tests/test_platform.py::test_experience_draws_what_betavariate_draws"
DURATION = "tests/test_platform.py::test_duration_draws_what_triangular_draws"
VALIDATION = "tests/test_config_io.py::test_validation_errors_name_the_key"
LAZY_LOADS = "tests/test_history.py::test_numpy_and_scipy_load_only_for_the_evaluation"
PROFILE = "tests/test_config_fuzz.py::test_every_property_test_draws_one_fixed_set_of_examples"


class Fault(NamedTuple):
    name: str
    path: str  # relative to the repository root
    text: str  # occurs exactly once in ``path``
    planted: str
    node: str


FAULTS = (
    Fault(
        "review-needs-all-qualified",
        "src/csdsim/lifecycle.py",
        "    if any(s.qualified for s in task.submissions):\n",
        "    if all(s.qualified for s in task.submissions):\n",
        MIXED_REVIEW,
    ),
    Fault(
        "review-reads-first-submission",
        "src/csdsim/lifecycle.py",
        "    if any(s.qualified for s in task.submissions):\n",
        "    if task.submissions[0].qualified:\n",
        MIXED_REVIEW,
    ),
    Fault(
        "pool-pos-kept",
        "src/csdsim/engine.py",
        "            self.pool[pos] = last\n            self._pool_pos[last.task_id] = pos\n",
        "            self.pool[pos] = last\n",
        BUSY_MARKET,
    ),
    Fault(
        "submitted-task-stays-pooled",
        "src/csdsim/engine.py",
        "            self._pool_remove(task)  # registration closes with the first submission\n",
        "",
        BUSY_MARKET,
    ),
    Fault(
        "tsr-edges-swapped",
        "src/csdsim/engine.py",
        "compute_tsr(entered[TaskState.SUBMITTED], entered[TaskState.REGISTERED])",
        "compute_tsr(entered[TaskState.REGISTERED], entered[TaskState.SUBMITTED])",
        BUSY_MARKET,
    ),
    Fault(
        "entered-counts-the-source",
        "src/csdsim/engine.py",
        "        task.transition(new_state)\n        self.entered[new_state] += 1\n",
        "        self.entered[task.state] += 1\n        task.transition(new_state)\n",
        "tests/test_engine.py::test_every_terminal_move_is_audited",
    ),
    Fault(
        "prediction-phase-as-read",
        "src/csdsim/history.py",
        "                    phase = _PHASES[phase]\n",
        "                    _PHASES[phase]\n",
        "tests/test_history.py::test_fixture_files_read_as_csdsim_own_strings",
    ),
    Fault(
        "config-reader-on-utf8",
        "src/csdsim/config.py",
        'open(path, "r", encoding="utf-8-sig")',
        'open(path, "r", encoding="utf-8")',
        "tests/test_outputs_cli.py::test_a_byte_order_mark_reads_like_the_file_without_it[config]",
    ),
    Fault(
        "reliability-window-untrimmed",
        "src/csdsim/agents.py",
        "    if len(outcomes) > window:\n        del outcomes[0]\n",
        "",
        "tests/test_agents.py::test_reliability_window_matches_a_bounded_deque[3]",
    ),
    Fault(
        "reliability-not-written",
        "src/csdsim/agents.py",
        "    agent.reliability = sum(outcomes) / len(outcomes)\n",
        "    sum(outcomes) / len(outcomes)\n",
        "tests/test_agents.py::test_reliability_window_matches_a_bounded_deque[3]",
    ),
    Fault(
        "open-list-cap-plus-one",
        "src/csdsim/agents.py",
        "    if len(agent.open_list) >= open_list_cap:\n",
        "    if len(agent.open_list) > open_list_cap:\n",
        "tests/test_agents.py::test_registration_preconditions_reason_codes",
    ),
    Fault(
        "no-exclusion-at-agent-start",
        "src/csdsim/engine.py",
        "        if permanent_exclusion(agent, self.admitted) is not None:\n            return\n",
        "",
        "tests/test_engine.py::test_agents_that_can_never_register_get_no_cycle",
    ),
    Fault(
        "no-dead-scan-discard",
        "src/csdsim/engine.py",
        "            for _ in range(self.scan_count):\n                random_()\n",
        "",
        "tests/test_engine.py::test_dead_scan_makes_the_draws_of_every_pick",
    ),
    Fault(
        "no-busy-decrement",
        "src/csdsim/engine.py",
        "            self.busy -= not agent.open_list\n",
        "",
        BUSY_MARKET,
    ),
    Fault(
        "agent-seed-little-endian",
        "src/csdsim/engine.py",
        'hashlib.sha512(text).digest(), "big")',
        'hashlib.sha512(text).digest(), "little")',
        "tests/test_engine.py::test_an_agent_stream_draws_what_string_seeding_draws[registration/0-1000]",
    ),
    Fault(
        "agent-streams-not-bare",
        "src/csdsim/engine.py",
        "_MersenneTwister(seed)",
        '__import__("random").Random(seed)',
        "tests/test_engine.py::test_agent_streams_are_not_tracked_by_the_collector",
    ),
    Fault(
        "mean-on-builtin-sum",
        "src/csdsim/scenarios.py",
        "    return ordered_sum(values) / len(values) if values else 0.0\n",
        "    return sum(values) / len(values) if values else 0.0\n",
        "tests/test_domain.py::test_no_bare_sum_outside_the_exact_allowlist",
    ),
    Fault(
        "ordered-sum-from-int-zero",
        "src/csdsim/domain.py",
        "    total = 0.0\n",
        "    total = 0\n",
        "tests/test_outputs_cli.py::test_evaluation_csv_writes_float_totals_for_a_phase_with_no_scored_days",
    ),
    Fault(
        "shares-unqualified-zero-swapped",
        "src/csdsim/domain.py",
        '        counters["failed_review"] / resolved,\n'
        '        (counters["dropped"] + counters["starved"]) / resolved,\n',
        '        (counters["dropped"] + counters["starved"]) / resolved,\n'
        '        counters["failed_review"] / resolved,\n',
        "tests/test_domain.py::test_resolved_shares_partition_the_resolved_tasks",
    ),
    Fault(
        "fit-intercept-plus-slope",
        "src/csdsim/scenarios.py",
        "ybar - slope * xbar",
        "ybar + slope * xbar",
        "tests/test_scenarios.py::test_calibrate_fps_matches_polyfit_on_drawn_points[26]",
    ),
    Fault(
        "repost-with-its-own-root",
        "src/csdsim/lifecycle.py",
        "        root_id=task.root_id,\n",
        "        root_id=new_id,\n",
        "tests/test_lifecycle.py::test_repost_restarts_the_clock",
    ),
    Fault(
        "repost-at-the-cap",
        "src/csdsim/engine.py",
        "            and task.repost_count < self.cfg.repost_max\n",
        "            and task.repost_count <= self.cfg.repost_max\n",
        "tests/test_engine.py::test_reposts_preserve_lineage",
    ),
    Fault(
        "submit-a-neighbouring-task",
        "src/csdsim/engine.py",
        "            self._submit(agent, task)\n",
        "            self._submit(agent, self.tasks.get(task.task_id + 1, task))\n",
        BUSY_MARKET,
    ),
    Fault(
        "appeal-of-a-lower-similarity",
        "src/csdsim/engine.py",
        "preference_weight(task.similarity, b, self.cfg)",
        "preference_weight(task.similarity * 0.99, b, self.cfg)",
        BUSY_MARKET,
    ),
    Fault(
        "skill-mask-without-set-branch",
        "src/csdsim/platform.py",
        "    if n <= 21 + (4 ** math.ceil(math.log(count * 3, 4)) if count > 5 else 0):\n",
        "    if True:\n",
        "tests/test_platform.py::test_skill_mask_draws_what_randint_and_sample_draw",
    ),
    Fault(
        "no-later-comment-check",
        "src/csdsim/history.py",
        'at_record_start and line.startswith("#")',
        "at_record_start and False",
        "tests/test_history.py::test_a_later_comment_reads_like_a_first_line_one[lf]",
    ),
    Fault(
        "quoted-hash-line-dropped",
        "src/csdsim/history.py",
        "at_record_start and ",
        "",
        "tests/test_history.py::test_hash_line_inside_a_quoted_cell_is_data",
    ),
    Fault(
        "no-short-row-pad",
        "src/csdsim/history.py",
        "map(pick, map(operator.add, filter(None, rows), repeat(pad)))",
        "map(pick, filter(None, rows))",
        "tests/test_history.py::test_records_read_a_stream_that_cannot_rewind",
    ),
    Fault(
        "history-end-not-checked",
        "src/csdsim/history.py",
        "                if not posted + duration < _INF:  # also true for NaN\n"
        '                    raise _row_error(row_num, "posted_day + duration_days is not finite")\n',
        "",
        "tests/test_outputs_cli.py::test_cli_non_finite_or_improbable_cell_exits_two_naming_the_row[history_nan]",
    ),
    Fault(
        "prediction-range-not-checked",
        "src/csdsim/history.py",
        "                if not value <= 1.0:\n"
        '                    raise _row_error(row_num, "prediction is not in [0, 1]")\n',
        "",
        "tests/test_outputs_cli.py::test_cli_non_finite_or_improbable_cell_exits_two_naming_the_row[above_one]",
    ),
    Fault(
        "poisson-log-of-u",
        "src/csdsim/platform.py",
        "total += -math.log(1.0 - rng.random())",
        "total += -math.log(rng.random())",
        "tests/test_platform.py::test_poisson_count_draws_what_an_expovariate_loop_draws[87.0]",
    ),
    Fault(
        "one-sided-p",
        "src/csdsim/history.py",
        "2.0 * float(stdtr(",
        "1.0 * float(stdtr(",
        "tests/test_scenarios.py::test_ttest_matches_scipy_randomized",
    ),
    Fault(
        "default-drifts",
        "src/csdsim/config.py",
        "    task_lambda: float = 87.0\n",
        "    task_lambda: float = 88.0\n",
        "tests/test_artifact_digests.py::test_every_command_matches_its_recorded_digests",
    ),
    Fault(
        "completed-without-submission",
        "src/csdsim/history.py",
        '                if outcome == "completed" and subs == 0:\n'
        '                    raise _row_error(row_num, "a completed task requires submissions")\n',
        "",
        "tests/test_history.py::test_row_validation_errors_carry_row_numbers"
        "[t1,0,5,0,0,completed,\\n-a completed task requires submissions]",
    ),
    Fault(
        "stdev-rounds-twice",
        "src/csdsim/outputs.py",
        "    root = math.isqrt((num << 2 * shift) // den)\n"
        "    return (root | (root * root * den != num << 2 * shift)) / (1 << shift)\n",
        "    return math.sqrt(num / den)\n",
        "tests/test_outputs_cli.py::test_control_chart_sigma_is_the_stdlib_stdev_of_a_default_series[1003]",
    ),
    Fault(
        "belt-share-column-accepted",
        "src/csdsim/domain.py",
        '            if "share" in header:\n'
        "                raise ConfigError(\n"
        '                    f"belt table {path}: has a share column, but a belt\'s population "\n'
        '                    "share follows from the rating distribution; drop the column"\n'
        "                )\n",
        "",
        "tests/test_outputs_cli.py::test_cli_bad_config_or_belt_table_file_exits_one[belt_shares_zero]",
    ),
    Fault(
        "whatif-on-the-base-day",
        "src/csdsim/scenarios.py",
        "    if day == now.focal_arrival:\n",
        "    if False:\n",
        "tests/test_outputs_cli.py::test_cli_bad_config_or_belt_table_file_exits_one[whatif_day_15]",
    ),
    Fault(
        "disjoint-predictions-scored",
        "src/csdsim/cli.py",
        "    if latest is not None and not any(",
        "    if False and not any(",
        "tests/test_outputs_cli.py::test_cli_non_finite_or_improbable_cell_exits_two_naming_the_row[disjoint_keys]",
    ),
    Fault("cheng-one-acceptance-test", PLATFORM, " or r >= math.log(z)", "", f"{EXPERIENCE}[2.5-5.0]"),
    Fault("exponential-of-u", PLATFORM, "(1.0 - random())", "(random())", f"{EXPERIENCE}[1.0-5.0]"),
    Fault("gs-accepts-below-x-to-alpha", PLATFORM, "x ** (alpha - 1.0)", "x ** alpha", f"{EXPERIENCE}[0.5-5.0]"),
    Fault("beta-draws-past-a-zero", PLATFORM, " if y else", " if True else", f"{EXPERIENCE}[0.005-5.0]"),
    Fault("triangular-without-swap", PLATFORM, "1.0 - c, high, low", "1.0 - c, low, high", f"{DURATION}[1.0-16.0-30.0]"),
    Fault("shape-bound-dropped", "src/csdsim/config.py", " < 2.0 ** 1023", "", f"{VALIDATION}[experience_beta=1e308]"),
    Fault(
        "blocked-run-drops-a-replication",
        "scripts/cross_interpreter.py",
        "*script.frozen_lines()",
        "*script.frozen_lines()[:-2]",
        "tests/test_scripts.py::test_cross_interpreter_prints_nothing_for_this_interpreter",
    ),
    Fault("sweep-imports-numpy", "src/csdsim/scenarios.py", "import math\n", "import math\nimport numpy\n", LAZY_LOADS),
    Fault("t-tail-loads-scipy-stats", "src/csdsim/history.py", "from scipy", "import scipy.stats; from scipy", LAZY_LOADS),
    Fault("examples-drawn-afresh", "tests/conftest.py", "derandomize=True", "derandomize=False", PROFILE),
)


def pytest_code(tree: Path, nodes) -> int:
    """pytest's exit code on ``nodes`` in ``tree``: 0 all passed, 1 one failed, more an error."""
    paths = [str(tree / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    # no bytecode: a same-length fault planted within the second would reuse a stale .pyc
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *nodes]
    return subprocess.run(argv, cwd=tree, env=env, capture_output=True).returncode


def main() -> int:
    start = time.perf_counter()
    missed = 0
    width = max(len(fault.name) for fault in FAULTS)
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, tree / name)
        if pytest_code(tree, sorted({f.node for f in FAULTS})) != 0:
            sys.exit("a node fails with no fault planted; fix the tree first")
        for fault in FAULTS:
            target = tree / fault.path
            original = target.read_text(encoding="utf-8")
            if original.count(fault.text) != 1:
                sys.exit(f"{fault.name}: its text does not occur exactly once in {fault.path}")
            target.write_text(original.replace(fault.text, fault.planted), encoding="utf-8")
            try:
                code = pytest_code(tree, [fault.node])
            finally:
                target.write_text(original, encoding="utf-8")
            if code > 1:  # the planted tree does not collect or run: the entry is broken
                sys.exit(f"{fault.name}: pytest exited {code}, not with a test failure")
            bites = code == 1
            missed += not bites
            print(f"{'bites' if bites else 'MISSED':6}  {fault.name:{width}}  {fault.node}", flush=True)
    print(f"{len(FAULTS) - missed} of {len(FAULTS)} bite, in {time.perf_counter() - start:.0f} s")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
