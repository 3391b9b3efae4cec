"""Command-line harness: subcommands, formats, exit codes."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ctqsched
from conftest import HOSTILE_TEXT
from ctqsched import Schedule, TaskSet, load_tasks, metrics_from_schedule, simulate_fcfs
from ctqsched.cli import main
from ctqsched.experiment import CSV_HEADER
from reference import Slice, schedule_from_slices


@pytest.fixture
def mixed_five(tmp_path):
    path = tmp_path / "mixed.tasks"
    path.write_text("1,20\n2,20\n3,5\n4,3\n5,1\n")
    return str(path)


@pytest.fixture
def long_then_short(tmp_path):
    path = tmp_path / "rr.tasks"
    path.write_text("1,24\n2,3\n3,3\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_rr_gantt_dump(self, capsys, long_then_short):
        code, out, _ = run_cli(
            capsys, "simulate", "--tasks", long_then_short, "--algo", "rr",
            "--tq", "4", "--gantt",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[:8] == [
            "1,0,4,1", "2,4,7,1", "3,7,10,1", "1,10,14,2",
            "1,14,18,3", "1,18,22,4", "1,22,26,5", "1,26,30,6",
        ]
        assert "makespan: 30" in lines
        assert "context_switches: 1" in lines

    def test_rr_unit_quantum_metrics(self, capsys, mixed_five):
        code, out, _ = run_cli(
            capsys, "simulate", "--tasks", mixed_five, "--algo", "rr", "--tq", "1",
        )
        assert code == 0
        assert "avg_waiting: 17" in out
        assert "avg_turnaround: 26.8" in out
        assert "context_switches: 44" in out

    def test_ctq_metrics_and_sequence(self, capsys, mixed_five):
        code, out, _ = run_cli(
            capsys, "simulate", "--tasks", mixed_five, "--algo", "ctq",
            "--first-tq", "1",
        )
        assert code == 0
        assert "tq_sequence: 1|2|2|15" in out
        assert "rounds: 4" in out
        assert "avg_waiting: 14.2" in out
        assert "avg_turnaround: 24" in out
        assert "context_switches: 9" in out

    def test_gantt_dump_recomputes_to_printed_metrics(self, capsys, mixed_five):
        _, out, _ = run_cli(
            capsys, "simulate", "--tasks", mixed_five, "--algo", "ctq",
            "--first-tq", "1", "--gantt",
        )
        slices = []
        for line in out.splitlines():
            if ":" in line:
                break
            task_id, start, end, rnd = map(int, line.split(","))
            slices.append(Slice(task_id, start, end, rnd))
        tasks = TaskSet.from_bursts([20, 20, 5, 3, 1])
        report = metrics_from_schedule(schedule_from_slices(slices, tasks))
        assert f"total_waiting: {report.total_waiting}" in out
        assert f"context_switches: {report.total_context_switches}" in out

    def test_writes_to_file(self, tmp_path, capsys, long_then_short):
        out_path = tmp_path / "result.txt"
        code, out, _ = run_cli(
            capsys, "simulate", "--tasks", long_then_short, "--algo", "fcfs",
            "--out", str(out_path),
        )
        assert code == 0
        assert out == ""
        assert "makespan: 30" in out_path.read_text()

    def test_missing_quantum_is_usage_error(self, capsys, long_then_short):
        code, _, err = run_cli(capsys, "simulate", "--tasks", long_then_short, "--algo", "rr")
        assert code == 2
        assert err == "error: --tq is required for --algo rr\n"

    @pytest.mark.parametrize(
        "flags,message",
        [
            (("--algo", "ctq", "--tq", "5"), "--tq applies only to --algo rr"),
            (("--algo", "fcfs", "--tq", "5"), "--tq applies only to --algo rr"),
            (("--algo", "rr", "--tq", "4", "--first-tq", "2"),
             "--first-tq applies only to --algo ctq"),
            (("--algo", "fcfs", "--first-tq", "2"), "--first-tq applies only to --algo ctq"),
        ],
        ids=["tq-with-ctq", "tq-with-fcfs", "first-tq-with-rr", "first-tq-with-fcfs"],
    )
    def test_quantum_flag_of_another_algorithm_is_usage_error(
        self, capsys, long_then_short, flags, message
    ):
        code, out, err = run_cli(capsys, "simulate", "--tasks", long_then_short, *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_broken_schedule_is_invariant_violation(self, monkeypatch, capsys, long_then_short):
        def fcfs_without_last_slice(tasks):
            whole = simulate_fcfs(tasks)
            return Schedule(whole.tasks, whole.slot[:-1], whole.end[:-1])

        monkeypatch.setattr("ctqsched.cli.simulate_fcfs", fcfs_without_last_slice)
        code, out, err = run_cli(capsys, "simulate", "--tasks", long_then_short, "--algo", "fcfs")
        assert code == 4
        assert out == ""
        assert err == "invariant violation: task 3 executes 0 tu, burst is 3\n"

    def test_bad_task_file_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "bad.tasks"
        path.write_text("1,0\n")
        code, _, err = run_cli(capsys, "simulate", "--tasks", str(path), "--algo", "fcfs")
        assert code == 3
        assert "line 1" in err
        # A file with no tasks has no faulty line to name.
        path.write_text("# nothing here\n\n")
        code, _, err = run_cli(capsys, "simulate", "--tasks", str(path), "--algo", "fcfs")
        assert (code, err) == (3, "error: no tasks found\n")

    def test_missing_file_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--tasks", "/nope.tasks", "--algo", "fcfs")
        assert code == 3
        assert err


class TestBestTq:
    @pytest.mark.parametrize(
        "text,expected",
        [("1,19\n2,19\n3,4\n4,2\n", 2), ("1,15\n2,15\n", 15), ("1,7\n", 7)],
    )
    def test_choices(self, tmp_path, capsys, text, expected):
        path = tmp_path / "q.tasks"
        path.write_text(text)
        code, out, _ = run_cli(capsys, "best-tq", "--tasks", str(path))
        assert code == 0
        assert f"tq: {expected}" in out

    def test_reports_scan_size(self, tmp_path, capsys):
        path = tmp_path / "q.tasks"
        path.write_text("1,19\n2,19\n3,4\n4,2\n")
        _, out, _ = run_cli(capsys, "best-tq", "--tasks", str(path))
        assert "candidates_evaluated: 8" in out
        assert "avg_waiting: 16.25" in out


class TestCompare:
    def test_csv_shape_and_order(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--n", "4", "--burst-min", "1", "--burst-max", "30",
            "--seed", "11", "--runs", "3",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER
        body = [line.split(",") for line in lines[1:]]
        assert len(body) == 3 * 3 + 3
        assert [row[2] for row in body] == ["rr", "ctq", "fcfs"] * 4
        assert [row[0] for row in body[:6]] == ["0", "0", "0", "1", "1", "1"]
        assert all(row[0] == "mean" for row in body[-3:])
        # ctq rows carry rounds and the |-joined quantum sequence
        ctq_rows = [row for row in body if row[2] == "ctq" and row[0] != "mean"]
        for row in ctq_rows:
            assert int(row[8]) == len(row[9].split("|"))

    def test_thirty_run_sweep_keeps_ctq_mean_at_or_below_rr(self, capsys):
        from fractions import Fraction

        code, out, _ = run_cli(
            capsys, "compare", "--n", "5", "--burst-min", "1", "--burst-max", "500",
            "--seed", "31", "--runs", "30",
        )
        assert code == 0
        body = [line.split(",") for line in out.splitlines()[1:]]
        assert len(body) == 90 + 3
        means = {row[2]: row for row in body if row[0] == "mean"}
        assert Fraction(means["ctq"][4]) <= Fraction(means["rr"][4])

    def test_identical_bursts_make_ctq_equal_fcfs(self, capsys):
        _, out, _ = run_cli(
            capsys, "compare", "--n", "5", "--burst-min", "20", "--burst-max", "20",
            "--seed", "3", "--runs", "1",
        )
        rows = {line.split(",")[2]: line.split(",") for line in out.splitlines()[1:4]}
        assert rows["ctq"][4:8] == rows["fcfs"][4:8]

    def test_repeat_invocations_are_byte_identical(self, capsys):
        args = (
            "compare", "--n", "5", "--burst-min", "1", "--burst-max", "100",
            "--seed", "7", "--runs", "4",
        )
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--n", "3", "--burst-min", "1", "--burst-max", "20",
            "--seed", "5", "--runs", "2", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 2 * 3 + 3
        assert rows[1]["algorithm"] == "ctq"
        assert rows[1]["tq_policy"] == "optimized"
        assert isinstance(rows[1]["tq_sequence"], list)
        assert rows[0]["rounds"] is None

    def test_invalid_spec_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys, "compare", "--n", "0", "--burst-min", "1", "--burst-max", "10",
            "--seed", "1",
        )
        assert code == 3
        assert err

    @pytest.mark.parametrize(
        "burst_max, err",
        [
            ("100000000000000000000", "error: burst_max must be below 2**63 tu, "
             "got 100000000000000000000\n"),
            ("9223372036854775808", "error: burst_max must be below 2**63 tu, "
             "got 9223372036854775808\n"),
            # 2**63 - 1 draws, and three such bursts pass the total-burst bound.
            ("9223372036854775807", "error: total burst 14816839280658273049 tu is too "
             "large: schedules hold times below 2**63 tu\n"),
        ],
    )
    def test_burst_max_past_int64_exits_3(self, capsys, burst_max, err):
        assert run_cli(
            capsys, "compare", "--n", "3", "--burst-min", "1", "--burst-max", burst_max,
            "--seed", "1",
        ) == (3, "", err)

    def test_negative_seed_exits_3(self, capsys):
        assert run_cli(
            capsys, "compare", "--n", "3", "--burst-max", "20", "--seed", "-1", "--runs", "2",
        ) == (3, "", "error: seed must be non-negative, got -1\n")


class TestGenerate:
    def test_round_trips_through_loader(self, tmp_path, capsys):
        out_path = tmp_path / "w.tasks"
        code, _, _ = run_cli(
            capsys, "generate", "--n", "6", "--burst-min", "1", "--burst-max", "500",
            "--seed", "42", "--out", str(out_path),
        )
        assert code == 0
        tasks = load_tasks(out_path.read_text())
        assert tasks.n == 6
        assert all(1 <= t.burst <= 500 for t in tasks)

    def test_too_many_tasks_exits_3_before_drawing(self, capsys):
        code, out, err = run_cli(
            capsys, "generate", "--n", "100000000", "--burst-min", "1", "--burst-max", "10",
            "--seed", "1",
        )
        assert (code, out) == (3, "")
        assert "task count must be at most 4194304" in err

    def test_negative_seed_exits_3(self, capsys):
        assert run_cli(
            capsys, "generate", "--n", "3", "--burst-max", "20", "--seed", "-5",
        ) == (3, "", "error: seed must be non-negative, got -5\n")

    def test_burst_max_past_int64_exits_3(self, capsys):
        assert run_cli(
            capsys, "generate", "--n", "3", "--burst-max", str(2**63), "--seed", "1",
        ) == (3, "", f"error: burst_max must be below 2**63 tu, got {2**63}\n")

    def test_deterministic_output(self, capsys):
        args = ("generate", "--n", "5", "--burst-min", "1", "--burst-max", "500", "--seed", "42")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        assert first.splitlines()[0] == "1,45"


class TestUsage:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["best-tq"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flags",
        [("--algo", "wrr"), ("--algo", "rr", "--reference-weight", "10")],
        ids=["wrr", "reference-weight"],
    )
    def test_unknown_algorithm_or_flag_exits_2(self, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--tasks", "four.tasks", *flags, "--tq", "4"])
        assert exc.value.code == 2


class TestSharedParser:
    """``main`` parses every call in a process with one parser."""

    def test_repeat_calls_build_no_parser(self, monkeypatch, capsys, mixed_five):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        run_cli(capsys, "best-tq", "--tasks", mixed_five)
        built.clear()
        for argv in (
            ("simulate", "--tasks", mixed_five, "--algo", "ctq"),
            ("best-tq", "--tasks", mixed_five),
            ("generate", "--n", "3", "--burst-max", "9", "--seed", "1"),
        ):
            assert run_cli(capsys, *argv)[0] == 0
        assert built == []
        argparse.ArgumentParser()  # the counter does see a construction
        assert len(built) == 1

    def test_each_call_matches_a_fresh_process(self, monkeypatch, capsys, mixed_five):
        # No value, default or terminal width carries over from one call to
        # the next: the usage errors wrap at each call's own COLUMNS.
        steps = [
            (("simulate", "--tasks", mixed_five, "--algo", "ctq", "--first-tq", "1",
              "--gantt"), "80"),
            (("simulate", "--tasks", mixed_five, "--algo", "ctq"), "80"),
            (("simulate", "--tasks", mixed_five, "--algo", "rr"), "80"),
            (("simulate", "--tasks", mixed_five, "--algo", "rr"), "80"),
            (("simulate", "--tasks", mixed_five, "--algo", "bogus"), "40"),
            (("simulate", "--tasks", mixed_five, "--algo", "bogus"), "120"),
            (("best-tq", "--tasks", mixed_five), "80"),
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(ctqsched.__file__).parents[1]))
        for argv, columns in steps:
            monkeypatch.setenv("COLUMNS", columns)
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "ctqsched.cli", *argv], capture_output=True,
                text=True, env=dict(env, COLUMNS=columns), timeout=60,
            )
            assert (code, captured.out, captured.err) == (
                fresh.returncode, fresh.stdout, fresh.stderr
            ), argv


def run_cli_process(tmp_path, text, *command, timeout=60):
    path = tmp_path / "in.tasks"
    path.write_text(text)
    env = dict(os.environ, PYTHONPATH=str(Path(ctqsched.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "ctqsched.cli", *command, "--tasks", str(path)],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


# The total burst does not fit in int64.
HUGE_TOTAL = "1,5\n2,50000000000000000000\n"


@pytest.mark.parametrize("command", [("best-tq",), ("simulate", "--algo", "ctq")])
def test_burst_too_large_for_the_scan_is_validation_error(tmp_path, command):
    # 5 * 10**19 does not fit in int64, and neither command may crash on it.
    # best-tq reaches the scan, which refuses n * n * largest burst past
    # 2**63; CTQ checks the total burst first, before any scan.
    result = run_cli_process(tmp_path, HUGE_TOTAL, *command)
    assert result.returncode == 3
    assert result.stderr == {
        "best-tq": "error: cannot scan 2 tasks with a largest burst of 50000000000000000000 tu: "
        "n * n * largest burst must stay below 2**63\n",
        "simulate": "error: total burst 50000000000000000005 tu is too large: "
        "schedules hold times below 2**63 tu\n",
    }[command[0]]


def test_rr_checks_its_quantum_before_the_total_burst(tmp_path):
    result = run_cli_process(tmp_path, HUGE_TOTAL, "simulate", "--algo", "rr", "--tq", "0")
    assert result.returncode == 3
    assert result.stderr == "error: quantum must be at least 1 tu, got 0\n"


# It fits, but quantum 1 would need about 10**12 slices.
MANY_SLICES = "1,5\n2,1000000000000\n"


@pytest.mark.parametrize(
    "text,command",
    [
        (HUGE_TOTAL, ("simulate", "--algo", "rr", "--tq", "1")),
        (HUGE_TOTAL, ("simulate", "--algo", "fcfs")),
        (MANY_SLICES, ("simulate", "--algo", "rr", "--tq", "1")),
    ],
    ids=["huge-total-rr", "huge-total-fcfs", "many-slices-rr"],
)
def test_oversized_simulation_is_validation_error(tmp_path, text, command):
    start = time.perf_counter()
    result = run_cli_process(tmp_path, text, *command, timeout=20)
    assert result.returncode == 3
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr
    assert time.perf_counter() - start < 10


def test_third_column_is_validation_error(tmp_path):
    result = run_cli_process(tmp_path, "1,4\n2,5,10\n", "simulate", "--algo", "rr", "--tq", "4")
    assert result.returncode == 3
    assert result.stderr == "error: line 2: expected 'id,burst', got '2,5,10'\n"
    assert "Traceback" not in result.stderr


def test_field_past_the_digit_limit_is_validation_error(tmp_path, capsys):
    # The message names the field's length; it does not echo the 4.3 kB line.
    path = tmp_path / "long.tasks"
    path.write_text("1,5\n9," + "9" * 4301 + "\n")
    code, out, err = run_cli(capsys, "best-tq", "--tasks", str(path))
    assert (code, out) == (3, "")
    assert err == "error: line 2: integer field of 4301 digits is too large\n"


def test_byte_order_mark_is_accepted(tmp_path, capsys):
    path = tmp_path / "bom.tasks"
    path.write_bytes("\ufeff1,5\n".encode("utf-8"))
    code, out, err = run_cli(capsys, "best-tq", "--tasks", str(path))
    assert (code, err) == (0, "")
    assert "tq: 5\n" in out


def test_large_burst_scans_only_its_breakpoints(tmp_path):
    # A full-axis scan would allocate 3 * 10**9 totals here.
    result = run_cli_process(tmp_path, "1,3000000000\n2,5\n", "best-tq")
    assert result.returncode == 0
    assert result.stdout == "tq: 5\navg_waiting: 5\ncandidates_evaluated: 109544\n"


def test_too_many_candidate_quanta_is_validation_error(tmp_path):
    # n * n * largest burst fits in int64, but the bursts give about 2 * 10**9
    # candidate quanta; the scan must refuse before allocating them.
    text = "1,100000000000000000\n2,99999999999999999\n3,99999999999999998\n"
    result = run_cli_process(tmp_path, text, "best-tq")
    assert result.returncode == 3
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command", [("best-tq",), ("simulate", "--algo", "ctq")])
def test_too_many_tasks_for_the_scan_is_validation_error(tmp_path, command):
    # The pair split compares every two tasks, n * n = 25 * 10**6 cells, past
    # the 4096-task bound; the scan must refuse before it allocates them.
    text = "".join(f"{i},5\n" for i in range(1, 5001))
    result = run_cli_process(tmp_path, text, *command)
    assert result.returncode == 3
    assert result.stderr.startswith("error:")
    assert "4096" in result.stderr
    assert "Traceback" not in result.stderr


def assert_survives(argv, text=None):
    """``main(argv)`` ends in a documented exit code, prints no traceback, and
    writes to stderr exactly when it fails. Given ``text``, it also gets
    ``--tasks FILE`` with that text in the file."""
    with tempfile.TemporaryDirectory() as tmp:
        if text is not None:
            path = Path(tmp) / "hostile.tasks"
            path.write_bytes(text.encode("utf-8"))
            argv = [*argv, "--tasks", str(path)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            # An exception escaping main() would print a traceback and exit 1.
            code = main(argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=HOSTILE_TEXT)
def test_best_tq_survives_hostile_task_files(text):
    assert_survives(["best-tq"], text)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    text=HOSTILE_TEXT,
    algo=st.sampled_from(["rr", "fcfs", "ctq"]),
    # Each quantum either keeps the slice count small for every burst above
    # or pushes it past the slice limit, so no example builds millions. Only
    # rr takes it: fcfs and ctq refuse --tq as a usage error.
    tq=st.sampled_from([1, 1000, 10**6, 10**20]),
)
def test_simulate_survives_hostile_task_files(text, algo, tq):
    quantum = ["--tq", str(tq)] if algo == "rr" else []
    assert_survives(["simulate", "--algo", algo, *quantum], text)


# Hostile workload flags: negative, zero, past the scan's task limit, past
# the task-count bound, past int64 and past numpy's seed range. Every draw is
# rejected or small: 5000 tasks are refused by the scan before it allocates,
# more than 2**22 tasks by `generate` before it draws them, and huge
# bursts by the int64 or candidate bounds.
_FLAG_BURSTS = st.sampled_from([-1, 0, 1, 5000, 2**63 - 1, 10**20])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.sampled_from([-1, 0, 1, 12, 5000, 2**22 + 1, 10**8, 2**63, 10**20]),
    burst_min=_FLAG_BURSTS,
    burst_max=_FLAG_BURSTS,
    runs=st.sampled_from([-1, 0, 1, 2]),
    seed=st.sampled_from([-1, 0, 2**64]),
)
def test_compare_survives_hostile_flags(n, burst_min, burst_max, runs, seed):
    assert_survives([
        "compare", "--n", str(n), "--burst-min", str(burst_min),
        "--burst-max", str(burst_max), "--runs", str(runs), "--seed", str(seed),
    ])
