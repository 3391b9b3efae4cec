"""Seeded generation and the task file format."""

from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import HOSTILE_TEXT
from ctqsched import (
    TaskFileError,
    TaskSet,
    WorkloadSpec,
    generate,
    load_tasks,
    model,
    save_tasks,
    workload,
)
from reference import reference_load_tasks


class TestGenerate:
    def test_same_spec_same_tasks(self):
        spec = WorkloadSpec(n=10, burst_min=1, burst_max=500, seed=123)
        assert generate(spec) == generate(spec)

    def test_bursts_stay_in_range(self):
        tasks = generate(WorkloadSpec(n=50, burst_min=3, burst_max=9, seed=1))
        assert tasks.n == 50
        assert all(3 <= t.burst <= 9 for t in tasks)

    def test_degenerate_range(self):
        tasks = generate(WorkloadSpec(n=4, burst_min=7, burst_max=7, seed=99))
        assert tasks.bursts() == (7, 7, 7, 7)

    def test_pinned_generator_stream(self):
        # PCG64(seed) + Generator.integers; these values must hold on any
        # platform, or reproducibility claims in the docs are void.
        assert generate(WorkloadSpec(n=5, burst_min=1, burst_max=500, seed=42)).bursts() == (
            45, 387, 328, 220, 217,
        )
        assert generate(WorkloadSpec(n=8, burst_min=1, burst_max=60, seed=7)).bursts() == (
            57, 38, 42, 54, 35, 47, 51, 14,
        )

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(n=0, burst_min=1, burst_max=10, seed=1)
        with pytest.raises(ValueError):
            WorkloadSpec(n=3, burst_min=5, burst_max=4, seed=1)
        with pytest.raises(ValueError):
            WorkloadSpec(n=3, burst_min=0, burst_max=4, seed=1)
        with pytest.raises(ValueError, match="at most 4194304"):
            WorkloadSpec(n=2**22 + 1, burst_min=1, burst_max=10, seed=1)


class TestTaskFiles:
    def test_load_reference_queue(self):
        assert load_tasks("1,24\n2,3\n3,3") == TaskSet.from_bursts([24, 3, 3])

    def test_comments_blanks_and_crlf(self):
        text = "# fleet\r\n\r\n1,24\r\n2,3  # trailing note\r\n3,3\r\n"
        assert load_tasks(text) == TaskSet.from_bursts([24, 3, 3])

    def test_save_load_identity(self):
        ts = generate(WorkloadSpec(n=20, burst_min=1, burst_max=100, seed=5))
        assert load_tasks(save_tasks(ts)) == ts

    def test_save_normalizes(self):
        messy = "# hi\r\n 1 , 24 \n2,3\n\n3,3\n"
        assert save_tasks(load_tasks(messy)) == "1,24\n2,3\n3,3\n"

    def test_zero_burst_reports_line(self):
        with pytest.raises(TaskFileError, match="line 1"):
            load_tasks("1,0")

    def test_duplicate_id_reports_line(self):
        with pytest.raises(TaskFileError, match="line 3"):
            load_tasks("1,4\n2,5\n1,6")

    def test_malformed_line_reports_line(self):
        with pytest.raises(TaskFileError, match="line 2"):
            load_tasks("1,4\n2;5")
        with pytest.raises(TaskFileError, match="line 2"):
            load_tasks("1,4\n2,5,10")
        with pytest.raises(TaskFileError, match="line 1"):
            load_tasks("1,four")

    def test_empty_file_rejected(self):
        with pytest.raises(TaskFileError, match="^no tasks found$") as info:
            load_tasks("# nothing here\n")
        assert info.value.line_number is None

    def test_a_valid_file_never_reaches_the_walkers(self):
        # Comments, blanks, CRLF and padded fields all stay on the lean pass;
        # only a failing file is walked, once.
        lines = [f" {i} ,\t{i % 97 + 1} " for i in range(1, 201)]
        lines[::10] = [line + "# note" for line in lines[::10]]
        text = "# 200 tasks\r\n\r\n \t\r\n" + "\r\n".join(lines)
        with patch.object(
            workload, "_raise_first_fault", wraps=workload._raise_first_fault
        ) as walk, patch.object(
            model, "_raise_first_task_fault", wraps=model._raise_first_task_fault
        ) as check:
            tasks = load_tasks(text)
            assert (walk.call_count, check.call_count, tasks.n) == (0, 0, 200)
            with pytest.raises(TaskFileError, match="line 2: duplicate task id 1"):
                load_tasks("1,5\n1,6\n")
            assert (walk.call_count, check.call_count) == (1, 1)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=HOSTILE_TEXT)
def test_parser_equals_the_reference(text):
    """The lean pass and its walker return the line-by-line parser's task set,
    or raise its first error with the identical message."""
    try:
        expected = reference_load_tasks(text)
    except TaskFileError as exc:
        with pytest.raises(TaskFileError) as info:
            load_tasks(text)
        assert (str(info.value), info.value.line_number) == (str(exc), exc.line_number)
    else:
        assert load_tasks(text) == expected


@given(bursts=st.lists(st.integers(1, 1000), min_size=1, max_size=30))
def test_round_trip_property(bursts):
    ts = TaskSet.from_bursts(bursts)
    assert load_tasks(save_tasks(ts)) == ts
