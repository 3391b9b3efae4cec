"""Seeded generation and the task file format."""

from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import HOSTILE_TEXT
from ctqsched import (
    TaskFileError,
    TaskSet,
    generate,
    load_tasks,
    model,
    save_tasks,
    workload,
)
from reference import reference_load_tasks


class TestGenerate:
    def test_same_spec_same_tasks(self):
        assert generate(10, 1, 500, 123) == generate(10, 1, 500, 123)

    def test_bursts_stay_in_range(self):
        tasks = generate(n=50, burst_min=3, burst_max=9, seed=1)
        assert tasks.n == 50
        assert all(3 <= t.burst <= 9 for t in tasks)

    def test_degenerate_range(self):
        tasks = generate(n=4, burst_min=7, burst_max=7, seed=99)
        assert tasks.bursts() == (7, 7, 7, 7)

    def test_pinned_generator_stream(self):
        # PCG64(seed) + Generator.integers; these values must hold on any
        # platform, or reproducibility claims in the docs are void.
        assert generate(n=5, burst_min=1, burst_max=500, seed=42).bursts() == (
            45, 387, 328, 220, 217,
        )
        assert generate(n=8, burst_min=1, burst_max=60, seed=7).bursts() == (
            57, 38, 42, 54, 35, 47, 51, 14,
        )

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            generate(n=0, burst_min=1, burst_max=10, seed=1)
        with pytest.raises(ValueError):
            generate(n=3, burst_min=5, burst_max=4, seed=1)
        with pytest.raises(ValueError):
            generate(n=3, burst_min=0, burst_max=4, seed=1)
        with pytest.raises(ValueError, match="at most 4194304"):
            generate(n=2**22 + 1, burst_min=1, burst_max=10, seed=1)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0, 1, 20, 5), "task count must be at least 1, got 0"),
            (
                (2**22 + 1, 1, 20, 5),
                "task count must be at most 4194304, got 4194305: "
                "a schedule holds at most that many slices",
            ),
            ((3, 0, 20, 5), "burst_min must be at least 1 tu, got 0"),
            ((3, 21, 20, 5), "empty burst range [21, 20]"),
            ((3, 1, 20, -1), "seed must be non-negative, got -1"),
            ((3, 1, 2**63, 5), f"burst_max must be below 2**63 tu, got {2**63}"),
        ],
        ids=["no-task", "past-slice-limit", "zero-burst", "empty-range", "negative-seed",
             "burst-max-2-to-the-63"],
    )
    def test_invalid_arguments_rejected(self, args, message):
        # Each refusal is generate's own message; none of these reaches numpy.
        with pytest.raises(ValueError) as exc:
            generate(*args)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "fields, message",
        [
            ((3, 1, 20, -5), "seed must be non-negative, got -5"),
            ((3, 1, 2**63, 1), f"burst_max must be below 2**63 tu, got {2**63}"),
            ((3, 1, 10**20, 1), f"burst_max must be below 2**63 tu, got {10**20}"),
            # The checks before these come first.
            ((0, 1, 2**63, -5), "task count must be at least 1, got 0"),
            ((3, 5, 4, -5), "empty burst range [5, 4]"),
        ],
    )
    def test_seed_and_burst_max_bounds(self, fields, message):
        with pytest.raises(ValueError) as exc:
            generate(*fields)
        assert str(exc.value) == message

    def test_largest_burst_max_still_draws(self):
        # 2**63 - 1 is inside the int64 draw; the total-burst bound is the
        # schedule's to check, not the generator's.
        tasks = generate(n=3, burst_min=1, burst_max=2**63 - 1, seed=1)
        assert max(tasks.bursts()) < 2**63

    def test_largest_task_count_still_draws(self):
        # 2**22 tasks, one slice each, fill a schedule exactly.
        tasks = generate(n=2**22, burst_min=1, burst_max=1, seed=0)
        assert (tasks.n, tasks.ids[-1], max(tasks.bursts())) == (2**22, 2**22, 1)


class TestTaskFiles:
    def test_load_reference_queue(self):
        assert load_tasks("1,24\n2,3\n3,3") == TaskSet.from_bursts([24, 3, 3])

    def test_id_zero_is_accepted(self):
        assert load_tasks("0,3\n1,2\n") == TaskSet((0, 1), (3, 2))
        # A faulty row with id 0 is reported for its fault, not for its id.
        with pytest.raises(TaskFileError) as info:
            load_tasks("1,4\n0,0\n")
        assert str(info.value) == "line 2: task 0: burst must be at least 1 tu, got 0"

    def test_comments_blanks_and_crlf(self):
        text = "# fleet\r\n\r\n1,24\r\n2,3  # trailing note\r\n3,3\r\n"
        assert load_tasks(text) == TaskSet.from_bursts([24, 3, 3])

    def test_save_load_identity(self):
        ts = generate(n=20, burst_min=1, burst_max=100, seed=5)
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

    def test_only_lf_ends_a_line(self):
        # A form feed is whitespace inside a line, so the second line stays 2.
        with pytest.raises(TaskFileError, match=r"^line 2: non-integer field in '2,x'$"):
            load_tasks("1,5\x0c\n2,x")
        assert load_tasks("1,5\x0c\x1c\u2028\n2,6\x85") == TaskSet.from_bursts([5, 6])

    def test_separator_in_a_field_is_stripped(self):
        # int refuses U+001C..U+001F and str.strip drops them: the lean pass
        # fails and the line-by-line parse accepts the file.
        assert load_tasks("1,5\n3,\x1f4\x1c\n") == TaskSet((1, 3), (5, 4))

    @pytest.mark.parametrize("field", ["9" * 4301, "-" + "9" * 4301, "+" + "9" * 5000])
    def test_field_past_the_digit_limit_is_too_large(self, field):
        with pytest.raises(TaskFileError) as info:
            load_tasks(f"1,5\n2,{field}\n")
        digits = len(field.lstrip("+-"))
        assert str(info.value) == f"line 2: integer field of {digits} digits is too large"
        assert len(str(info.value)) < 60

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
            workload, "_parse_by_line", wraps=workload._parse_by_line
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
