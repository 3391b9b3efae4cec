"""The CLI byte-identity corpus: a fixed list of ``ctqsched`` command lines
and the sha256 of what each one prints.

Each entry runs ``ctqsched.cli.main(argv)`` in process and digests its exit
code, stdout and stderr together. ``tests/cli_corpus.json`` holds one digest
per command line, and ``tests/test_cli_corpus.py`` checks every one, so a
change that moves any byte of any output names the command lines it moved.

The corpus covers ``simulate`` (fixed RR at five quanta, FCFS, CTQ with and
without ``--first-tq``, each with and without ``--gantt``) and ``best-tq`` on
every task file below, ``compare`` as CSV and JSON on a few seeds,
``generate`` on a few seeds, and the package's own error lines (exit 2 from
the command handlers, exit 3). argparse's own messages are left out: their
wording belongs to the Python version that prints them.

A task file is named in an argv as ``@name``; the runner writes the files
into a directory and passes their paths. A change that moves output on
purpose regenerates the fixture and lists the moved command lines in
CHANGES.md::

    python tests/cli_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

FIXTURE = Path(__file__).with_name("cli_corpus.json")


def _generated(seed: int) -> str:
    """A seeded task file of 1 to 30 tasks with bursts up to 400 tu; ids
    are distinct but, from seed 5 on, in no numeric order."""
    r = random.Random(seed)
    n = r.randint(1, 30)
    bursts = [r.randint(1, r.choice([5, 40, 400])) for _ in range(n)]
    ids = list(range(1, n + 1)) if seed < 5 else r.sample(range(n * 3), n)
    return "".join(f"{i},{b}\n" for i, b in zip(ids, bursts))


TASK_FILES = {
    # Ids in neither numeric nor sorted order.
    "odd": "7,5\n3,2\n12,4\n",
    # 256 rounds, the most the one-byte radix key of run_rounds holds, and 257.
    "w256": "1,256\n2,3\n3,255\n",
    "w257": "1,257\n2,3\n3,256\n",
    # CTQ runs five rounds at quanta 5|1|4|4|6.
    "six": "1,4\n2,20\n3,3\n4,14\n5,2\n6,10\n",
    "four": "1,20\n2,7\n3,12\n4,2\n",
    "mixed": "1,20\n2,20\n3,5\n4,3\n5,1\n",
    "one": "5,9\n",
    # A task with id 0.
    "zero_id": "0,3\n1,2\n",
    **{f"gen{seed}": _generated(seed) for seed in range(10)},
}

# Faulty task files and files at a documented bound, each run by four
# commands. Some commands accept some of them (FCFS runs 5000 tasks, and a
# byte-order mark is dropped); the digests pin which.
BAD_FILES = {
    "zero_burst": "1,0\n",
    "repeat": "1,5\n1,6\n",
    "third_column": "1,4\n2,5,10\n",
    "negative_id": "1,4\n-2,5\n",
    "non_integer": "1,4\nx,5\n",
    "no_tasks": "# nothing here\n\n",
    "long_field": "1,5\n9," + "9" * 4301 + "\n",
    "grouped_long_field": "1,5\n9," + "1_" * 4400 + "1\n",
    # Valid: str.strip drops the separators U+001C to U+001F around a field.
    "separators": "\x1c1\x1f,\x1f5\x1c\n2,\x1e3\x1d\n",
    "bom": "\ufeff1,5\n2,3\n",
    "huge_total": "1,5\n2,50000000000000000000\n",
    "many_slices": "1,5\n2,1000000000000\n",
    "many_candidates": "1,100000000000000000\n2,99999999999999999\n3,99999999999999998\n",
    "many_tasks": "".join(f"{i},5\n" for i in range(1, 5001)),
}

SIMULATE = (
    *(("--algo", "rr", "--tq", str(tq)) for tq in (1, 2, 4, 7, 30)),
    ("--algo", "fcfs"),
    ("--algo", "ctq"),
    *(("--algo", "ctq", "--first-tq", str(tq)) for tq in (1, 2, 5, 20)),
)


def corpus() -> list[tuple[str, ...]]:
    """Every command line of the corpus, in a fixed order."""
    argvs: list[tuple[str, ...]] = []
    for name in TASK_FILES:
        for flags in SIMULATE:
            argvs.append(("simulate", "--tasks", f"@{name}", *flags))
            argvs.append(("simulate", "--tasks", f"@{name}", *flags, "--gantt"))
        argvs.append(("best-tq", "--tasks", f"@{name}"))
    for n, low, high, seed, runs in (
        (3, 1, 20, 5, 2), (12, 1, 5000, 917, 1), (48, 1, 1000, 3, 2), (1, 1, 7, 0, 3),
        (20, 50, 60, 11, 4),
    ):
        spec = ("--n", str(n), "--burst-min", str(low), "--burst-max", str(high),
                "--seed", str(seed))
        argvs.append(("compare", *spec, "--runs", str(runs)))
        argvs.append(("compare", *spec, "--runs", str(runs), "--format", "json"))
        argvs.append(("generate", *spec))
    for name in BAD_FILES:
        argvs.append(("simulate", "--tasks", f"@{name}", "--algo", "fcfs"))
        argvs.append(("simulate", "--tasks", f"@{name}", "--algo", "rr", "--tq", "1"))
        argvs.append(("simulate", "--tasks", f"@{name}", "--algo", "ctq"))
        argvs.append(("best-tq", "--tasks", f"@{name}"))
    argvs += [
        ("simulate", "--tasks", "@four", "--algo", "rr"),
        ("simulate", "--tasks", "@four", "--algo", "rr", "--tq", "0"),
        ("simulate", "--tasks", "@four", "--algo", "ctq", "--first-tq", "0"),
        ("simulate", "--tasks", "@four", "--algo", "ctq", "--tq", "5"),
        ("simulate", "--tasks", "@four", "--algo", "fcfs", "--tq", "5"),
        ("simulate", "--tasks", "@four", "--algo", "rr", "--tq", "4", "--first-tq", "2"),
        ("simulate", "--tasks", "@four", "--algo", "fcfs", "--first-tq", "2"),
        ("generate", "--n", "3", "--burst-max", "20", "--seed", "-5"),
        ("generate", "--n", "0", "--burst-max", "20", "--seed", "1"),
        ("generate", "--n", "3", "--burst-min", "9", "--burst-max", "5", "--seed", "1"),
        ("generate", "--n", "3", "--burst-max", str(2**63), "--seed", "1"),
        ("generate", "--n", str(2**22 + 1), "--burst-max", "20", "--seed", "1"),
        ("compare", "--n", "3", "--burst-max", "20", "--seed", "1", "--runs", "0"),
    ]
    return argvs


def outcomes(directory: Path) -> list[tuple[int, str, str]]:
    """(exit code, stdout, stderr) of every corpus command line, in corpus
    order, with the task files written into ``directory``."""
    from ctqsched.cli import main

    paths = {}
    for name, text in {**TASK_FILES, **BAD_FILES}.items():
        paths[f"@{name}"] = path = directory / f"{name}.tasks"
        path.write_bytes(text.encode("utf-8"))
    result = []
    for argv in corpus():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(paths.get(arg, arg)) for arg in argv])
        result.append((code, out.getvalue(), err.getvalue()))
    return result


def digest(outcome: tuple[int, str, str]) -> str:
    return hashlib.sha256(json.dumps(outcome).encode("utf-8")).hexdigest()


def write_fixture() -> None:
    with tempfile.TemporaryDirectory() as directory:
        entries = [
            {"argv": list(argv), "sha256": digest(outcome)}
            for argv, outcome in zip(corpus(), outcomes(Path(directory)))
        ]
    lines = ",\n".join(json.dumps(entry) for entry in entries)  # one command line a line
    FIXTURE.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"{len(entries)} command lines written to {FIXTURE}")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    write_fixture()
