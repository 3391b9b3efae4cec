"""Mutation testing of one source module against the tests, stdlib only.

Each mutant changes one thing in the module's syntax tree: a comparison
(``<`` to ``<=``, ``==`` to ``!=``, ``in`` to ``not in``, ...), an
arithmetic or boolean operator, a ``not`` doubled (``not not x``, which
is ``bool(x)``), a dropped unary minus, an int constant moved by one, a flipped bool, a string constant with ``~``
appended, or a ``raise``, ``if`` or call statement replaced by ``pass``.
Docstrings, f-string text and annotations are left alone. The module is
written back with ``ast.unparse``, so the unmutated module is run the same
way first, as the baseline that must pass.

Every mutant runs the given tests in its own copy of the repository, under
``pytest -x`` with a fixed hypothesis seed and a timeout (five times the
baseline's time, at least 60 s), so a mutant that loops forever
is stopped and counted as timed out. A mutant the tests pass *survives*. A
survivor listed in ``EQUIVALENT`` below changes no result the module can
give; every other survivor is a gap in the tests, and the script exits 1
while any is left::

    python tests/mutate.py src/ctqsched/workload.py \\
        --tests tests/test_workload.py tests/test_cli.py tests/test_cli_corpus.py

pytest does not collect this file: it is no ``test_*.py``.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Survivors that change no result, keyed as the script prints them
# (module, function, the mutated source before -> after), with the reason.
EQUIVALENT = {
    "workload.py <module>: range(0x1C, 0x20) -> range(28, 33)":
        "the range then also maps U+0020, the space, to itself",
    "workload.py load_tasks: raw.split(\"#\", 1) -> raw.split('#', 2)":
        "only the text before the first '#' is read, and a second split "
        "does not move it",
    "workload.py _raise_first_line_fault: raw.split(\"#\", 1) -> raw.split('#', 2)":
        "only the text before the first '#' is read, and a second split "
        "does not move it",
}

_COMPARE = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
_BINARY = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.Div: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift, ast.BitAnd: ast.BitOr,
    ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr,
}
_BOOLEAN = {ast.And: ast.Or, ast.Or: ast.And}
_DELETED = (ast.Raise, ast.If, ast.Expr)


def _untouched(tree: ast.Module) -> set[int]:
    """Ids of the nodes no mutant changes: docstrings, f-string text and
    annotations."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                skip.update({id(first), id(first.value)})
        if isinstance(node, ast.JoinedStr):
            skip.update(id(part) for part in node.values if isinstance(part, ast.Constant))
        roots = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots = [node.returns] + [a.annotation for a in ast.walk(node.args) if isinstance(a, ast.arg)]
        elif isinstance(node, ast.AnnAssign):
            roots = [node.annotation]
        skip.update(id(sub) for root in roots if root is not None for sub in ast.walk(root))
    return skip


def _sites(tree: ast.Module):
    """Every mutation of ``tree``, in a fixed order, as (node, apply): node is
    what the report shows and ``apply()`` changes the tree in place."""
    skip = _untouched(tree)
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in _COMPARE:
                    yield node, lambda n=node, i=i, op=_COMPARE[type(op)]: n.ops.__setitem__(i, op())
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _BINARY:
            yield node, lambda n=node: setattr(n, "op", _BINARY[type(n.op)]())
        elif isinstance(node, ast.BoolOp):
            yield node, lambda n=node: setattr(n, "op", _BOOLEAN[type(n.op)]())
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield node, lambda n=node: setattr(n, "operand", ast.UnaryOp(ast.Not(), n.operand))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            yield node, lambda n=node: setattr(n, "op", ast.UAdd())
        elif isinstance(node, ast.Constant):
            value = node.value
            if isinstance(value, bool):
                yield node, lambda n=node: setattr(n, "value", not n.value)
            elif isinstance(value, int):
                yield node, lambda n=node: setattr(n, "value", n.value + 1)
                yield node, lambda n=node: setattr(n, "value", n.value - 1)
            elif isinstance(value, str):
                yield node, lambda n=node: setattr(n, "value", n.value + "~")
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if not isinstance(block, list):
                continue
            for i, stmt in enumerate(block):
                if isinstance(stmt, _DELETED) and id(stmt) not in skip:
                    if isinstance(stmt, ast.Expr) and not isinstance(stmt.value, ast.Call):
                        continue
                    yield stmt, lambda b=block, i=i: b.__setitem__(i, ast.Pass())


def _context(tree: ast.Module) -> tuple[dict[int, str], dict[int, ast.AST]]:
    """The name of the function or class around each node, and each node's
    parent, by node id."""
    names: dict[int, str] = {}
    parents: dict[int, ast.AST] = {}

    def visit(node, name):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name if name == "<module>" else f"{name}.{node.name}"
        names[id(node)] = name
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
            visit(child, name)

    visit(tree, "<module>")
    return names, parents


def mutants(path: Path) -> list[tuple[str, int, str]]:
    """(key, line, mutated module source) of every mutant of ``path``. The
    key names the module, the function and the mutated source before and
    after; a constant is shown with the expression it sits in."""
    source = path.read_text(encoding="utf-8")
    count = sum(1 for _ in _sites(ast.parse(source)))
    result = []
    for k in range(count):
        tree = ast.parse(source)
        names, parents = _context(tree)
        node, apply = next(site for j, site in enumerate(_sites(tree)) if j == k)
        shown = node
        if isinstance(node, ast.Constant):
            up = parents[id(node)]
            while isinstance(up, ast.keyword):
                up = parents[id(up)]
            shown = up if isinstance(up, ast.expr) else node
        segment = ast.get_source_segment(source, shown)
        before = segment if "\n" not in segment else segment.split("\n")[0] + " ..."
        apply()
        after = "pass" if isinstance(shown, ast.stmt) else ast.unparse(shown)
        key = f"{path.name} {names[id(node)]}: {before} -> {after}"
        result.append((key, node.lineno, ast.unparse(tree)))
    return result


def run(module: Path, text: str, tests: list[str], timeout: float) -> tuple[str, float]:
    """Run ``tests`` on a copy of the repository whose ``module`` holds
    ``text``; returns the outcome and the seconds it took."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as workdir:
        copy = Path(workdir) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".runs"))
        (copy / module.relative_to(ROOT)).write_text(text, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                "--hypothesis-seed=0", *tests]
        start = time.monotonic()
        try:
            code = subprocess.run(argv, cwd=copy, env=env, capture_output=True,
                                  timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            return "timed out", time.monotonic() - start
        outcome = {0: "survived", 1: "killed"}.get(code, f"error (exit {code})")
        return outcome, time.monotonic() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", type=Path, help="the source file to mutate")
    parser.add_argument("--tests", nargs="+", default=["tests"], help="pytest arguments")
    args = parser.parse_args(argv)
    module = args.module.resolve()
    baseline_text = ast.unparse(ast.parse(module.read_text(encoding="utf-8")))
    outcome, seconds = run(module, baseline_text, args.tests, timeout=3600)
    if outcome != "survived":
        print(f"the unmutated module does not pass the tests: {outcome}")
        return 2
    timeout = max(60.0, 5 * seconds)
    found = mutants(module)
    print(f"{len(found)} mutants; baseline {seconds:.1f} s, timeout {timeout:.0f} s", flush=True)
    gaps = []
    for key, line, text in found:
        outcome = run(module, text, args.tests, timeout)[0]
        if outcome == "survived":
            outcome = "equivalent" if key in EQUIVALENT else "SURVIVED"
        if outcome == "SURVIVED":
            gaps.append(f"line {line}: {key}")
        print(f"{outcome:>10}  line {line}: {key}", flush=True)
    print(f"{len(gaps)} surviving mutants not judged equivalent")
    print("\n".join(gaps))
    return 1 if gaps else 0


if __name__ == "__main__":
    sys.exit(main())
