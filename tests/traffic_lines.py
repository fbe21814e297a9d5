"""List the statements of segbert's functions that no ordinary run reaches.

Traces, with ``sys.settrace``, every line of ``src/segbert`` executed by:

- one pass of each perfbench workload at ``--tiny`` (seed 1), once with
  a plain ``spans.Tracer()`` and once with ``Tracer(fine=True, ops=True)``;
- every script in ``demos/``, run as ``__main__``;
- ``segbert train --jobs 1`` and ``segbert inspect`` on the tiny sets,
  ``segbert gradcheck --hidden 2 --intermediate 2``, and the same
  gradcheck with ``--attr-dim 0 --residual raw``, whose raw residual
  reads the adjacency rows.

It then prints, per module, the statements inside function bodies whose
lines never ran, leaving out ``raise`` statements (error paths are the
tests' business), and a count per module. Code that only the tests reach
shows up here. Run it from anywhere with

    python3 tests/traffic_lines.py

It uses the standard library only, writes its data sets and run outputs
to a temporary directory and no bytecode caches, and takes well under a
minute at these sizes.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/ or src/

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "segbert"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

WORKLOADS = ("mutag-pp", "proteins-seg", "collab-dense", "gradcheck")
SEED = 1


def _recorder(files: dict):
    """A trace function that adds every executed line of ``files`` (path
    -> set of line numbers) to that file's set."""
    def line_tracer(add):
        def trace_lines(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return trace_lines
        return trace_lines

    local = {path: line_tracer(lines.add) for path, lines in files.items()}

    def trace_calls(frame, event, arg):
        return local.get(frame.f_code.co_filename)
    return trace_calls


@contextlib.contextmanager
def _traced(files: dict):
    trace = _recorder(files)
    threading.settrace(trace)  # evaluate_accuracy's worker threads
    sys.settrace(trace)
    try:
        yield
    finally:
        sys.settrace(None)
        threading.settrace(None)


def _run_everything(work: Path) -> None:
    """Every run the module docstring lists; imported here, under the
    trace, so what segbert runs at import counts too."""
    import segbert
    from segbert import cli

    import spans
    import synth
    import workloads

    sets = {}
    for name in WORKLOADS[:3]:
        sets[name] = work / name
        segbert.write_tu_dataset(synth.generate(name, SEED, tiny=True), str(sets[name]))
    for name in WORKLOADS:
        workload = workloads.make(name, str(sets.get(name, work)), SEED, tiny=True)
        workload.setup()
        for tracer in (spans.Tracer(), spans.Tracer(fine=True, ops=True)):
            with tracer:
                workload.run_pass(tracer)
    cwd = os.getcwd()
    try:
        os.chdir(work)  # a demo may write to its working directory
        for demo in sorted((ROOT / "demos").glob("*.py")):
            runpy.run_path(str(demo), run_name="__main__")
    finally:
        os.chdir(cwd)
    mutag = ["--dataset", synth.NAMES["mutag-pp"], "--data-dir", str(sets["mutag-pp"])]
    tiny = ["gradcheck", "--hidden", "2", "--intermediate", "2"]
    for argv in (["train", *mutag, "--strategy", "padding-pruning", "--epochs", "2",
                  "--jobs", "1", "--out", str(work / "runs")],
                 ["inspect", *mutag],
                 tiny,
                 [*tiny, "--attr-dim", "0", "--residual", "raw"]):
        if cli.main(argv) != 0:
            raise SystemExit(f"segbert {' '.join(argv)} failed")


def _function_statements(tree: ast.Module):
    """(first line, last line) of every statement inside a function body
    other than a ``raise``: the lines of which one must run for it to
    count as reached, a compound statement's header or a simple
    statement's whole span. Docstrings and bare constants compile to no
    code and are skipped."""
    found = []

    def visit(node, in_function):
        for body_field in ("body", "orelse", "finalbody", "handlers", "cases"):
            for child in getattr(node, body_field, ()):
                if isinstance(child, ast.stmt):
                    if in_function and not (isinstance(child, ast.Expr)
                                            and isinstance(child.value, ast.Constant)):
                        found.append(child)
                    visit(child, in_function or isinstance(
                        child, (ast.FunctionDef, ast.AsyncFunctionDef)))
                else:  # except handlers and match cases hold statements
                    visit(child, in_function)

    visit(tree, False)
    lines = []
    for stmt in found:
        if isinstance(stmt, (ast.Raise, ast.Global, ast.Nonlocal, ast.Try)):
            continue  # a try's own line runs nothing; its body is counted
        first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
        body = getattr(stmt, "body", None)
        last = body[0].lineno - 1 if body else stmt.end_lineno
        lines.append((first, max(first, last)))
    return lines


def unreached(files: dict) -> dict:
    """Module name -> [(line, source text)] of the statements no run reached."""
    report = {}
    for path, hit in files.items():
        source = Path(path).read_text(encoding="utf-8")
        text = source.splitlines()
        missed = [(first, text[first - 1].strip())
                  for first, last in _function_statements(ast.parse(source))
                  if not hit.intersection(range(first, last + 1))]
        report[Path(path).stem] = missed
    return report


def main() -> int:
    files = {str(path): set() for path in sorted(SRC.glob("*.py"))}
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), _traced(files):
        _run_everything(Path(tmp))
    report = unreached(files)
    for module, missed in report.items():
        for line, text in missed:
            print(f"src/segbert/{module}.py:{line}: {text}")
    print()
    for module, missed in report.items():
        print(f"{module:12s} {len(missed):4d} unreached")
    print(f"{'total':12s} {sum(map(len, report.values())):4d} unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
