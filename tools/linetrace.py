"""List the lines of src/sesqa that a test run or a benchmark run never reaches.

    python tools/linetrace.py [--hits FILE] pytest [PYTEST_ARG ...]
    python tools/linetrace.py [--hits FILE] bench RUN_PY_ARG ...

runs pytest, or benchmarks/run.py with the given arguments, in this
process under `sys.settrace`, with only frames whose code lies in this
tree's src/sesqa traced. It then prints, per file, each executable line
that no traced frame reached, and a count per file and in total.

With --hits, the lines reached by earlier runs are read from FILE (a JSON
object of relative path -> line numbers) and merged with this run's, the
merged set is written back, and the report covers all of them. So the
tests and each workload can run as separate commands, as they must: each
`bench` run pins its BLAS threads before numpy is imported.

A line is executable when the compiled module maps some bytecode to it
(`co_lines`, over every nested code object). Code run in a subprocess is
not traced. Examples:

    python tools/linetrace.py --hits h.json pytest -q -k "not criterion_08"
    python tools/linetrace.py --hits h.json bench --workload synth \\
        --seed 1 --seconds 1
"""

import json
import os
import runpy
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sesqa"
PREFIX = str(PACKAGE) + os.sep


def executable_lines(path: Path) -> set:
    """Line numbers that any code object compiled from `path` maps to."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def traced(run) -> dict:
    """Run `run()` under the tracer; {absolute path: set of lines hit}."""
    hits = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(PREFIX):
            return None
        hits.setdefault(name, set()).add(frame.f_code.co_firstlineno)
        return local

    threading.settrace(start)
    sys.settrace(start)
    try:
        run()
    except SystemExit as e:
        print("linetrace: the run exited with %r" % (e.code,))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return hits


def run_pytest(args) -> None:
    import pytest
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    print("linetrace: pytest exited with %s" % pytest.main(list(args)))


def run_bench(args) -> None:
    script = ROOT / "benchmarks" / "run.py"
    sys.argv = [str(script)] + list(args)
    os.chdir(ROOT)
    runpy.run_path(str(script), run_name="__main__")


def report(hits: dict) -> None:
    total = missed_total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = str(path.relative_to(ROOT))
        lines = executable_lines(path)
        missed = sorted(lines - hits.get(rel, set()))
        total += len(lines)
        missed_total += len(missed)
        print("%s: %d of %d executable lines not reached"
              % (rel, len(missed), len(lines)))
        source = path.read_text().splitlines()
        for n in missed:
            print("  %4d  %s" % (n, source[n - 1].strip()))
    print("total: %d of %d executable lines not reached"
          % (missed_total, total))


def main(argv) -> int:
    hits_file = None
    if argv[:1] == ["--hits"]:   # resolved now: the runs change directory
        hits_file, argv = Path(argv[1]).resolve(), argv[2:]
    if not argv or argv[0] not in ("pytest", "bench"):
        sys.exit(__doc__)
    runner = run_pytest if argv[0] == "pytest" else run_bench
    raw = traced(lambda: runner(argv[1:]))
    hits = {str(Path(name).relative_to(ROOT)): lines
            for name, lines in raw.items()}
    if hits_file is not None:
        if hits_file.exists():
            for rel, lines in json.loads(hits_file.read_text()).items():
                hits.setdefault(rel, set()).update(lines)
        hits_file.write_text(json.dumps(
            {rel: sorted(lines) for rel, lines in sorted(hits.items())}))
    report(hits)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
