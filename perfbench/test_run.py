#!/usr/bin/env python3
"""Self-test of the benchmark runner, on its `smoke` workload.

`dune runtest` runs it (rule in perfbench/dune) as

    python3 perfbench/test_run.py

from dune's build directory (_build/default), where the executables sit
at their source paths. It prints nothing and exits 0 when
1. the smoke workload passes every check and exits 0;
2. a mutated expected file (a flipped verdict, a changed E1 line) makes
   it exit 1;
3. a worker that crashes makes it exit 1, with the result line printed.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

ARGS = ["--workload", "smoke", "--seed", "1", "--seconds", "0", "--trace", "0"]


def outcome():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run.main(ARGS)
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return code, result, err.getvalue()


def expect(what, code, correct):
    got, result, err = outcome()
    ok = got == code and result is not None and result["correct"] == correct
    if not ok:
        print(f"FAILED: {what}: exit {got} (want {code}), result {result}\n{err}")
    return ok


def flip_verdict(expected):
    expected["verdicts"]["fischer-3/mutual exclusion"] = False


def break_e1(expected):
    e1 = expected["paper"]["e1"][0]
    e1["re"] = e1["re"].replace("satisfied", "VIOLATED")


def mutated(tmp, mutate):
    """A directory of expected files, copies of the real ones but for
    the mutation."""
    expected = {f: run.load_json(os.path.join(run.EXPECTED, f + ".json"))
                for f in ("verdicts", "paper")}
    mutate(expected)
    path = tempfile.mkdtemp(dir=tmp)
    for f, data in expected.items():
        with open(os.path.join(path, f + ".json"), "w") as out:
            json.dump(data, out)
    return path


def main():
    run.build = lambda: None  # dune built the executables
    run.WORKER = os.path.join(run.ROOT, "perfbench", "worker.exe")
    run.QUANTD = os.path.join(run.ROOT, "bin", "quantd.exe")
    run.PAPER = os.path.join(run.ROOT, "bench", "main.exe")
    expected = run.EXPECTED
    ok = expect("smoke passes", 0, True)
    with tempfile.TemporaryDirectory() as tmp:
        for mutate in (flip_verdict, break_e1):
            run.EXPECTED = mutated(tmp, mutate)
            ok &= expect(f"expected files mutated by {mutate.__name__}", 1, False)
            run.EXPECTED = expected
    run.WORKER = "false"
    ok &= expect("crashing worker", 1, False)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
