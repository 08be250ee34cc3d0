"""Self-test of the benchmark on tiny inputs; runs in about a minute.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload named in BENCHMARK.json, shrunk to a few hundred
vertices, it checks that:

- ``--trace 0`` prints every ``end_to_end`` metric and ``--trace 1`` every
  ``per_layer`` metric, each with the unit BENCHMARK.json gives, and that
  both runs pass the correctness gate;
- one corrupted answer list from ``run_query`` trips the gate, and so does
  one from the staged ``refine`` of the traced run: the result reads
  ``correct: false`` and the exit code is 1.

It also checks that in a directory holding only BENCHMARK.json and the
benchmark's files the benchmark exits nonzero without printing a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

ROOT = run.HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    name: dataclasses.replace(wl, vertex_count=300, query_count=10)
    for name, wl in run.WORKLOADS.items()
}
ARGS = ["--seed", "7", "--seconds", "0.5"]


def run_main(workload: str, trace: int) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", workload, *ARGS, "--trace", str(trace)], TINY)
    return code, json.loads(out.getvalue().splitlines()[-1])


@contextlib.contextmanager
def corrupt_once(module, name: str, extract):
    """Replace ``module.name`` so that its third call returns one answer too few or too many."""
    real = getattr(module, name)
    calls = 0

    def corrupted(*args, **kwargs):
        nonlocal calls
        out = real(*args, **kwargs)
        calls += 1
        if calls == 3:
            answers = extract(out)
            if answers:
                answers.pop()
            else:
                answers.append(run.load_s3and().MatchAnswer((0,), frozenset({0}), 0))
        return out

    setattr(module, name, corrupted)
    try:
        yield
    finally:
        setattr(module, name, real)


def check_metrics(failures: list[str]) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        for workload in TINY:
            code, result = run_main(workload, trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            where = f"{workload} --trace {trace}"
            if got != want:
                failures.append(f"{where}: metrics {got} differ from BENCHMARK.json {want}")
            if code != 0 or not result["correct"] or result["failed"]:
                failures.append(f"{where}: correctness gate failed on good answers")
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                failures.append(f"{where}: a metric value is not a number")


def check_gate(failures: list[str]) -> None:
    s3 = run.load_s3and()
    cases = (
        (0, "run_query", lambda result: result.answers),
        (1, "run_query", lambda result: result.answers),
        (1, "refine", lambda answers: answers),
    )
    for trace, name, extract in cases:
        with corrupt_once(s3, name, extract):
            code, result = run_main("select-10k", trace)
        if code != 1 or result["correct"] or result["failed"] < 1:
            failures.append(
                f"a corrupted {name} answer list in --trace {trace} did not trip the gate"
            )


def check_without_sources(failures: list[str]) -> None:
    run.OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(
                ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__")
            )
        argv = [*SPEC["command"], "--workload", SPEC["workloads"][0]["name"], *ARGS, "--trace", "0"]
        proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        failures.append("without the sources the benchmark did not fail cleanly")


def main() -> int:
    failures: list[str] = []
    if sorted(TINY) != sorted(w["name"] for w in SPEC["workloads"]):
        failures.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    check_metrics(failures)
    check_gate(failures)
    check_without_sources(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
