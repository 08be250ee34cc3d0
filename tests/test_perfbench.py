"""The benchmark's untraced and traced runs on a tiny workload, against the package.

The benchmark driver under ``perfbench/`` calls the package's public names
(``build_aux``, ``build_index``, ``load_index``, ``build_query_side``,
``collect_candidates``, ``exact_keyword_filter``, ...), and it changes only
with the benchmark itself. So an API change that would break it fails here.
"""

import contextlib
import dataclasses
import importlib.util
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def run_tiny(monkeypatch, tmp_path, trace: int) -> tuple[int, dict, dict]:
    """Run perfbench on a 300-vertex, 10-query select-10k; return its exit
    code, its last output line and ``BENCHMARK.json``."""
    # run.py imports its sibling modules by bare name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, run)
    spec.loader.exec_module(run)
    monkeypatch.setattr(run, "OUT", tmp_path)
    tiny = {
        "select-10k": dataclasses.replace(
            run.WORKLOADS["select-10k"], vertex_count=300, query_count=10
        )
    }
    argv = [
        "--workload", "select-10k", "--seed", "0", "--seconds", "0.1",
        "--trace", str(trace),
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv, tiny)
    result = json.loads(out.getvalue().splitlines()[-1])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return code, result, bench


def test_traced_run_is_correct_and_reports_every_per_layer_metric(monkeypatch, tmp_path):
    code, result, bench = run_tiny(monkeypatch, tmp_path, trace=1)
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in bench["per_layer"]}


def test_graded_run_is_correct_and_reports_every_end_to_end_metric(monkeypatch, tmp_path):
    code, result, bench = run_tiny(monkeypatch, tmp_path, trace=0)
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
