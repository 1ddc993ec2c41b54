"""Tests of the benchmark itself (not part of the package's test suite).

Run from the root of a checkout::

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import summarize
from tracing import Recorder, nesting_errors, self_time

BENCH = Path(__file__).resolve().parent


def test_self_time_subtracts_children_once():
    spans = [
        {"id": 0, "name": "cli.dist", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "a", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "b", "parent": 0, "start": 3.0, "end": 6.0},
        {"id": 3, "name": "c", "parent": 1, "start": 1.5, "end": 2.0},
    ]
    assert self_time(spans, spans[0]) == 5.0
    assert nesting_errors(spans) == []
    spans[3]["end"] = 5.0
    assert len(nesting_errors(spans)) == 1


def test_recorder_nests_spans():
    rec = Recorder()
    with rec.span("outer"):
        with rec.span("inner"):
            pass
    outer, inner = rec.spans
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert nesting_errors(rec.spans) == []


def test_summary_tail_needs_ten_runs_beyond_it():
    assert summarize([1.0, 2.0, 3.0])["tail"] is None
    tail = summarize([float(v) for v in range(100)])["tail"]
    assert tail["percentile"] == 90.0
    assert summarize([float(v) for v in range(20)])["tail"]["percentile"] == 50.0


def test_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "lp-images",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_smoke_run_declares_every_metric_and_passes_its_checks():
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=900)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines()
             if line.startswith("{")]
    assert len(lines) == 6 and all(line["correct"] for line in lines)
