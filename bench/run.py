"""Benchmark of the wassmatrix pipeline: sample -> complete -> embed -> classify.

Usage, from the root of a checkout::

    python3 bench/run.py --workload lp-images --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload in turn
    python3 bench/run.py --smoke                      # small sizes, self-checks

Each pass of a workload runs in a fresh process (``passrun.py``) that
imports the package from ``src/``, builds the workload's dataset, runs
its CLI stages through ``wassmatrix.cli.main`` and checks every output.
Passes repeat until ``--seconds`` have gone by and at least
``MIN_PASSES`` have run; extra set-up-only processes give ``setup_s``
more samples.  Figures are medians over the passes.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, taken
with tracing off.  ``--trace 1`` alternates untraced and traced passes
and prints the per-layer metrics from the traced ones, plus
``trace.overhead_s`` (traced minus untraced ``pipeline_s``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the full report (machine, inputs, per-pass figures, failed
checks), which is also written to ``bench/out/<run>/report.json``.  The
exit code is 0 when every CLI stage exited 0 and every output check
passed, 1 otherwise, and 2 when the checkout has no ``src/wassmatrix``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import nesting_errors

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_PASSES = 2       # untraced passes per --trace 0 run
SETUP_ONLY = 4       # extra set-up-only processes per run; the first warms up
DEADLINE = 170       # seconds from the start of a run; a pass still running
                     # then is killed and counts as failed
RUN_LIMIT = 120      # start no new pass after this many seconds


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile of a non-empty list."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def summarize(values) -> dict:
    """Median, the highest percentile with at least ten runs beyond it
    (None when there are fewer than 20 runs), and the run count."""
    out = {"median": statistics.median(values), "runs": len(values), "tail": None}
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (100.0 - q) / 100.0 >= 10:
            out["tail"] = {"percentile": q, "value": percentile(values, q)}
            break
    return out


def machine(nproc: int, workers: int, cap: int) -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": nproc, "cpu_model": cpu, "python": platform.python_version(),
            "workers": workers, "blas_thread_cap": cap, "git_commit": commit}


def child_env(cap: int) -> dict:
    """Pool workers are single-threaded solvers, so with one BLAS thread
    per process the busy threads never exceed nproc."""
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(cap)
    env.pop("WASSMATRIX_WORKERS", None)  # the stages pass --workers
    return env


def run_child(cmd, cwd: Path, env: dict, timeout: float):
    """Run one pass process in its own process group; kill the whole
    group (pool workers included) if it overruns.  Returns the exit code,
    or None on timeout."""
    with open(cwd / "log.txt", "w") as log:
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            return None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()


class Run:
    """All processes of one workload run, and what they reported."""

    def __init__(self, name: str, seed: int, trace: int, smoke: bool):
        self.name, self.seed, self.trace, self.smoke = name, seed, trace, smoke
        self.dir = OUT / f"{name}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.nproc = len(os.sched_getaffinity(0))
        self.workers = self.nproc
        self.cap = max(1, self.nproc // self.workers)
        self.env = child_env(self.cap)
        self.started = time.monotonic()
        self.results = []    # (tag, traced, result dict)
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.failures.append(what)

    def child(self, tag: str, variant: int, mode: str, traced: bool = False,
              probe: bool = False):
        d = self.dir / tag
        d.mkdir()
        cmd = [sys.executable, str(BENCH / "passrun.py"), "--workload", self.name,
               "--seed", str(self.seed), "--variant", str(variant), "--mode", mode,
               "--trace", str(int(traced)), "--probe", str(int(probe)),
               "--smoke", str(int(self.smoke)),
               "--workers", str(self.workers), "--src", str(SRC)]
        timeout = max(1.0, DEADLINE - (time.monotonic() - self.started))
        rc = run_child(cmd, d, self.env, timeout)
        path = d / "result.json"
        if rc != 0 or not path.exists():
            self.fail(f"{tag}: process exited {rc}; see {d / 'log.txt'}")
            return None
        result = json.loads(path.read_text())
        for check in result["checks"]:
            self.attempted += 1
            if not check["ok"]:
                self.failed += 1
                self.failures.append(f"{tag}: {check['name']} ({check['detail']})")
        if traced:
            spans = json.loads((d / "trace.json").read_text())
            errors = nesting_errors(spans)
            self.attempted += 1
            if errors:
                self.failed += 1
                self.failures.append(f"{tag}: spans do not nest: {errors[:3]}")
            shutil.copy(d / "trace.json", self.dir / f"trace-{tag}.json")
        if all(c["ok"] for c in result["checks"]):
            shutil.rmtree(d)   # the .w2m files of one N=1000 pass are ~30 MB
        self.results.append((tag, traced, result))
        return result

    def execute(self, seconds: float, min_passes: int, setup_only: int) -> None:
        for k in range(setup_only):
            self.child(f"setup{k}", k, "setup")
        start = time.monotonic()
        untraced = traced = 0
        probed = False
        k = 0
        while True:
            elapsed = time.monotonic() - start
            if self.trace:
                need = untraced < 1 or traced < 1
            else:
                need = untraced < min_passes
            if not need and elapsed >= seconds:
                break
            if elapsed >= RUN_LIMIT or self.failed > 2:
                break
            # a traced pass reruns the inputs of the untraced pass before it
            use_trace = bool(self.trace) and k % 2 == 1
            variant = k // 2 if self.trace else k
            self.child(f"pass{k}", variant, "pass", use_trace, use_trace and not probed)
            probed = probed or use_trace
            untraced += not use_trace
            traced += use_trace
            k += 1

    def passes(self, traced: bool) -> list:
        return [r for _, t, r in self.results if t == traced and "pipeline_s" in r]

    def end_to_end(self) -> tuple[dict, dict]:
        passes = self.passes(False)
        samples = {
            "setup_s": [r["setup_s"] for _, _, r in self.results],
            "pipeline_s": [r["pipeline_s"] for r in passes],
            "solves_per_s": [],
            "rel_error": [r["rel_error"] for r in passes if r.get("rel_error") is not None],
            "accuracy": [r["accuracy"] for r in passes if r.get("accuracy") is not None],
            "peak_rss_mb": [r["peak_rss_mb"] for r in passes],
        }
        for r in passes:
            solves = sum(d["solves"] for d in r.get("dist", []))
            seconds = sum(s["seconds"] for s in r["stages"] if s["command"] == "dist")
            if solves and seconds > 0:
                samples["solves_per_s"].append(solves / seconds)
        if len(samples["setup_s"]) > 1:
            samples["setup_s"] = samples["setup_s"][1:]   # cold file cache
        metrics = {k: statistics.median(v) for k, v in samples.items() if v}
        return metrics, {k: summarize(v) for k, v in samples.items() if v}

    def per_layer(self) -> dict:
        traced = [r for r in self.passes(True) if "layers" in r]
        if not traced:
            return {}
        names = traced[0]["layers"]
        layers = {k: statistics.median([r["layers"][k] for r in traced]) for k in names}
        for r in traced:
            layers.update(r.get("probe", {}).get("layers", {}))
        untraced = self.passes(False)
        if untraced:
            layers["trace.overhead_s"] = (
                statistics.median([r["pipeline_s"] for r in traced])
                - statistics.median([r["pipeline_s"] for r in untraced]))
        return layers

    def report(self, summary: dict, why: str) -> dict:
        first = next((r for _, _, r in self.results if "stages" in r and r["stages"]), {})
        info = machine(self.nproc, self.workers, self.cap)
        info.update(first.get("versions", {}))
        return {
            "workload": self.name, "why": why, "seed": self.seed, "trace": self.trace,
            "smoke": self.smoke, "machine": info, "input": first.get("input"),
            "summary": summary,
            "error_rate": self.failed / self.attempted if self.attempted else 1.0,
            "failures": self.failures,
            "rel_errors": first.get("rel_errors"),
            "mc": [{k: v for k, v in r.items() if k != "residual_trace"}
                   for r in first.get("mc") or []],
            "probe": next((r["probe"]["detail"] for _, _, r in self.results
                           if "probe" in r), None),
            "passes": [{"tag": tag, "traced": t, "setup_s": r["setup_s"],
                        "pipeline_s": r.get("pipeline_s"),
                        "solves": sum(d["solves"] for d in r.get("dist", [])),
                        "mc_steps": sum(m["iterations"] for m in r.get("mc", [])),
                        "stages": [[s["command"], s["argv"][-1], s["seconds"]]
                                   for s in r.get("stages", [])]}
                       for tag, t, r in self.results],
        }


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: int,
                 smoke: bool = False) -> tuple[dict, dict]:
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    run = Run(name, seed, trace, smoke)
    run.execute(seconds, 1 if smoke else MIN_PASSES, 1 if smoke else SETUP_ONLY)
    metrics, summary = run.end_to_end()
    if trace:
        metrics = run.per_layer()
    for key in sorted(set(units) - set(metrics)):
        run.fail(f"metric {key} was not measured")
    for key in sorted(set(metrics) - set(units)):
        run.fail(f"metric {key} is not declared in BENCHMARK.json")
    why = next(w["why"] for w in spec["workloads"] if w["name"] == name)
    report = run.report(summary, why)
    (run.dir / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    result = {
        "correct": run.failed == 0, "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()
                    if k in units},
    }
    return result, report


def smoke(spec: dict) -> int:
    """Every workload at small size, traced and untraced: all checks pass,
    every declared metric is printed, and the spans nest."""
    bad = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            result, report = run_workload(spec, workload["name"], 1, 0, trace, True)
            print(json.dumps({"workload": workload["name"], "trace": trace,
                              "correct": result["correct"],
                              "failures": report["failures"]}))
            if not result["correct"]:
                bad.append(f"{workload['name']} trace {trace}: {report['failures']}")
    print("smoke ok" if not bad else "smoke FAILED:\n" + "\n".join(bad))
    return 1 if bad else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if not (SRC / "wassmatrix" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'wassmatrix'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.smoke:
        return smoke(spec)
    known = [w["name"] for w in spec["workloads"]]
    names = known if args.workload == "all" else [args.workload]
    if any(n not in known for n in names):
        print(f"bench: unknown workload {args.workload!r}; choose from {known}",
              file=sys.stderr)
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    ok = True
    for name in names:
        result, report = run_workload(spec, name, args.seed, seconds, args.trace)
        print(json.dumps(report))
        print(json.dumps(result))
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
