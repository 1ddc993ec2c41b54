"""One pass of one workload, in a fresh process.

``run.py`` starts this script once per pass with the pass directory as
its working directory.  A pass times set-up (importing the package,
making the measures, writing and reading the dataset directory), then
runs the workload's CLI stages through ``wassmatrix.cli.main`` and times
them, then checks every output outside the timed region.  With
``--mode setup`` it stops after set-up.  With ``--trace 1`` the layer
wrappers record spans, and with ``--probe 1`` it also samples single
pair solves and times ``w2_matrix`` at 1 and at N workers.  Everything
it measures goes to ``result.json`` in the pass directory; spans go to
``trace.json``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

PROBE_PAIRS = 120  # per solver path; at least 100 of the workload's own pairs


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--variant", type=int, default=0,
                   help="inputs are drawn from (seed, variant)")
    p.add_argument("--mode", choices=("setup", "pass"), default="pass")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", type=int, choices=(0, 1), default=0)
    p.add_argument("--workers", type=int, required=True)
    p.add_argument("--src", required=True, help="the package's src directory")
    return p.parse_args(argv)


class Checks:
    """Output checks of one pass; each one is an attempted operation."""

    def __init__(self):
        self.items = []

    def add(self, name: str, ok: bool, detail="") -> bool:
        self.items.append({"name": name, "ok": bool(ok), "detail": str(detail)})
        return bool(ok)

    def guard(self, name: str, fn):
        """Run ``fn``; an exception fails the check instead of the pass."""
        try:
            return fn()
        except Exception as exc:  # a broken output must not stop the other checks
            self.add(name, False, f"{type(exc).__name__}: {exc}")
            return None


def run_stage(cli, argv) -> int:
    try:
        return int(cli.main([str(a) for a in argv]))
    except Exception:  # the CLI maps its own errors; anything else is a failure
        traceback.print_exc()
        return -1


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest finished pool
    worker, in MB (ru_maxrss is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import wassmatrix
    from wassmatrix import cli
    if Path(wassmatrix.__file__).resolve().parent != src / "wassmatrix":
        print(f"imported wassmatrix from {wassmatrix.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import tracing
    from workloads import WORKLOADS, Context

    workload = WORKLOADS[args.workload]
    recorder = tracing.Recorder() if args.trace else None
    uninstall = tracing.install(recorder) if recorder else None

    def span(name):
        return recorder.span(name) if recorder else contextlib.nullcontext()

    ctx = Context(seed=args.seed, variant=args.variant, smoke=bool(args.smoke),
                  workers=args.workers)
    with span("setup"):
        workload.setup(ctx, span)
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s, "stages": [], "checks": []}
    checks = Checks()
    if "synth_rc" in ctx.info:
        checks.add("synth exits 0", ctx.info["synth_rc"] == 0, ctx.info["synth_rc"])
    if args.mode == "setup":
        result["checks"] = checks.items
        Path("result.json").write_text(json.dumps(result))
        return 0

    stages = workload.stages(ctx)
    start = time.perf_counter()
    for stage in stages:
        with span(f"cli.{stage.command}"):
            t = time.perf_counter()
            rc = run_stage(cli, stage.argv)
            seconds = time.perf_counter() - t
        result["stages"].append({"command": stage.command, "seconds": seconds,
                                 "rc": rc, "argv": [str(a) for a in stage.argv]})
    result["pipeline_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = peak_rss_mb()
    if uninstall:
        uninstall()

    import checking
    for record in result["stages"]:
        checks.add(f"{record['command']} -> {record['argv'][-1]} exits 0",
                   record["rc"] == 0, record["rc"])
    stages_ok = all(r["rc"] == 0 for r in result["stages"])
    if stages_ok:
        result.update(checking.check_outputs(workload, ctx, stages, checks))
    if recorder:
        result["layers"] = checking.layer_metrics(recorder.spans, result, ctx)
        Path("trace.json").write_text(json.dumps(recorder.spans))
    if args.probe and stages_ok:
        result["probe"] = checking.ot_probe(workload, ctx, checks, PROBE_PAIRS)
    result["checks"] = checks.items
    result["versions"] = checking.versions()
    Path("result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
