"""Output checks, quality figures and per-layer metrics of one pass.

Everything here runs after the timed stages, with the layer wrappers
removed, so none of it counts toward ``pipeline_s`` or the spans.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

import numpy as np

import wassmatrix as wm
from wassmatrix import matrixio, sampling
from wassmatrix.embedding import load_embedding_coords
from tracing import self_time
from workloads import known_matrix

# Relative Frobenius error is reported as FLOOR + error.  Exact recovery
# sits at round-off (1e-16 .. 1e-13), where a relative bound would gate
# noise; the floor turns the bound into "may worsen by bound * (FLOOR +
# error)", i.e. at least 2.5e-5 absolute at a 0.25 bound.
REL_ERROR_FLOOR = 1e-4
# Tolerances of the known-answer check on computed entries.
KNOWN_RTOL = 1e-9
KNOWN_ATOL = 1e-12
# Nystrom recovers a rank-r EDM exactly once the sampled core has rank
# r; on stability-classes3 (rank 5, 51 columns) the error is round-off.
EXACT_RECOVERY_TOL = 1e-9


def known_answer_errors(values: np.ndarray, mask: np.ndarray,
                        reference: np.ndarray) -> tuple[int, int, float]:
    """(checked, failed, worst relative deviation) over computed i<j entries."""
    ii, jj = np.nonzero(np.triu(mask, 1))
    ref = reference[ii, jj]
    keep = np.isfinite(ref)
    got, ref = values[ii, jj][keep], ref[keep]
    dev = np.abs(got - ref)
    bad = dev > KNOWN_RTOL * np.abs(ref) + KNOWN_ATOL
    worst = float((dev / np.maximum(np.abs(ref), KNOWN_ATOL)).max()) if ref.size else 0.0
    return int(ref.size), int(bad.sum()), worst


def relative_error_of(estimate: np.ndarray, truth: np.ndarray) -> float:
    return float(np.linalg.norm(estimate - truth) / np.linalg.norm(truth))


def assignment_pairs(dataset, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """Which pairs ``ot`` sends to the assignment solver: both measures
    uniform with equal atom counts.  Every other pair goes to the LP."""
    atoms = np.array([mu.num_atoms for mu in dataset.measures])
    uniform = np.array([mu.is_uniform() for mu in dataset.measures])
    return (atoms[ii] == atoms[jj]) & uniform[ii] & uniform[jj]


def _out(stage) -> str:
    return str(stage.argv[stage.argv.index("--out") + 1])


def check_outputs(workload, ctx, stages, checks) -> dict:
    """Check every stage output and collect what the metrics need."""
    n = ctx.n
    reference = known_matrix(ctx, *workload.known(ctx))
    truth = workload.truth(ctx)
    info = {"dist": [], "mc": [], "nystrom": [], "embed": [], "rel_errors": {}}
    pair_sets = []
    for stage in stages:
        for path, kind in stage.outputs.items():
            m = checks.guard(f"{path} loads", lambda p=path: matrixio.load(p))
            if m is None:
                continue
            checks.add(f"{path} loads as {kind}", m.kind.name == kind, m.kind.name)
            if stage.command == "dist":
                count, bad, worst = known_answer_errors(m.values, m.mask, reference)
                checks.add(f"{path} known answers", bad == 0,
                           f"{bad} of {count} off by more than tolerance; "
                           f"worst relative deviation {worst:.2e}")
                ii, jj = np.nonzero(np.triu(m.mask, 1))
                assignment = int(assignment_pairs(ctx.dataset, ii, jj).sum())
                info["dist"].append({"output": path, "solves": ii.size,
                                     "lp": ii.size - assignment,
                                     "assignment": assignment})
                pair_sets.append(ii * n + jj)
            elif stage.command == "complete":
                info["rel_errors"][path] = relative_error_of(m.values, truth)
        base = _out(stage)
        if stage.command == "complete":
            report = json.loads(Path(base + ".report.json").read_text())
            if "stop_reason" in report:
                checks.add(f"{base} MC stop reason", report["stop_reason"]
                           in ("converged", "max_iters"), report["stop_reason"])
                info["mc"].append(report)
            else:
                info["nystrom"].append(report)
        elif stage.command == "embed":
            coords = checks.guard(f"{base} loads",
                                  lambda b=base: load_embedding_coords(b))
            if coords is not None:
                checks.add(f"{base} has one finite row per measure",
                           coords.shape[0] == n and np.isfinite(coords).all(),
                           coords.shape)
            if "--labels-from" in stage.argv:
                rows = Path(base).read_text().splitlines()[1:]
                got = np.array([int(r.rsplit(",", 1)[1]) for r in rows])
                checks.add(f"{base} labels match", np.array_equal(got, ctx.labels))
            info["embed"].append(json.loads(Path(base + ".manifest.json").read_text()))
        elif stage.command == "classify":
            reports = json.loads(Path(base, "summary.json").read_text())["reports"]
            trials = int(stage.argv[stage.argv.index("--trials") + 1])
            fractions = str(stage.argv[stage.argv.index("--fractions") + 1]).split(",")
            ok = (len(reports) == 2 * len(fractions) and all(
                len(r["accuracies"]) == trials
                and all(0.0 <= a <= 1.0 for a in r["accuracies"]) for r in reports))
            checks.add(f"{base} reports every fraction, classifier and trial", ok)
    for est, path in workload.evals(ctx):
        value = json.loads(Path(path).read_text())["relative_error"]
        expect = info["rel_errors"].get(est, float("nan"))
        checks.add(f"{path} matches the recomputed error",
                   abs(value - expect) <= 1e-12 * abs(expect), f"{value} vs {expect}")
    heads = [info["rel_errors"][est] for est, _ in workload.headline(ctx)
             if est in info["rel_errors"]]
    if workload.exact_recovery:
        checks.add("exact Nystrom recovery", max(heads, default=np.inf)
                   <= EXACT_RECOVERY_TOL, heads)
    info["rel_error"] = REL_ERROR_FLOOR + statistics.median(heads) if heads else None
    info["accuracy"] = checks.guard("accuracy", lambda: workload.accuracy(ctx))
    ctx.info["pairs"] = np.unique(np.concatenate(pair_sets)) if pair_sets else np.array([], int)
    atoms = [mu.num_atoms for mu in ctx.dataset.measures]
    solves = sum(d["solves"] for d in info["dist"])
    lp = sum(d["lp"] for d in info["dist"])
    info["input"] = {
        "n": n, "atoms_mean": float(np.mean(atoms)), "atoms_max": int(max(atoms)),
        "observed_entries": {d["output"]: d["solves"] for d in info["dist"]},
        "solves": solves, "lp_share": lp / solves if solves else 0.0,
        "assignment_share": 1.0 - lp / solves if solves else 0.0,
    }
    return info


def _total(spans, *names) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] in names)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans, result, ctx) -> dict:
    """Per-layer metrics of one traced pass.  A layer the workload does
    not use reports 0."""
    dist = result.get("dist", [])
    mc = result.get("mc", [])
    nystrom = result.get("nystrom", [])
    embed = result.get("embed", [])
    assembly = _total(spans, "ot.w2_matrix")
    solves = sum(d["solves"] for d in dist)
    steps = sum(r["iterations"] for r in mc)
    mc_s = _total(spans, "mc.complete_mc")
    trials = [s["end"] - s["start"] for s in spans if s["name"] == "classify.run_trial"]
    plans = [json.loads(p.read_text()) for p in Path(".").glob("*.manifest.json")]
    entries = sum(m["observed_entries"] for m in plans
                  if m.get("command") == "dist" and "plan" in m)
    cli = {c: _total(spans, f"cli.{c}")
           for c in ("synth", "dist", "complete", "embed", "eval", "classify")}
    layers = {
        "measures.synth_s": _total(spans, "measures.synthetic_dataset",
                                   "measures.grid_images"),
        "measures.load_s": _total(spans, "measures.load_dataset"),
        "measures.atoms_mean": float(np.mean([mu.num_atoms for mu in ctx.dataset.measures])),
        "sampling.plan_s": _total(spans, "sampling.sample_entries",
                                  "sampling.sample_columns"),
        "sampling.entries": entries,
        "ot.assembly_s": assembly,
        "ot.solves": solves,
        "ot.solves_per_s": solves / assembly if assembly > 0 else 0.0,
        "ot.path_lp": sum(d["lp"] for d in dist),
        "ot.path_assignment": sum(d["assignment"] for d in dist),
        "mc.complete_s": mc_s,
        "mc.steps": steps,
        "mc.step_us": 1e6 * mc_s / steps if steps else 0.0,
        "mc.outer": sum(r["outer_iterations"] for r in mc),
        "mc.max_iters_hits": sum(r["stop_reason"] == "max_iters" for r in mc),
        "mc.final_residual": _median([r["final_residual"] for r in mc]),
        "nystrom.complete_s": _total(spans, "nystrom.complete_nystrom"),
        "nystrom.columns": _median([r["columns"] for r in nystrom]),
        "nystrom.core_rank": _median([r["core_effective_rank"] for r in nystrom]),
        "embedding.choose_dimension_s": _total(spans, "embedding.choose_dimension"),
        "embedding.mds_s": _total(spans, "embedding.mds"),
        "embedding.dim": _median([m["dimension"] for m in embed]),
        "embedding.negative_tail_mass": _median([m["negative_tail_mass"] for m in embed]),
        "classify.trial_p50_s": _median(trials),
        "classify.trials": len(trials),
        "classify.knn1_s": _total(spans, "classify.knn1"),
        "classify.lda_s": _total(spans, "classify.lda"),
        "matrixio.save_s": _total(spans, "matrixio.save"),
        "matrixio.load_s": _total(spans, "matrixio.load"),
        "matrixio.bytes": sum(s["attrs"].get("bytes", 0) for s in spans
                              if s["name"] == "matrixio.save"),
    }
    layers.update({f"cli.{c}_s": v for c, v in cli.items()})
    layers["cli.self_s"] = sum(self_time(spans, s) for s in spans
                               if s["name"].startswith("cli."))
    return layers


def ot_probe(workload, ctx, checks, per_path: int) -> dict:
    """Single-process latency of the workload's own pairs, per solver
    path, and the 1-worker vs N-worker ``w2_matrix`` pass."""
    n = ctx.n
    flat = ctx.info["pairs"]
    ii, jj = flat // n, flat % n
    assign = assignment_pairs(ctx.dataset, ii, jj)
    rng = np.random.default_rng(ctx.seed_for(workload.name, "probe"))
    layers, detail = {}, {}
    for path, sel in (("lp", ~assign), ("assignment", assign)):
        idx = np.flatnonzero(sel)
        idx = rng.choice(idx, size=min(per_path, idx.size), replace=False)
        us = []
        for k in idx:
            mu, nu = ctx.dataset[int(ii[k])], ctx.dataset[int(jj[k])]
            t = time.perf_counter_ns()
            wm.w2_squared(mu, nu)
            us.append((time.perf_counter_ns() - t) / 1e3)
        p50, p90 = (np.percentile(us, [50, 90]) if us else (0.0, 0.0))
        layers[f"ot.pair_{path}_p50_us"] = float(p50)
        layers[f"ot.pair_{path}_p90_us"] = float(p90)
        detail[f"{path}_pairs_timed"] = len(us)
    plan = sampling.load_plan(workload.scaling_plan) if workload.scaling_plan else None
    t = time.perf_counter()
    one = wm.w2_matrix(ctx.dataset, plan, 1)
    t1 = time.perf_counter() - t
    t = time.perf_counter()
    many = wm.w2_matrix(ctx.dataset, plan, ctx.workers)
    tn = time.perf_counter() - t
    checks.add(f"w2_matrix identical at 1 and {ctx.workers} workers",
               np.array_equal(one.values, many.values)
               and np.array_equal(one.mask, many.mask))
    layers["ot.scaling_eff"] = t1 / (ctx.workers * tn)
    detail["scaling"] = {"plan": workload.scaling_plan or "full",
                         "workers": ctx.workers, "one_worker_s": t1, "n_workers_s": tn}
    return {"layers": layers, "detail": detail}


def versions() -> dict:
    """numpy and scipy versions, the BLAS numpy was built against and the
    thread caps in force."""
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name, version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        name = version = None
    caps = {k: os.environ.get(k) for k in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": {"name": name, "version": version, "thread_caps": caps}}
