"""In-memory span recorder and the wrappers that feed it.

A traced pass replaces the public functions the CLI and ``classify``
call into with thin wrappers that record one span each: name, start,
end and the span that was open when it began (its parent).  Nothing
under ``src/`` is edited: the wrappers are installed by assigning module
attributes, and ``install`` returns a function that puts the originals
back.  Spans stay in memory until the pass writes them out.

Only the pass's own process is traced.  The solves that ``w2_matrix``
fans out to pool workers show up as the ``ot.w2_matrix`` span of the
caller.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from pathlib import Path


class Recorder:
    """Spans of one process, nested by a stack of open span ids."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None, "attrs": {}}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def _wrap(recorder: Recorder, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name) as record:
            result = fn(*args, **kwargs)
        if after is not None:
            record["attrs"].update(after(args, result))
        return result
    return wrapper


def _saved_bytes(args, _result) -> dict:
    return {"bytes": Path(args[1]).stat().st_size}


def install(recorder: Recorder):
    """Wrap the layer entry points; returns a callable that unwraps them."""
    from wassmatrix import classify, cli, matrixio, measures

    targets = [
        (cli, "synthetic_dataset", "measures.synthetic_dataset"),
        (cli, "save_dataset", "measures.save_dataset"),
        (cli, "load_dataset", "measures.load_dataset"),
        (measures, "load_dataset", "measures.load_dataset"),
        (measures, "save_dataset", "measures.save_dataset"),
        (cli, "sample_entries", "sampling.sample_entries"),
        (cli, "sample_columns", "sampling.sample_columns"),
        (classify, "sample_columns", "sampling.sample_columns"),
        (cli, "w2_matrix", "ot.w2_matrix"),
        (classify, "w2_matrix", "ot.w2_matrix"),
        (cli, "complete_mc", "mc.complete_mc"),
        (cli, "complete_nystrom", "nystrom.complete_nystrom"),
        (classify, "complete_nystrom", "nystrom.complete_nystrom"),
        (cli, "choose_dimension", "embedding.choose_dimension"),
        (classify, "choose_dimension", "embedding.choose_dimension"),
        (cli, "mds", "embedding.mds"),
        (classify, "mds", "embedding.mds"),
        (cli, "stability_experiment", "classify.stability_experiment"),
        (classify, "run_trial", "classify.run_trial"),
        (matrixio, "load", "matrixio.load"),
        (matrixio, "save", "matrixio.save", _saved_bytes),
    ]
    originals = []
    for module, attr, name, *after in targets:
        fn = getattr(module, attr)
        originals.append((module, attr, fn))
        setattr(module, attr, _wrap(recorder, name, fn, *after))
    # run_trial looks classifiers up in this dict at call time
    table = classify.CLASSIFIERS
    saved_table = dict(table)
    for key, fn in saved_table.items():
        table[key] = _wrap(recorder, f"classify.{key}", fn)

    def uninstall():
        for module, attr, fn in originals:
            setattr(module, attr, fn)
        table.update(saved_table)

    return uninstall


def self_time(spans: list[dict], span: dict) -> float:
    """Duration of ``span`` minus the part its direct children cover."""
    children = sorted((s["start"], s["end"]) for s in spans
                      if s["parent"] == span["id"])
    covered, reach = 0.0, span["start"]
    for start, end in children:
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return (span["end"] - span["start"]) - covered


def nesting_errors(spans: list[dict]) -> list[str]:
    """Spans that are open, or that stick out of their parent."""
    by_id = {s["id"]: s for s in spans}
    errors = []
    for s in spans:
        if s["end"] is None or s["end"] < s["start"]:
            errors.append(f"span {s['id']} {s['name']} is not closed")
            continue
        parent = by_id.get(s["parent"]) if s["parent"] is not None else None
        if s["parent"] is not None and parent is None:
            errors.append(f"span {s['id']} {s['name']} has no parent record")
        elif parent is not None and not (parent["start"] <= s["start"]
                                         and s["end"] <= parent["end"]):
            errors.append(f"span {s['id']} {s['name']} is outside "
                          f"its parent {parent['id']} {parent['name']}")
    return errors
