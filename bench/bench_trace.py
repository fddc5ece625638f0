"""Spans and counters recorded from outside the program.

The traced run replaces public functions of ``deepdict`` at the places where
their callers look them up (``harness.train_ddlic``, ``intraclass.update_
representations`` ...) with wrappers that record a span: name, start, end,
parent and process. Spans stay in memory and are written out when the run
ends. Worker processes inherit the wrappers when the pool forks them; their
spans travel back to the parent on the ``ReplicateResult`` of each replicate.

ISTA iteration counts come from a separate pass (``count_ista``), because
counting needs ISTA's objective trace, which costs time the timed pass must
not pay.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

from deepdict import baseline, classify, data, harness, intraclass, kernels, model_io

# (module, attribute, span name). One entry per place a caller looks the
# function up, so a call is traced whichever module makes it.
TRACED = (
    (data, "load_labeled_matrix", "data.load"),
    (harness, "load_labeled_matrix", "data.load"),
    (harness, "split_per_class", "data.split"),
    (harness, "evaluate_experiment", "harness.cell"),
    (harness, "train_ddlic", "intraclass.train_ddlic"),
    (intraclass, "train_layer", "intraclass.train_layer"),
    (intraclass, "update_dictionary", "intraclass.update_dictionary"),
    (intraclass, "update_representations", "intraclass.update_representations"),
    (intraclass, "layer_objective", "intraclass.layer_objective"),
    (harness, "train_ddl", "baseline.train_ddl"),
    (baseline, "train_dense_layer", "baseline.train_dense_layer"),
    (baseline, "train_sparse_layer", "baseline.train_sparse_layer"),
    (harness, "code_test_ddl", "baseline.code_test_ddl"),
    (baseline, "ista_sparse_code", "kernels.ista"),
    (kernels, "gram_spectral_norm", "kernels.gram_spectral_norm"),
    (baseline, "ridge_code", "kernels.ridge_code"),
    (intraclass, "ridge_code", "kernels.ridge_code"),
    (classify, "ridge_code", "kernels.ridge_code"),
    (baseline, "solve_least_squares_dictionary", "kernels.solve_least_squares_dictionary"),
    (intraclass, "solve_least_squares_dictionary", "kernels.solve_least_squares_dictionary"),
    (harness, "code_test_ddlic", "classify.code_test_ddlic"),
    (classify, "code_layers", "classify.code_layers"),
    (harness, "evaluate_accuracy", "classify.evaluate_accuracy"),
    (model_io, "save_model", "model_io.save"),
    (model_io, "load_model", "model_io.load"),
)

# Names whose spans are numbered by call order under their parent span:
# ``train_ddlic`` trains layer 1, 2, 3 in turn.
NUMBERED = {"intraclass.train_layer"}


class Recorder:
    """Spans of one run, kept in memory.

    A span is a dict with ``id``, ``parent``, ``name``, ``start``, ``end``
    (``time.perf_counter`` seconds, one clock for all processes of the
    machine) and ``pid``. Ids carry the process id, so spans recorded in
    worker processes never collide with the parent's.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self._stack: list[tuple[str, dict]] = []
        self._count = 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        if name in NUMBERED:
            children = parent[1] if parent else {}
            children[name] = children.get(name, 0) + 1
            name = f"{name}.l{children[name]}"
        self._count += 1
        sid = f"{os.getpid()}:{self._count}"
        self._stack.append((sid, {}))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(
                {"id": sid, "parent": parent[0] if parent else None, "name": name,
                 "start": start, "end": end, "pid": os.getpid()}
            )

    def take_local(self) -> list[dict]:
        """Remove and return the spans this process recorded (a forked worker
        also holds a copy of the parent's spans from before the fork)."""
        pid = os.getpid()
        mine = [s for s in self.spans if s["pid"] == pid]
        self.spans = [s for s in self.spans if s["pid"] != pid]
        return mine

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(s, sort_keys=True) + "\n")


def wrap(fn, span=None, on_return=None):
    """``fn`` wrapped to record a span per call, to pass each call's
    arguments, result and seconds to ``on_return(args, result, seconds)``
    after the span has closed, or both.

    ``span`` is ``(recorder, name)``. ``functools.wraps`` keeps the module and
    qualified name, so a process pool pickles a wrapped function by
    reference and the forked worker finds the wrapper.
    """
    recorder, name = span or (None, None)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        with recorder.span(name) if recorder else nullcontext():
            result = fn(*args, **kwargs)
        if on_return is not None:
            on_return(args, result, time.perf_counter() - start)
        return result

    return wrapper


@contextmanager
def patched(replacements):
    """Set ``(module, attribute, value)`` replacements; restore on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
    try:
        for mod, attr, value in replacements:
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)


@contextmanager
def tracing(recorder: Recorder):
    """Install the span wrappers (before any worker pool forks)."""

    def hand_back(args, result, seconds):
        # In a worker: send its spans back to the parent on the result.
        if os.getpid() != recorder.pid:
            result.bench_spans = recorder.take_local()

    def collect(args, report, seconds):
        for res in report.replicates:
            recorder.spans.extend(res.__dict__.pop("bench_spans", ()))

    replacements = [(mod, attr, wrap(getattr(mod, attr), (recorder, name)))
                    for mod, attr, name in TRACED]
    with patched(replacements):
        # Outermost on evaluate_experiment: merge worker spans once the
        # cell's span has closed, so they land in the parent's list.
        replacements = [
            (harness, "_run_replicate",
             wrap(harness._run_replicate, (recorder, "harness.replicate"), hand_back)),
            (harness, "evaluate_experiment", wrap(harness.evaluate_experiment, None, collect)),
        ]
        with patched(replacements):
            yield


@dataclass
class IstaCounts:
    calls: int = 0
    iters: int = 0
    capped: int = 0


@contextmanager
def count_ista(counts: IstaCounts):
    """Count ISTA calls, iterations and calls that stopped at ``max_iters``.

    Every caller of ``ista_sparse_code`` inside the program looks it up in
    ``baseline``; the wrapper asks for the objective trace, whose length is
    one more than the iterations run. The codes are the same either way.
    """
    ista = baseline.ista_sparse_code

    @functools.wraps(ista)
    def counting(dictionary, inputs, l1_weight, cfg=kernels.IstaConfig(),
                 warm_start=None, return_trace=False):
        codes, trace = ista(dictionary, inputs, l1_weight, cfg, warm_start, return_trace=True)
        iters = len(trace) - 1
        counts.calls += 1
        counts.iters += iters
        counts.capped += iters >= cfg.max_iters
        return (codes, trace) if return_trace else codes

    with patched([(baseline, "ista_sparse_code", counting)]):
        yield
