"""Outside-in span tracing of the repro stack's layers.

The benchmark never edits ``src/``.  Instead, :class:`Tracer` replaces the
public functions listed in :data:`LAYERS` with thin wrappers, in every
``repro.*`` module that bound them (``from .x import f`` copies the binding,
so patching only the defining module would miss most callers).  Each
wrapper records one span -- name, start, end, parent span, thread and the
operation it belongs to -- into an in-memory list; nothing is written while
the benchmark measures.  :meth:`Tracer.uninstall` restores every binding.

A layer's *self time* is its span's duration minus the time its child spans
(wrapped calls made inside it, on the same thread) cover.  Self times of
all layers partition the traced work, so ``core.fta`` does not double count
the ``core.csd`` recount that runs beside it, and ``api.sweep.shard`` is
only the shard's own orchestration.
"""

from __future__ import annotations

import functools
import importlib
import json
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


def _describe_run(args, kwargs, result):
    """Experiment id of one ``Experiment.run`` call."""
    return {"experiment": result.experiment}


def _describe_profile(args, kwargs, result):
    """(model, seed) of one ``profile_model`` call, for the reuse ratio."""
    workload = args[0] if args else kwargs["workload"]
    seed = args[1] if len(args) > 1 else kwargs.get("seed", 0)
    return {"key": (workload.name, int(seed))}


def _describe_batch(args, kwargs, result):
    """Layer jobs of one ``CycleModel.run_batch`` call."""
    jobs = args[1] if len(args) > 1 else kwargs["jobs"]
    return {"layer_jobs": sum(len(profile.layers) for profile, _ in jobs)}


def _describe_trace(args, kwargs, result):
    """Instructions replayed by one ``TraceSimulator.run`` call."""
    return {"instructions": result.instructions}


def _describe_load(args, kwargs, result):
    """Hit or miss of one per-file cache read."""
    return {"lookups": 1, "hits": int(result is not None)}


@dataclass(frozen=True)
class Layer:
    """One traced layer: a span name and the callables it wraps.

    Attributes:
        name: span name (``"core.fta"``); the per-layer metrics use it as
            their prefix.
        targets: ``"module:qualname"`` of each wrapped callable; a dotted
            qualname wraps a method on its class.
        skip: modules whose binding of a target stays unwrapped, so a
            helper called *inside* another layer counts as that layer's
            work (FTA's own CSD conversions stay in ``core.fta``).
        describe: optional ``(args, kwargs, result) -> dict`` recording
            counts on the span (work done, hits).
    """

    name: str
    targets: Tuple[str, ...]
    skip: Tuple[str, ...] = ()
    describe: Optional[Callable[..., Dict[str, Any]]] = None


#: Every traced layer, named after the repro modules they live in.  Only
#: what the workloads reach is wrapped: the library-default thread transport
#: and per-file result cache.
LAYERS: Tuple[Layer, ...] = (
    Layer(
        "api.run",
        ("repro.api.experiment:Experiment.run",),
        describe=_describe_run,
    ),
    Layer(
        "workloads.profile",
        ("repro.workloads.profiles:profile_model",),
        describe=_describe_profile,
    ),
    Layer(
        "workloads.synth",
        (
            "repro.workloads.profiles:synthesize_layer_weights",
            "repro.workloads.profiles:synthesize_activations",
        ),
    ),
    Layer("core.quant", ("repro.core.quantization:quantize_weights",)),
    Layer("core.fta", ("repro.core.fta:approximate_layer",)),
    Layer(
        "core.csd",
        (
            "repro.core.csd:count_nonzero_digits_array",
            "repro.core.sparsity:weight_zero_bit_ratio_binary",
            "repro.core.sparsity:weight_zero_bit_ratio_csd",
        ),
        skip=("repro.core.fta",),
    ),
    Layer(
        "arch.ipu",
        ("repro.arch.ipu:InputPreprocessingUnit.average_active_columns",),
    ),
    Layer(
        "sim.cycle",
        ("repro.sim.cycle_model:CycleModel.run_batch",),
        describe=_describe_batch,
    ),
    Layer("compiler.compile", ("repro.compiler.pipeline:compile_model",)),
    Layer(
        "sim.trace",
        ("repro.sim.trace:TraceSimulator.run",),
        describe=_describe_trace,
    ),
    Layer("arch.controller", ("repro.arch.controller:TopController.execute",)),
    Layer("api.sweep.plan", ("repro.api.sweep:ShardPlanner.plan",)),
    Layer("api.sweep.keys", ("repro.api.sweep:cache_keys_for_grid",)),
    Layer("api.sweep.shard", ("repro.api.sweep:run_shard",)),
    Layer("dist.transport", ("repro.dist.transport:_PoolTransport.run",)),
    Layer(
        "store.read",
        ("repro.api.sweep:_load_cached",),
        describe=_describe_load,
    ),
    Layer("store.write", ("repro.api.sweep:_store_cached",)),
    Layer(
        "api.results.codec",
        (
            "repro.api.results:_JsonEnvelope.to_json",
            "repro.api.results:_JsonEnvelope.from_json",
        ),
    ),
    Layer(
        "api.journal",
        (
            "repro.api.sweep:SweepJournal.start",
            "repro.api.sweep:SweepJournal.append",
            "repro.api.sweep:SweepJournal.load",
        ),
    ),
)


@dataclass
class Span:
    """One wrapped call.

    Attributes:
        id: unique span id (ids grow in start order per thread).
        name: layer name.
        start_ns / end_ns: ``time.perf_counter_ns`` bounds.
        parent: id of the enclosing span on the same thread, or -1.
        thread: ``threading.get_ident()`` of the calling thread.
        op: the operation (trace id) the span belongs to; spans of one
            operation share it.
        info: counts recorded by the layer's ``describe`` hook.
    """

    id: int
    name: str
    start_ns: int
    parent: int
    thread: int
    op: Any
    end_ns: int = 0
    info: Dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Wraps the :data:`LAYERS` callables and collects their spans.

    :meth:`install` before the traced region and :meth:`uninstall` after
    it; set :attr:`op` before each operation so its spans share one trace
    id.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op: Any = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: Layer, function: Callable) -> Callable:
        tracer = self
        name = layer.name
        describe = layer.describe

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(
                id=next(tracer._ids),
                name=name,
                start_ns=time.perf_counter_ns(),
                parent=stack[-1] if stack else -1,
                thread=threading.get_ident(),
                op=tracer.op,
            )
            stack.append(span.id)
            try:
                result = function(*args, **kwargs)
            finally:
                stack.pop()
                span.end_ns = time.perf_counter_ns()
                tracer.spans.append(span)
            if describe is not None:
                span.info = describe(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner: Any, attribute: str, value: Any) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def install(self) -> "Tracer":
        """Wrap every target binding (imports the target modules first)."""
        for layer in LAYERS:
            for target in layer.targets:
                module_name, qualname = target.split(":")
                module = importlib.import_module(module_name)
                if "." in qualname:
                    class_name, method = qualname.split(".")
                    owner = getattr(module, class_name)
                    raw = owner.__dict__[method]
                    if isinstance(raw, classmethod):
                        self._patch(
                            owner, method, classmethod(self._wrap(layer, raw.__func__))
                        )
                    else:
                        self._patch(owner, method, self._wrap(layer, raw))
                    continue
                original = getattr(module, qualname)
                wrapper = self._wrap(layer, original)
                for name, loaded in list(sys.modules.items()):
                    if (
                        loaded is None
                        or not (name == "repro" or name.startswith("repro."))
                        or name in layer.skip
                    ):
                        continue
                    for attribute, value in list(vars(loaded).items()):
                        if value is original:
                            self._patch(loaded, attribute, wrapper)
        return self

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


def dump_spans(path, spans: Sequence[Span], **header: Any) -> None:
    """Write ``spans`` (and a header) as one JSON document."""
    rows = [
        [s.id, s.name, s.start_ns, s.end_ns, s.parent, s.thread, s.op, s.info]
        for s in spans
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(dict(header, spans=rows), default=list))


def load_spans(path) -> List[Span]:
    """Read the spans written by :func:`dump_spans`."""
    return [
        Span(id=i, name=n, start_ns=b, end_ns=e, parent=p, thread=t, op=o, info=info)
        for i, n, b, e, p, t, o, info in json.loads(path.read_text())["spans"]
    ]


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self seconds of each span: its duration minus its children's."""
    covered: Dict[int, int] = {}
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] = (
                covered.get(span.parent, 0) + span.end_ns - span.start_ns
            )
    return {
        span.id: (span.end_ns - span.start_ns - covered.get(span.id, 0)) / 1e9
        for span in spans
    }


def layer_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per layer: self seconds, call count and summed ``describe`` counts."""
    selfs = self_times(spans)
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(span.name, {"busy_s": 0.0, "calls": 0})
        entry["busy_s"] += selfs[span.id]
        entry["calls"] += 1
        for key, value in span.info.items():
            if isinstance(value, (int, float)):
                entry[key] = entry.get(key, 0) + value
    return totals


def shard_wait_s(spans: Sequence[Span]) -> float:
    """Summed time shards waited in a transport before a worker ran them.

    A shard's wait is the start of its ``api.sweep.shard`` span minus the
    start of the latest ``dist.transport`` span of the same operation that
    began before it (the transport submits every shard when ``run``
    starts).
    """
    runs = sorted(
        (s.start_ns, s.op) for s in spans if s.name == "dist.transport"
    )
    waited = 0
    for span in spans:
        if span.name != "api.sweep.shard":
            continue
        begun = [start for start, op in runs if op == span.op and start <= span.start_ns]
        if begun:
            waited += span.start_ns - begun[-1]
    return waited / 1e9
