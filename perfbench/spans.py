"""Spans around calls into each masstransport layer, and the per-layer metrics.

The wrappers live here, in the benchmark, not in the package: ``install``
patches each public function where its caller looks it up (``verify``
imports the transport and enumeration functions by name, so those wrappers
go into ``verify``'s namespace) and wraps ``sample_block`` on every
``Process`` subclass.  Only the traced child installs them.

Each thread keeps its own stack of open spans.  The Monte Carlo pool is
reached through ``_run_chunks``, whose wrapper hands the caller's open span
to the pool threads, so spans from worker threads nest under the call that
started them.  Spans are kept in memory and written out at the end.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# Process subclass -> spec kind, for the per-kind sampling metrics
KINDS = {
    "IidDiscreteProcess": "iid_discrete",
    "GaussianProcess": "iid_gaussian",
    "MarkovProcess": "markov_chain",
    "MovingAverageProcess": "moving_average",
    "RotationProcess": "rotation",
    "MixtureProcess": "mixture",
}
MC_CALLS = (
    "verify.mc_identity",
    "verify.mc_maximal_ergodic",
    "verify.mc_survival",
    "ergodic.trajectory_batch",
    "ergodic.estimate_dip_probability",
)
EXACT_CALLS = ("verify.exact_identity", "verify.exact_survival", "verify.exact_maximal_ergodic")
TRANSPORT_FUNCS = (
    "records_after",
    "mass_row",
    "total_sent",
    "ladder_epochs_before_zero",
    "mass_received_at_zero",
)
TILES = {"64KiB": (8, 1024), "1MiB": (64, 2048), "16MiB": (1024, 2048), "128MiB": (1024, 16384)}


class Tracer:
    """Collects finished spans as dicts: id, parent, name, thread, start, end."""

    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> list[dict]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def current(self) -> dict | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def adopt(self, parent: dict | None):
        """Open spans on this thread under ``parent``, a span of another thread."""
        saved = self._stack()
        self._local.stack = [] if parent is None else [parent]
        try:
            yield
        finally:
            self._local.stack = saved

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` recording one span per call; ``attrs(args, kwargs, result)``
        adds counts to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
            span = {
                "id": span_id,
                "parent": stack[-1]["id"] if stack else None,
                "name": name,
                "thread": threading.get_ident(),
                "start": time.perf_counter(),
            }
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span["end"] = time.perf_counter()
                with self._lock:
                    self.spans.append(span)
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result

        return traced


def _size(args, kwargs, result) -> dict:
    return {"elements": int(result.size), "bytes": int(result.nbytes)}


def _threads(args, kwargs, result) -> dict:
    return {"threads": int(kwargs.get("threads", 1))}


def _atoms(args, kwargs, result) -> dict:
    return {"atoms": len(result.atoms)}


def install(tracer: Tracer):
    """Patch the package's layers to record spans; returns the undo function."""
    from masstransport import cli, ergodic, processes, rng, transport, verify

    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, name: str, attrs=None) -> None:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, attrs))

    for attr in ("uniform_block", "uniform_column"):
        patch(rng, attr, f"rng.{attr}", _size)
    for cls_name, kind in KINDS.items():
        patch(getattr(processes, cls_name), "sample_block", f"processes.{kind}.sample_block", _size)
    patch(verify, "exact_window_distribution", "processes.exact_window_distribution", _atoms)
    for attr in ("mass_row", "mass_received_at_zero"):
        patch(verify, attr, f"transport.{attr}")
    for attr in ("sent_mass_terms", "received_mass_terms"):
        patch(verify, attr, f"transport.{attr}", _size)
    for attr in TRANSPORT_FUNCS:
        patch(transport, attr, f"transport.{attr}")
    # the truncation bound has no metric of its own; its span keeps it out
    # of cli.self_s
    for name in MC_CALLS + EXACT_CALLS + ("verify.survival_truncation_bound",):
        module, attr = name.split(".")
        owner = verify if module == "verify" else ergodic
        patch(owner, attr, name, _threads if name in MC_CALLS else None)
    patch(cli, "parse_spec_file", "specio.parse_spec_file")
    patch(cli, "make_process", "processes.make_process")
    patch(cli, "sample_window", "processes.sample_window")
    patch(cli, "main", "cli.main")

    for module in (verify, ergodic):
        run_chunks = module.__dict__["_run_chunks"]
        saved.append((module, "_run_chunks", run_chunks))
        module._run_chunks = _adopting(tracer, run_chunks)

    def undo() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo


def _adopting(tracer: Tracer, run_chunks):
    @functools.wraps(run_chunks)
    def traced(total, threads, worker, width=1):
        parent = tracer.current()

        def adopted(chunk):
            with tracer.adopt(parent):
                return worker(chunk)

        return run_chunks(total, threads, adopted, width)

    return traced


# ---------------------------------------------------------------------------
# arithmetic over finished spans


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Children may run on other threads and overlap each other; each
    instant of the parent counts as covered once.
    """
    children: dict[int, list[dict]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        clipped = [
            (max(c["start"], s["start"]), min(c["end"], s["end"])) for c in children[s["id"]]
        ]
        covered = _union_length([(a, b) for a, b in clipped if b > a])
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def pool_busy_frac(spans: list[dict]) -> float:
    """Sampling time across pool threads over threads x wall of the MC calls.

    Sampling is the time in outermost ``sample_block`` spans (a mixture's
    children are already inside their parent's span).
    """
    by_id = {s["id"]: s for s in spans}
    calls = {s["id"]: s for s in spans if s["name"] in MC_CALLS}
    busy: dict[int, float] = defaultdict(float)
    for s in spans:
        if not s["name"].endswith(".sample_block"):
            continue
        parent = by_id.get(s["parent"])
        while parent is not None and parent["id"] not in calls:
            if parent["name"].endswith(".sample_block"):
                break
            parent = by_id.get(parent["parent"])
        if parent is not None and parent["id"] in calls:
            busy[parent["id"]] += s["end"] - s["start"]
    capacity = sum(c["threads"] * (c["end"] - c["start"]) for c in calls.values())
    return sum(busy.values()) / capacity if capacity > 0 else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics computed from one traced run's spans.

    A rate over zero work (say, ns per uniform on the exact lane) reads 0.
    """
    selfs = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    elements: dict[str, int] = defaultdict(int)
    for s in spans:
        self_s[s["name"]] += selfs[s["id"]]
        calls[s["name"]] += 1
        elements[s["name"]] += s.get("elements", 0)

    def ns_per(names: tuple[str, ...]) -> float:
        work = sum(elements[n] for n in names)
        return 1e9 * sum(self_s[n] for n in names) / work if work else 0.0

    rng_names = ("rng.uniform_block", "rng.uniform_column")
    sample_names = tuple(f"processes.{k}.sample_block" for k in KINDS.values())
    m: dict[str, tuple[float, str]] = {
        "rng.uniforms": (sum(elements[n] for n in rng_names), "count"),
        "rng.ns_per_uniform": (ns_per(rng_names), "ns"),
    }
    for kind in KINDS.values():
        m[f"processes.{kind}.ns_per_increment"] = (ns_per((f"processes.{kind}.sample_block",)), "ns")
    m["processes.sample_block.calls"] = (sum(calls[n] for n in sample_names), "count")
    m["processes.block_bytes_max"] = (
        max((s.get("bytes", 0) for s in spans if s["name"] in sample_names), default=0),
        "bytes",
    )
    m["processes.atoms"] = (
        sum(s["atoms"] for s in spans if s["name"] == "processes.exact_window_distribution"),
        "count",
    )
    m["processes.exact_window_distribution.self_s"] = (
        self_s["processes.exact_window_distribution"], "s"
    )
    m["transport.mass_row.calls"] = (calls["transport.mass_row"], "count")
    m["transport.mass_row.self_s"] = (self_s["transport.mass_row"], "s")
    m["transport.mass_received_at_zero.self_s"] = (self_s["transport.mass_received_at_zero"], "s")
    for name in ("sent_mass_terms", "received_mass_terms"):
        m[f"transport.{name}.ns_per_element"] = (ns_per((f"transport.{name}",)), "ns")
    for name in MC_CALLS + EXACT_CALLS:
        m[f"{name}.self_s"] = (self_s[name], "s")
    m["verify.pool_busy_frac"] = (pool_busy_frac(spans), "ratio")
    m["cli.self_s"] = (self_s["cli.main"], "s")
    return m


def tile_probe(uniform_block, seed: int, min_seconds: float = 0.25, min_calls: int = 3):
    """Median ns per uniform of ``uniform_block`` at fixed block sizes, one thread."""
    import numpy as np

    out = {}
    for label, (trials, positions) in TILES.items():
        t_idx = np.arange(trials, dtype=np.uint64)
        p_idx = np.arange(positions, dtype=np.uint64)
        samples = []
        started = time.perf_counter()
        while len(samples) < min_calls or time.perf_counter() - started < min_seconds:
            t0 = time.perf_counter()
            block = uniform_block(seed, 0, t_idx, p_idx)
            samples.append((time.perf_counter() - t0) * 1e9 / block.size)
            del block
        samples.sort()
        out[f"rng.ns_per_uniform.tile_{label}"] = (samples[len(samples) // 2], "ns")
    return out
