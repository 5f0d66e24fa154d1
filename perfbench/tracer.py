"""Timing wrappers on ucrlab's public functions, for the traced run only.

install() replaces every public function and public method of the seven
layer modules with a wrapper that records a span (name, start, end, parent,
job). A function is replaced at every module attribute that holds it, so
calls made through `from .x import f` bindings are traced too. uninstall()
puts the originals back. Spans stay in memory until write().

Nothing under src/ changes: the untraced run installs no wrapper at all.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import math
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("cli", "serialize", "ucrcap", "protocol", "channelcap", "probspace",
          "converselab")

# per-layer time metrics: total time inside the named functions, counting a
# span only when no enclosing span belongs to the same metric
TIMED = {
    "ucrcap.solve_s": ("ucrcap.ucr_capacity_solve",),
    "ucrcap.curve_s": ("ucrcap.ucr_curve",),
    "ucrcap.oracle_s": ("ucrcap.ucr_capacity_oracle",),
    "protocol.exact_s": ("protocol.exact_analyze",),
    "protocol.monte_carlo_s": ("protocol.run_monte_carlo",),
    "protocol.build_codebook_s": ("protocol.build_codebook",),
    "probspace.subseed_s": ("probspace.subseed",),
    "probspace.sample_iid_s": ("probspace.sample_iid",),
    "channelcap.spectrum_s": ("channelcap.spectrum_samples",),
    "channelcap.density_s": ("channelcap.information_density",),
    "channelcap.sample_output_s": ("channelcap.DmcProduct.sample_output",
                                   "channelcap.MixedChannel.sample_output"),
    "channelcap.likelihood_s": ("channelcap.DmcProduct.log2_likelihood",
                                "channelcap.DmcProduct.log2_output_prob",
                                "channelcap.MixedChannel.log2_likelihood",
                                "channelcap.MixedChannel.log2_output_prob",
                                "channelcap.ChannelKernel.block_likelihood"),
    "channelcap.capacity_s": ("channelcap.dmc_capacity",),
    "converselab.interval_s": ("converselab.interval_lemma_check",),
    "converselab.telescoping_s": ("converselab.telescoping_identity_check",),
}


def _oracle_matrices(counts, bound, result):
    """Channels on the oracle's simplex grid: C(m + u - 1, u - 1) ** |X|."""
    source = bound.arguments["source"]
    u_card = bound.arguments["u_card"] or source.nx + 1
    m = int(round(1.0 / bound.arguments["grid_step"]))
    counts["ucrcap.oracle_matrices"] += math.comb(m + u_card - 1, u_card - 1) ** source.nx


def _codebook(counts, bound, result):
    counts["protocol.codebook_symbols"] += int(bound.arguments["cfg"].codebook_symbols)


def _monte_carlo(counts, bound, result):
    counts["protocol.trials"] += result.trials
    counts["protocol.encoder_hits"] += result.trials - result.event_counts["encoder_fallback"]


def _spectrum(counts, bound, result):
    counts["channelcap.samples"] += result.num_samples


def _capacity(counts, bound, result):
    counts["channelcap.capacity_iterations"] += result.iterations


def _lemma_check(counts, bound, result):
    counts["converselab.checks"] += 1


def _written(counts, bound, result):
    counts["serialize.bytes_written"] += Path(bound.arguments["path"]).stat().st_size


HOOKS = {
    "ucrcap.ucr_capacity_oracle": _oracle_matrices,
    "protocol.build_codebook": _codebook,
    "protocol.run_monte_carlo": _monte_carlo,
    "channelcap.spectrum_samples": _spectrum,
    "channelcap.dmc_capacity": _capacity,
    "converselab.interval_lemma_check": _lemma_check,
    "converselab.variance_bound_check": _lemma_check,
    "converselab.set_bound_checks": _lemma_check,
    "converselab.telescoping_identity_check": _lemma_check,
    "serialize.write_json": _written,
    "serialize.write_csv": _written,
    "serialize.RunManifest.write": _written,
}


class Tracer:
    """Records spans while installed; job names the job that owns new spans."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []   # [name index, start, end, parent, job]
        self.counts: Counter = Counter()
        self.job: str | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        # a worker thread's first span hangs under the span that started the pool
        source = stack or self._main_stack
        return source[-1] if source else -1

    def _wrap(self, fn, name: str):
        index = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            rec = [index, time.perf_counter(), 0.0, tracer._parent(stack), tracer.job]
            with tracer._lock:
                tracer.spans.append(rec)
                span = len(tracer.spans) - 1
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer.counts, bound, result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        self._main_stack = self._stack()
        modules = {layer: importlib.import_module(f"ucrlab.{layer}") for layer in LAYERS}
        holders = list(modules.values()) + [importlib.import_module("ucrlab")]
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(obj, f"{layer}.{name}")
                    for holder in holders:
                        for attr, value in list(vars(holder).items()):
                            if value is obj:
                                self._set(holder, attr, wrapper)
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if attr.startswith("_"):
                            continue
                        qual = f"{layer}.{name}.{attr}"
                        if isinstance(member, staticmethod):
                            self._set(obj, attr, staticmethod(self._wrap(member.__func__, qual)))
                        elif inspect.isfunction(member):
                            self._set(obj, attr, self._wrap(member, qual))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer times and counts from the recorded spans."""
        names = [self.names[s[0]] for s in self.spans]
        children = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                children[s[3]].append(i)
        out = {key: 0.0 for key in TIMED}
        member_of = {fn: key for key, fns in TIMED.items() for fn in fns}
        for i, s in enumerate(self.spans):
            key = member_of.get(names[i])
            if key is None:
                continue
            parent = s[3]
            while parent >= 0 and member_of.get(names[parent]) != key:
                parent = self.spans[parent][3]
            if parent < 0:
                out[key] += s[2] - s[1]
        self_time = Counter()
        for i, s in enumerate(self.spans):
            busy = 0.0
            end_seen = s[1]
            for c in sorted(children[i], key=lambda c: self.spans[c][1]):
                lo, hi = max(self.spans[c][1], end_seen), min(self.spans[c][2], s[2])
                if hi > lo:
                    busy += hi - lo
                    end_seen = hi
            self_time[names[i].split(".")[0]] += s[2] - s[1] - busy
        for layer in LAYERS:
            out[f"{layer}.self_s"] = float(self_time[layer])
        c = self.counts
        out["ucrcap.oracle_matrices"] = c["ucrcap.oracle_matrices"]
        out["protocol.codebook_symbols"] = c["protocol.codebook_symbols"]
        out["protocol.trials"] = c["protocol.trials"]
        out["protocol.encoder_hit_ratio"] = (
            c["protocol.encoder_hits"] / c["protocol.trials"] if c["protocol.trials"] else 0.0)
        out["probspace.subseed_calls"] = names.count("probspace.subseed")
        out["channelcap.samples"] = c["channelcap.samples"]
        out["channelcap.capacity_iterations"] = c["channelcap.capacity_iterations"]
        out["converselab.checks"] = c["converselab.checks"]
        out["serialize.calls"] = sum(n.startswith("serialize.") for n in names)
        out["serialize.bytes_written"] = c["serialize.bytes_written"]
        out["trace.spans"] = len(self.spans)
        return out

    def layers_seen(self) -> set[str]:
        return {self.names[s[0]].split(".")[0] for s in self.spans}

    def write(self, path: Path) -> None:
        """Spans as gzipped CSV: name, start, end (s from the first span), parent, job."""
        t0 = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent,job\n")
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(f"{i},{self.names[name]},{start - t0:.9f},{end - t0:.9f},"
                         f"{parent},{job}\n")
