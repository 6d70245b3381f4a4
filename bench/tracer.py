"""Layer tracing of sturmlab from outside the package.

``Tracer.install`` wraps the public functions of each layer module and the
public methods of ``IrrationalSlope`` and ``FracPermutation``, and rebinds
every module attribute that refers to a wrapped function (``farey.b_stream``,
``farey.factor_set``, ``matrep.pi_direct``, ``cli.parse_slope``, ...), so the
callers' own lookups reach the wrappers.  ``uninstall`` restores everything.

Each call records a span (name, start, end, parent) kept in memory.  Calls
listed in AGGREGATED happen up to millions of times per pass; they add their
count and time to the enclosing span instead of recording spans.  A span's
self time is its duration minus the time its child spans and aggregated calls
cover, so per job the self times of all layers plus the job span's own
remainder add up to the job's duration (``accounting_error`` checks this).
"""
from __future__ import annotations

import functools
import inspect
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("cli", "irrational", "permtool", "sturmian", "matrep", "farey")
CLASSES = {"irrational": ("IrrationalSlope",), "permtool": ("FracPermutation",)}
FLOOR = "irrational.IrrationalSlope.floor_multiple"
COMPARE = "irrational.IrrationalSlope.frac_compare"
AGGREGATED = {
    *(f"irrational.IrrationalSlope.{m}" for m in (
        "floor_multiple", "floor_reduced", "compare_multiple", "frac_compare",
        "compare_frac_to_rational", "frac_interval")),
    *(f"permtool.FracPermutation.{m}" for m in (
        "inverse", "compose", "embed", "cycles", "cycle_type", "fixed_points", "cycle_string")),
    "permtool.b_stream", "permtool.order", "permtool.sign_direct",
    "sturmian.word_letter", "farey.perm_on_cell",
}
# the CLI's phases: parse (parser construction and parse_args) and serialize
RENAMED = {"cli.build_parser": "cli.parse", "cli._emit_rows": "cli.serialize"}


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "covered", "agg", "calls")

    def __init__(self, name: str, layer: str, parent: "Span | None"):
        self.name, self.layer, self.parent = name, layer, parent
        self.start = self.end = self.covered = 0.0
        self.agg: dict[str, float] = {}  # layer -> self time of aggregated calls
        self.calls: Counter = Counter()  # aggregated calls made directly under this span

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Aggregate:
    """Stack frame of one timed aggregated call."""

    __slots__ = ("owner", "prev_hot", "covered")

    def __init__(self, owner: Span, prev_hot: str | None):
        self.owner, self.prev_hot, self.covered = owner, prev_hot, 0.0


def _on_parse_slope(tracer, span, args, result, exc):
    if result is not None:
        tracer.slopes.append(result)


def _on_permutation(tracer, span, args, result, exc):
    tracer.notes[span.name + ".entries"] += args[1]


def _on_factor_set(tracer, span, args, result, exc):
    if result is not None:
        tracer.notes["factors_found"] += len(result.factors)
    elif type(exc).__name__ == "SafetyCapExceeded":
        tracer.notes["cap_failures"] += 1


def _on_build_parser(tracer, span, args, parser, exc):
    if parser is not None:
        parser.parse_args = tracer._span_wrapper(parser.parse_args, "cli.parse", "cli", None)


HOOKS = {
    "irrational.parse_slope": _on_parse_slope,
    "permtool.pi_direct": _on_permutation,
    "permtool.pi_sos": _on_permutation,
    "sturmian.factor_set": _on_factor_set,
    "cli.build_parser": _on_build_parser,
}


class Tracer:
    def __init__(self, package, modules: dict):
        """package: the imported sturmlab package; modules: layer name -> module."""
        self.package, self.modules = package, modules
        self._saved: list[tuple[object, str, object]] = []
        self.spans: list[Span] = []
        self.stack: list = []
        self.hot: str | None = None  # layer of the innermost timed aggregated call
        self.counts: Counter = Counter()
        self.fn_time: defaultdict = defaultdict(float)
        self.notes: Counter = Counter()
        self.slopes: list = []

    def reset(self) -> None:
        """Forget everything recorded; installed wrappers keep working."""
        for store in (self.spans, self.stack, self.counts, self.fn_time, self.notes, self.slopes):
            store.clear()
        self.hot = None

    # -- patching ----------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        wrapped = {}
        for layer, mod in self.modules.items():
            for name, fn in list(vars(mod).items()):
                key = f"{layer}.{name}"
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and (not name.startswith("_") or key in RENAMED)):
                    wrapped[fn] = self._wrap(fn, key, layer)
            for cls_name in CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for name, fn in list(vars(cls).items()):
                    if inspect.isfunction(fn) and not name.startswith("_"):
                        self._set(cls, name, self._wrap(fn, f"{layer}.{cls_name}.{name}", layer))
        for mod in (self.package, *self.modules.values()):
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._set(mod, name, wrapped[value])

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def _wrap(self, fn, key: str, layer: str):
        if key in AGGREGATED:
            if inspect.isgeneratorfunction(fn):
                return self._generator_wrapper(fn, key, layer)
            return self._aggregate_wrapper(fn, key, layer)
        return self._span_wrapper(fn, RENAMED.get(key, key), layer, HOOKS.get(key))

    # -- wrappers ----------------------------------------------------------------

    def _span_wrapper(self, fn, name: str, layer: str, hook):
        tracer = self
        fallback = self._aggregate_wrapper(fn, name, layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if tracer.hot is not None or not stack:
                # inside an aggregated call a span would be covered twice
                return fallback(*args, **kwargs)
            span = Span(name, layer, stack[-1])
            result = exc = None
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                span.parent.covered += span.end - span.start
                tracer.spans.append(span)
                if hook is not None:
                    hook(tracer, span, args, result, exc)

        return wrapper

    def _aggregate_wrapper(self, fn, key: str, layer: str):
        tracer, counts, fn_time = self, self.counts, self.fn_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if not stack:
                return fn(*args, **kwargs)
            counts[key] += 1
            if tracer.hot == layer:  # nested in the same layer: its time is already covered
                return fn(*args, **kwargs)
            top = stack[-1]
            owner = top if type(top) is Span else top.owner
            owner.calls[key] += 1
            frame = _Aggregate(owner, tracer.hot)
            stack.append(frame)
            tracer.hot = layer
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                tracer.hot = frame.prev_hot
                top.covered += dt
                owner.agg[layer] = owner.agg.get(layer, 0.0) + dt - frame.covered
                fn_time[key] += dt

        return wrapper

    def _generator_wrapper(self, fn, key: str, layer: str):
        step = self._aggregate_wrapper(next, key, layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                try:
                    item = step(gen)
                except StopIteration:
                    return
                yield item

        return wrapper

    @contextmanager
    def job(self, name: str):
        """Root span of one benchmark job; its self time is the untraced remainder."""
        if self.stack:
            raise RuntimeError("jobs do not nest")
        span = Span(name, "bench", None)
        self.stack.append(span)
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            self.stack.pop()
            self.spans.append(span)

    # -- results -----------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced since the last reset."""
        self_s, inclusive, n_spans = Counter(), Counter(self.fn_time), Counter()
        compares_in_sort = 0
        for sp in self.spans:
            self_s[sp.layer] += sp.duration - sp.covered
            for layer, t in sp.agg.items():
                self_s[layer] += t
            inclusive[sp.name] += sp.duration
            n_spans[sp.name] += 1
            if sp.name == "permtool.pi_direct":
                compares_in_sort += sp.calls[COMPARE]
        c = self.counts
        floors = sum(a.stats["floors"] for a in self.slopes)
        positions = c["sturmian.word_letter"]
        entries = self.notes["permtool.pi_direct.entries"]
        parse, serialize = inclusive["cli.parse"], inclusive["cli.serialize"]
        return {
            "irrational.self_s": self_s["irrational"],
            "irrational.us_per_floor": 1e6 * self_s["irrational"] / floors if floors else 0.0,
            "irrational.floors": floors,
            "irrational.refine_steps": sum(a.stats["refine_steps"] for a in self.slopes),
            # convergents are memoized per slope; the list length is the depth reached
            "irrational.convergent_depth": max((len(a._convs) for a in self.slopes), default=0),
            "irrational.floor_calls": c[FLOOR],
            "irrational.floor_cache_hit_ratio": 1 - floors / c[FLOOR] if c[FLOOR] else 0.0,
            "irrational.frac_compare_calls": c[COMPARE],
            "irrational.parse_slope_s": inclusive["irrational.parse_slope"],
            "permtool.self_s": self_s["permtool"],
            "permtool.pi_direct_s": inclusive["permtool.pi_direct"],
            "permtool.pi_sos_calls": n_spans["permtool.pi_sos"],
            "permtool.order_s": inclusive["permtool.order"],
            "permtool.compares_per_entry": compares_in_sort / entries if entries else 0.0,
            "permtool.b_stream_steps": c["permtool.b_stream"],
            "permtool.b_stream_s": inclusive["permtool.b_stream"],
            "sturmian.self_s": self_s["sturmian"],
            "sturmian.factor_set_s": inclusive["sturmian.factor_set"],
            "sturmian.positions_scanned": positions,
            "sturmian.factor_yield": self.notes["factors_found"] / positions if positions else 0.0,
            "sturmian.cap_failures": self.notes["cap_failures"],
            "matrep.self_s": self_s["matrep"],
            "matrep.factor_matrix_s": inclusive["matrep.factor_matrix"],
            "matrep.det_exact_s": inclusive["matrep.det_exact"],
            "farey.self_s": self_s["farey"],
            "farey.exact_integral_s": inclusive["farey.exact_integral"],
            "farey.perm_on_cell_calls": c["farey.perm_on_cell"],
            "farey.perm_on_cell_s": inclusive["farey.perm_on_cell"],
            "farey.sign_sum_s": inclusive["farey.sign_sum"],
            "farey.b_range_search_s": inclusive["farey.b_range_search"],
            "farey.congruence_test_s": inclusive["farey.congruence_test"],
            "cli.self_s": self_s["cli"],
            "cli.parse_s": parse,
            "cli.compute_s": inclusive["cli.main"] - parse - serialize,
            "cli.serialize_s": serialize,
        }

    def accounting_error(self) -> float:
        """Largest mismatch, in seconds, in the span bookkeeping of any job.

        Per span, the covered time must equal its children's durations plus
        its aggregated calls; per job, the self times of every span under it
        plus their aggregated time must add up to the job's duration.
        """
        children = defaultdict(float)
        for sp in self.spans:
            if sp.parent is not None:
                children[id(sp.parent)] += sp.duration
        worst = 0.0
        per_job, roots = defaultdict(float), []
        for sp in self.spans:
            worst = max(worst, abs(sp.covered - children[id(sp)] - sum(sp.agg.values())))
            root = sp
            while root.parent is not None:
                root = root.parent
            per_job[id(root)] += sp.duration - sp.covered + sum(sp.agg.values())
            if sp.parent is None:
                roots.append(sp)
        for job in roots:
            worst = max(worst, abs(per_job[id(job)] - job.duration))
        return worst

    def span_records(self, offset: int = 0) -> list[dict]:
        index = {id(sp): offset + i for i, sp in enumerate(self.spans)}
        return [
            {"id": index[id(sp)], "name": sp.name, "layer": sp.layer,
             "parent": None if sp.parent is None else index[id(sp.parent)],
             "start": sp.start, "end": sp.end, "self": sp.duration - sp.covered,
             "aggregated": sp.agg, "calls": dict(sp.calls)}
            for sp in self.spans
        ]
