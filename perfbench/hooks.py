"""Span tracer for the traced benchmark run.

The tracer patches the public functions of each stochadc layer from outside
the package: every call becomes a span (name, start, end, parent, count)
kept in memory, and `layer_stats` folds the spans of one run into the
per-layer metrics.  Modules that import a function by name hold their own
reference to it, so each hook lists every module attribute the program
calls it through.
"""

from __future__ import annotations

import functools
import inspect
import json
import time


def _size(name):
    return lambda bound, result: int(bound[name].size)


def _written_bytes(bound, result):
    return bound["path"].stat().st_size


# hook name -> (module attributes the program calls it through, count of
# work per call or None).  "Class.method" patches the method in place.
HOOKS = {
    "stdc.count_edges_batch": (["interleaver.count_edges_batch"], _size("starts")),
    "stdc.adapt_offset": (["interleaver.adapt_offset"], None),
    "interleaver.AdcSystem": (["interleaver.AdcSystem.__init__"], None),
    "interleaver.schedule_sampling": (
        ["interleaver.schedule_sampling"],
        lambda bound, result: int(result.size),
    ),
    "interleaver.convert_pair_arrays": (["interleaver.convert_pair_arrays"], _size("v_p")),
    "interleaver.run_capture": (
        ["interleaver.run_capture"],
        lambda bound, result: int(bound["n_samples"]),
    ),
    "interleaver.adapt_offsets": (
        ["interleaver.adapt_offsets"],
        lambda bound, result: sum(e.window for e in result[1]),
    ),
    "interleaver.align_outputs": (
        ["interleaver.align_outputs"],
        lambda bound, result: int(result.codes.size),
    ),
    "interleaver.calibrate_skew": (["interleaver.calibrate_skew"], None),
    "stimulus.SineStimulus": (
        ["stimulus.SineStimulus.__call__"],
        lambda bound, result: int(result[0].size),
    ),
    "pi.pi_sweep": (["pi.pi_sweep"], None),
    "pi.trim_paths": (
        ["pi.trim_paths", "interleaver.trim_paths"],
        lambda bound, result: int(result.iterations),
    ),
    "pi.inverted_segments": (["pi.inverted_segments"], None),
    "pi.pi_output": (["pi.pi_output", "interleaver.pi_output"], None),
    "core.keyed_normal": (
        ["core.keyed_normal", "interleaver.keyed_normal", "pi.keyed_normal"],
        lambda bound, result: int(result.size),
    ),
    "metrics.sndr_enob": (["metrics.sndr_enob"], _size("codes")),
    "metrics.code_density_linearity": (["metrics.code_density_linearity"], None),
    "config.load_config": (["cli.load_config"], None),
    "experiments.write_artifacts": (
        ["experiments._write_csv", "experiments._write_json"],
        _written_bytes,
    ),
    "experiments.run_experiment": (["cli.run_experiment"], None),
}

ROOT_SPAN = "cli.main"


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, count]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name, fn, *args, count=None, **kwargs):
        """Call fn inside a span; count(args, kwargs, result) sets its work."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, 0]
        self.spans.append(record)
        self._stack.append(idx)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            record[4] = count(args, kwargs, result)
        return result

    def wrap(self, name, fn, count):
        measure = None
        if count is not None:
            signature = inspect.signature(fn)

            def measure(args, kwargs, result):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                return count(bound.arguments, result)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, count=measure, **kwargs)

        return traced

    def install(self, package):
        """Patch every hook into the imported package; fail on a missing name."""
        wrapped = {}
        for name, (targets, count) in HOOKS.items():
            for target in targets:
                owner = package
                *path, attr = target.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None)
                if original is None:
                    raise RuntimeError(f"hook target {package.__name__}.{target} is missing")
                if id(original) not in wrapped:
                    wrapped[id(original)] = self.wrap(name, original, count)
                setattr(owner, attr, wrapped[id(original)])

    def dump(self, path):
        """Write the spans as JSON lines; parent is the id of the enclosing span."""
        keys = ("name", "start", "end", "parent", "count")
        with open(path, "w", encoding="utf-8") as fh:
            for i, record in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **dict(zip(keys, record))}) + "\n")


def layer_stats(spans) -> dict:
    """Per-hook calls, busy_s, self_s and summed count, plus trace coverage.

    busy_s sums the outermost spans of a name (children included); self_s
    subtracts each span's direct children.  coverage is the share of root
    span time that lies inside named child spans.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "count": 0} for name in HOOKS}
    root_s = covered_s = 0.0
    for i, (name, start, end, parent, count) in enumerate(spans):
        duration = end - start
        if name == ROOT_SPAN:
            root_s += duration
            covered_s += child_time[i]
            continue
        entry = stats[name]
        entry["calls"] += 1
        entry["count"] += count
        entry["self_s"] += duration - child_time[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["busy_s"] += duration
    return {"layers": stats, "coverage": covered_s / root_s if root_s else 0.0}
