"""Tracing of the depthrefine package from outside its code.

The tracer replaces package functions under the module attributes their
callers look up (`depthrefine.refiner.render_depth`,
`depthrefine.harness.refine`, `depthrefine.cli.load_mesh`, ...) with
wrappers that record one span per call, and restores the originals when
its `with` block ends. No package file changes. Spans stay in memory;
`layer_metrics` folds them into per-operation numbers for each layer.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from typing import Callable, NamedTuple

from depthrefine import cli, grasp, harness, refiner


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at the root
    op: int  # operation id the span belongs to
    count: int | None  # work count taken from the result, when the layer has one


def _nonzero(code) -> int:
    return int(code != 0)


def targets() -> list[tuple[object, str, str, Callable | None]]:
    """(module, attribute, span name, count of the result) for every wrapped call."""
    return [
        (refiner, "refine", "refiner.refine", None),
        (harness, "refine", "refiner.refine", None),
        (cli, "refine", "refiner.refine", None),
        (refiner, "render_depth", "renderer.render_depth", None),
        (harness, "render_depth", "renderer.render_depth", None),
        (refiner, "objective", "refiner.objective", None),
        (refiner, "residual_samples", "refiner.residual_samples", len),
        (refiner, "ransac_inliers", "refiner.ransac_inliers", len),
        (refiner, "apply_sigma_to_pose", "geometry.apply_sigma_to_pose", None),
        (harness, "run_sweep", "harness.run_sweep", None),
        (harness, "generate_scene", "harness.generate_scene", None),
        (harness, "pixel_support", "harness.pixel_support", len),
        (harness, "leftmost_region", "harness.leftmost_region", None),
        (grasp, "sample_candidates", "grasp.sample_candidates", len),
        (cli, "sample_candidates", "grasp.sample_candidates", len),
        (cli, "load_mesh", "fileio.load_mesh", None),
        (cli, "load_depth", "fileio.load_depth", None),
        (cli, "load_scene_config", "fileio.load_scene_config", None),
        (cli, "main", "cli.main", _nonzero),
    ]


class Tracer:
    """Wraps the `targets` for the duration of a `with` block.

    Set `op` before each operation; every span recorded until the next
    change carries that id.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        try:
            for module, attr, name, count in targets():
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, count))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name: str, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                n = count(result) if count is not None and result is not None else None
                spans[idx] = Span(name, start, end, parent, self.op, n)

        return wrapper


def per_op_totals(spans: list[Span], ops) -> dict[int, dict[str, float]]:
    """Per operation and span name: calls, ms, self ms and summed counts."""
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_s[s.parent] += s.end - s.start
    totals = {op: defaultdict(float) for op in ops}
    for i, s in enumerate(spans):
        if s.op not in totals:
            continue
        t = totals[s.op]
        dur = s.end - s.start
        t[s.name + ".calls"] += 1
        t[s.name + ".ms"] += 1e3 * dur
        t[s.name + ".self_ms"] += 1e3 * (dur - child_s[i])
        if s.count is not None:
            t[s.name + ".count"] += s.count
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metric -> (value from one operation's totals, aggregate over
# operations). Counts are averaged so a rare extra call still shows; times
# and ratios take the median so one slow operation does not.
def _layer_table(obj_mb: float):
    mean, median = statistics.fmean, statistics.median
    return {
        "renderer.calls": (lambda t: t["renderer.render_depth.calls"], mean),
        "renderer.ms": (lambda t: t["renderer.render_depth.ms"], median),
        "renderer.ms_per_call": (
            lambda t: _ratio(t["renderer.render_depth.ms"], t["renderer.render_depth.calls"]),
            median,
        ),
        "refiner.ms": (lambda t: t["refiner.refine.ms"], median),
        "refiner.self_ms": (lambda t: t["refiner.refine.self_ms"], median),
        "refiner.objective_calls": (lambda t: t["refiner.objective.calls"], mean),
        "refiner.objective_ms": (lambda t: t["refiner.objective.ms"], median),
        "refiner.pairing_ms": (lambda t: t["refiner.residual_samples.ms"], median),
        "refiner.pairs": (lambda t: t["refiner.residual_samples.count"], mean),
        "refiner.ransac_ms": (lambda t: t["refiner.ransac_inliers.ms"], median),
        "refiner.inlier_frac": (
            lambda t: _ratio(t["refiner.ransac_inliers.count"], t["refiner.residual_samples.count"]),
            median,
        ),
        "geometry.sigma_calls": (lambda t: t["geometry.apply_sigma_to_pose.calls"], mean),
        "harness.generate_ms": (lambda t: t["harness.generate_scene.ms"], median),
        "harness.occlusion_ms": (
            lambda t: t["harness.pixel_support.ms"] + t["harness.leftmost_region.ms"],
            median,
        ),
        "harness.support_px": (lambda t: t["harness.pixel_support.count"], mean),
        "fileio.load_mesh_ms": (lambda t: t["fileio.load_mesh.ms"], median),
        "fileio.obj_mb_per_s": (
            lambda t: _ratio(obj_mb * t["fileio.load_mesh.calls"], 1e-3 * t["fileio.load_mesh.ms"]),
            median,
        ),
        "fileio.load_depth_ms": (lambda t: t["fileio.load_depth.ms"], median),
        "cli.self_ms": (lambda t: t["cli.main.self_ms"], median),
        "cli.nonzero_exits": (lambda t: t["cli.main.count"], mean),
        "grasp.ms": (lambda t: t["grasp.sample_candidates.ms"], median),
        "grasp.candidates": (lambda t: t["grasp.sample_candidates.count"], mean),
    }


def layer_metrics(spans: list[Span], ops, obj_bytes: int = 0) -> dict[str, float]:
    """Per-operation layer numbers over the traced operations `ops`.

    Layers a workload never enters read 0. `obj_bytes` is the size of the
    OBJ file each `load_mesh` call reads.
    """
    totals = per_op_totals(spans, ops)
    out = {}
    for name, (value, aggregate) in _layer_table(obj_bytes / 1e6).items():
        out[name] = float(aggregate([value(t) for t in totals.values()]))
    return out
