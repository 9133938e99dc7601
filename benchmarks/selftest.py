"""Self-test of the benchmark's output checks and tracer.

    python3 benchmarks/selftest.py

Exits 0 when every check below holds, 1 otherwise:
- a correct operation passes the output check of each workload, and a
  deliberately wrong one (mu off by 10%, a turned orientation, a grasp off
  its sphere, a non-zero exit) is counted as failed with its reason;
- the tracer wraps every target while active and restores each module
  attribute afterwards, also when the traced code raises;
- a traced pick-tabletop operation makes about 50 renders;
- the round statistic does not depend on which scale level a run starts
  at, and the reference scaling undoes a uniform slow-down of the host.
"""

import dataclasses
import json
import statistics
import sys
from pathlib import Path

from run import round_latency, use_checkout_src, work_dir

use_checkout_src()

import numpy as np  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from depthrefine import geometry, grasp, harness  # noqa: E402

FAILURES = []


def expect(cond: bool, what: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        FAILURES.append(what)


def mu_off(coarse: geometry.Pose, mu: float) -> geometry.Pose:
    """Coarse pose slid along its ray to scale factor `mu`."""
    sigma = (1.0 - mu) * float(np.linalg.norm(coarse.position))
    return geometry.apply_sigma_to_pose(coarse, sigma)[0]


def check_pick() -> None:
    w = workloads.PickTabletop(seed=3, workdir=Path("."))
    w.setup()
    out = w.run(0)
    expect(w.check(out).reasons == (), "pick-tabletop: correct operation passes")

    mu = 1.1 * out.result.mu_opt
    pose = mu_off(out.coarse, mu)
    world = geometry.transform_point(out.spec.camera_pose, pose.position)
    wrong = dataclasses.replace(
        out,
        result=dataclasses.replace(
            out.result, mu_opt=mu, refined_pose=pose, estimated_dims=w.cad.scaled(mu)
        ),
        world=world,
        candidates=grasp.sample_candidates(world, workloads.GRASP_CFG),
    )
    reasons = w.check(wrong).reasons
    expect("dims" in reasons and "centroid" in reasons, f"pick-tabletop: mu off by 10% fails {reasons}")

    turned = geometry.Pose(out.result.refined_pose.position, geometry.quat_z(1e-6))
    wrong = dataclasses.replace(out, result=dataclasses.replace(out.result, refined_pose=turned))
    expect(w.check(wrong).reasons == ("orientation",), "pick-tabletop: turned orientation fails")

    moved = list(out.candidates)
    moved[5] = dataclasses.replace(moved[5], position=moved[5].position + np.array([0.0, 0.0, 1e-7]))
    wrong = dataclasses.replace(out, candidates=moved)
    expect(w.check(wrong).reasons == ("grasp_sphere",), "pick-tabletop: candidate off its sphere fails")


def check_eval() -> None:
    w = workloads.EvalOccluded(seed=3, workdir=Path("."))
    w.setup()
    rec = w.run(0)
    expect(w.check(rec).reasons == (), "eval-occluded: correct operation passes")
    spec = w.specs[0]
    mu = 1.1 * (rec.mu_error + spec.true_scale)
    true_dims = harness.CAD_CUBOID.scaled(spec.true_scale)
    wrong = dataclasses.replace(
        rec,
        dimensional_error=harness.dimensional_error(harness.CAD_CUBOID.scaled(mu), true_dims),
        mu_error=mu - spec.true_scale,
    )
    expect(w.check(wrong).reasons == ("dims",), "eval-occluded: mu off by 10% fails")
    failed = harness.EvalRecord(rec.scene_id, None, None, None, False)
    expect(w.check(failed).reasons == ("sweep_failed",), "eval-occluded: failed refinement fails")


def check_cli(workdir: Path) -> None:
    w = workloads.CliDense(seed=3, workdir=workdir)
    w.setup()
    out = w.run(0)
    expect(w.check(out).reasons == (), "cli-dense: correct operation passes")

    doc = json.loads(json.dumps(out.doc))
    mu = 1.1 * doc["mu_opt"]
    doc["estimated_dims"] = [mu * d for d in harness.CAD_CUBOID.as_array()]
    expect("dims" in w.check(dataclasses.replace(out, doc=doc)).reasons, "cli-dense: mu off by 10% fails")

    expect(w.check(dataclasses.replace(out, grasp_code=5)).reasons == ("exit_code",),
           "cli-dense: non-zero exit fails")
    doc = {k: v for k, v in out.doc.items() if k != "refined_position_world"}
    expect(w.check(dataclasses.replace(out, doc=doc)).reasons == ("result_json",),
           "cli-dense: result JSON without a world position fails")


def check_tracer() -> None:
    wrapped = tracing.targets()
    before = [getattr(m, a) for m, a, _, _ in wrapped]
    w = workloads.PickTabletop(seed=3, workdir=Path("."))
    w.setup()
    tracer = tracing.Tracer()
    with tracer:
        inside = [getattr(m, a) for m, a, _, _ in wrapped]
        tracer.op = 0
        w.run(0)
    expect(all(x is not y for x, y in zip(inside, before)), "tracer: every target wrapped while active")
    expect(all(getattr(m, a) is b for (m, a, _, _), b in zip(wrapped, before)),
           "tracer: every module attribute restored")
    layers = tracing.layer_metrics(tracer.spans, [0])
    expect(40 <= layers["renderer.calls"] <= 60, f"tracer: {layers['renderer.calls']:.0f} renders per refine")
    expect(layers["grasp.candidates"] == 32, "tracer: 32 grasp candidates counted")

    try:
        with tracing.Tracer():
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    expect(all(getattr(m, a) is b for (m, a, _, _), b in zip(wrapped, before)),
           "tracer: attributes restored after an exception")


def check_scaling() -> None:
    levels = [0.29, 0.36, 0.45, 0.475, 0.48]  # eval-occluded seconds per scale level
    mean = statistics.fmean(levels)
    for start in range(len(levels)):
        ops = (levels[start:] + levels[:start]) * 4
        expect(abs(round_latency(ops, len(levels)) - mean) < 1e-12,
               f"rounds: same latency starting at level {start}")
    nominal_s = reference.NOMINAL_MS / 1e3
    slow = reference.scaled([2.0 * t for t in levels], [2.0 * nominal_s] * len(levels))
    expect(all(abs(a - b) < 1e-12 for a, b in zip(slow, levels)),
           "reference: a host at half speed scales back to the same times")


def main() -> int:
    check_pick()
    check_eval()
    with work_dir("selftest") as workdir:
        check_cli(workdir)
    check_tracer()
    check_scaling()
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-tests passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
