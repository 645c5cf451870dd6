"""Plan application and analyzer overhead.

Two measurements, merged into the bench trajectory JSON:

* **Per-op ``apply`` vs ``apply_plan``** at shrink-wrap scale: applying
  a 100-op plan through :meth:`Workspace.apply` validates after every
  op; :meth:`Workspace.apply_plan` runs the static analyzer once, then
  sends every op through the same apply pipeline and validates once at
  the end.  The two paths are asserted fingerprint-identical, then
  timed.  Floor: parity (>= 0.9x) at 200 types / 100 ops.  The floor was
  once >= 2x, but most of that gap was the per-op path paying an *eager
  propagation scratch copy* per operation; copy-on-write forks and then
  the one apply pipeline removed that tax, so at 200 types the two paths
  roughly tie; the bulk-path scaling floors live with the compiled pass
  in ``test_bench_compact.py`` / ``test_bench_columnar.py``.
* **Analyzer overhead**: :func:`~repro.analysis.plan.analyze_plan` on
  the same plan, alone, as a fraction of the per-op apply time -- the
  pre-flight must stay a small add-on, not a second apply loop.
"""

from __future__ import annotations

import os

from repro.analysis.plan import analyze_plan
from repro.model.fingerprint import schema_fingerprint
from repro.repository.workspace import Workspace
from repro.workload.generator import (
    WorkloadSpec,
    generate_operations,
    generate_schema,
)

from benchmarks.test_bench_spine import _median_time

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
STRICT = not SMOKE
SIZE = 60 if SMOKE else 200
PLAN_OPS = 30 if SMOKE else 100
REPEATS = 3 if SMOKE else 5


def _workload():
    spec = WorkloadSpec(
        types=SIZE,
        seed=42,
        isa_fraction=0.45,
        part_of_chain=max(4, SIZE // 4),
        instance_of_chain=max(3, SIZE // 8),
    )
    schema = generate_schema(spec)
    plan = generate_operations(schema, PLAN_OPS, seed=11)
    return schema, plan


def test_bench_plan_apply_plan_vs_per_op(report, record_bench):
    """apply_plan (validate once) vs per-op apply (validate per op)."""
    schema, plan = _workload()

    def per_op():
        workspace = Workspace(schema, "per_op")
        for operation in plan:
            workspace.apply(operation)
        return workspace

    def planned():
        workspace = Workspace(schema, "apply_plan")
        workspace.apply_plan(plan)
        return workspace

    assert schema_fingerprint(per_op().schema) == schema_fingerprint(
        planned().schema
    ), "apply_plan diverged from per-op application"

    per_op_time = _median_time(per_op, repeats=REPEATS)
    planned_time = _median_time(planned, repeats=REPEATS)
    speedup = per_op_time / planned_time if planned_time else float("inf")

    record_bench(f"plan_per_op[{SIZE}x{PLAN_OPS}]", per_op_time, types=SIZE)
    record_bench(f"plan_apply_plan[{SIZE}x{PLAN_OPS}]", planned_time, types=SIZE)
    lines = [
        "plan application: per-op apply vs apply_plan",
        f"mode: {'smoke' if SMOKE else 'full'}; {SIZE} types, "
        f"{len(plan)}-op plan",
        "",
        f"per-op apply (validate/op):  {per_op_time * 1e3:9.3f}ms",
        f"apply_plan (validate once):  {planned_time * 1e3:9.3f}ms",
        f"speedup:                     {speedup:9.2f}x "
        "(floor at 200 types / 100 ops: parity, >= 0.9x)",
    ]
    report("plan_apply_plan_vs_per_op", "\n".join(lines))
    # Parity guard: apply_plan no longer wins at 200 types, but it must
    # never *lose* to per-op application either (its remaining value is
    # one analysis pass, normalization, and a single validation).
    floor = 0.9 if STRICT else 0.75
    assert speedup >= floor, (
        f"apply_plan at {SIZE} types / {len(plan)} ops fell to "
        f"{speedup:.2f}x of per-op application (floor {floor:.2f}x)"
    )


def test_bench_plan_analyzer_overhead(report, record_bench):
    """Static analysis cost as a fraction of actually applying the plan."""
    schema, plan = _workload()

    analyze_time = _median_time(
        lambda: analyze_plan(plan, schema), repeats=REPEATS
    )

    def per_op():
        workspace = Workspace(schema, "overhead_per_op")
        for operation in plan:
            workspace.apply(operation)

    per_op_time = _median_time(per_op, repeats=REPEATS)
    fraction = analyze_time / per_op_time if per_op_time else 0.0

    record_bench(
        f"plan_analyze[{SIZE}x{PLAN_OPS}]", analyze_time, types=SIZE
    )
    record_bench("plan_analyze_fraction", fraction)
    lines = [
        "static plan analysis vs applying the plan",
        f"mode: {'smoke' if SMOKE else 'full'}; {SIZE} types, "
        f"{len(plan)}-op plan",
        "",
        f"analyze_plan: {analyze_time * 1e3:9.3f}ms",
        f"per-op apply: {per_op_time * 1e3:9.3f}ms",
        f"fraction:     {fraction * 100:9.2f}%",
    ]
    report("plan_analyzer_overhead", "\n".join(lines))
    # Pre-flight must stay much cheaper than running the plan.
    assert fraction <= 0.5, (
        f"analyze_plan costs {fraction * 100:.0f}% of applying the plan"
    )
