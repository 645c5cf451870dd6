"""Compact-representation scaling curve (ISSUE 6).

PR 6 restructures the hot model layer for 10k+ type schemas: interned
names, ``__slots__`` on the per-instance hot classes, incremental
(record-folded) ISA / reverse-reference adjacency in the index, and the
fused compiled-plan path (:meth:`Workspace.apply_plan_compiled`) that
decomposes, applies, and validates a whole normalized plan in a single
pass.  This bench records the types-axis curve the ISSUE asks for --
the same 100-op seeded plan applied at 200 / 1 000 / 10 000 types --
for both ``apply_plan`` (with designer feedback) and the compiled path, and
writes it to ``BENCH_PR6.json`` at the repository root.

Floor (enforced only at full scale): decompose + validate + apply of a
100-op plan on the 10 000-type schema in under 100 ms median on the
compiled path.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path

from benchmarks.conftest import merge_bench_results
from repro.repository.workspace import Workspace
from repro.workload.generator import (
    WorkloadSpec,
    generate_operations,
    generate_schema,
)

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
#: the ISSUE floor is enforced only at full scale
STRICT = not SMOKE
SIZES = (60, 200) if SMOKE else (200, 1_000, 10_000)
PLAN_OPS = 20 if SMOKE else 100
REPEATS = 3 if SMOKE else 5
FLOOR_SECONDS = 0.100

BENCH_PR6_JSON = Path(__file__).parent.parent / "BENCH_PR6.json"


def _subject(size: int) -> tuple[Workspace, list]:
    spec = WorkloadSpec(
        types=size,
        seed=42,
        isa_fraction=0.45,
        part_of_chain=min(100, max(4, size // 4)),
        instance_of_chain=min(50, max(3, size // 8)),
    )
    schema = generate_schema(spec)
    operations = list(generate_operations(schema, PLAN_OPS, seed=11))
    return Workspace(schema), operations


def _median_plan_time(apply_once, undo_all) -> float:
    """Median seconds of *apply_once*; state restored between reps."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        entries = apply_once()
        times.append(time.perf_counter() - start)
        undo_all(entries)
    return statistics.median(times)


def test_bench_compact_plan_scaling(report, record_bench):
    """200 / 1k / 10k curve: ``apply_plan`` vs the compiled path."""
    rows = []
    results: dict[str, dict] = {}
    for size in SIZES:
        workspace, operations = _subject(size)

        def undo_all(entries) -> None:
            for _ in range(len(entries)):
                workspace.undo_last()

        compiled = _median_plan_time(
            lambda: workspace.apply_plan_compiled(list(operations)),
            undo_all,
        )
        batched = _median_plan_time(
            lambda: workspace.apply_plan(list(operations)),
            undo_all,
        )
        rows.append((size, len(operations), batched, compiled))
        results[f"compact_plan_batched[{size}]"] = {
            "median_seconds": batched,
            "types": size,
            "plan_ops": len(operations),
        }
        results[f"compact_plan_compiled[{size}]"] = {
            "median_seconds": compiled,
            "types": size,
            "plan_ops": len(operations),
        }
        record_bench(f"compact_plan_compiled[{size}]", compiled, types=size)

    lines = [
        f"{'types':>7}  {'ops':>4}  {'batched':>10}  {'compiled':>10}  {'speedup':>8}"
    ]
    for size, ops, batched, compiled in rows:
        speedup = batched / compiled if compiled else float("inf")
        lines.append(
            f"{size:>7}  {ops:>4}  {batched * 1000:>8.1f}ms  "
            f"{compiled * 1000:>8.1f}ms  {speedup:>7.1f}x"
        )
    report("compact_plan_scaling", "\n".join(lines))

    if not SMOKE:
        # The smoke tripwire must not clobber the full-scale curve.
        merge_bench_results(results, path=BENCH_PR6_JSON)

    if STRICT:
        largest = rows[-1]
        assert largest[0] == 10_000
        assert largest[3] < FLOOR_SECONDS, (
            f"compiled 100-op plan at 10k types took "
            f"{largest[3] * 1000:.1f}ms median (floor {FLOOR_SECONDS * 1000:.0f}ms)"
        )
