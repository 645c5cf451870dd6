"""Fast self-test of the benchmark itself, at about 1k types.

    python3 perfbench/selftest.py

Checks that every workload runs end to end untraced and traced, that
the printed metric names are exactly those of BENCHMARK.json, that the
traced self times plus the unwrapped remainder add up to the traced
end-to-end time, and that every correctness gate fires when its
expected value is wrong or the program misbehaves.  Exits non-zero on
the first failed check.  Takes about a minute.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.run import ROOT, bootstrap  # noqa: E402

SEED = 3
WRONG = "0" * 64


def small_workloads():
    from perfbench.workloads import WORKLOADS

    return [
        replace(WORKLOADS["designer_5k"], types=1000, stream=200),
        replace(WORKLOADS["bulk_50k"], types=1000, stream=300,
                branch_every=3),
    ]


@contextlib.contextmanager
def patched(owner, attribute, value):
    original = getattr(owner, attribute)
    setattr(owner, attribute, value)
    try:
        yield
    finally:
        setattr(owner, attribute, original)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def run_clean(workload, declared: dict) -> None:
    from perfbench.run import measure

    meta, result = measure(workload, SEED, 0)
    check(result["correct"] and result["failed"] == 0,
          f"{workload.name}: untraced run passes its gates")
    metrics = result["metrics"]
    check(list(metrics) == declared["end_to_end"],
          f"{workload.name}: end-to-end names match BENCHMARK.json")
    check(all(value["value"] > 0 for value in metrics.values()),
          f"{workload.name}: every end-to-end metric is positive")

    # The second run repeats the seed, so it also checks the counts.
    meta, result = measure(workload, SEED, 1)
    check(result["correct"], f"{workload.name}: traced run passes its gates")
    metrics = result["metrics"]
    check(list(metrics) == declared["per_layer"],
          f"{workload.name}: per-layer names match BENCHMARK.json")
    self_total = sum(value["value"] for name, value in metrics.items()
                     if name.endswith(".self_ms"))
    unwrapped = metrics["trace.unwrapped_self_ms"]["value"]
    traced = metrics["trace.traced_ms"]["value"]
    check(math.isclose(self_total + unwrapped, traced, rel_tol=1e-9),
          f"{workload.name}: self times + unwrapped = traced time "
          f"({self_total:.1f} + {unwrapped:.1f} = {traced:.1f} ms)")


def run_broken(workload, label: str, digests: dict | None = None,
               patch: tuple | None = None) -> dict:
    """One run with a wrong expectation or a misbehaving program."""
    import perfbench.inputs as inputs_module
    from perfbench.run import measure

    load = inputs_module.load_inputs

    def corrupted(*args):
        inputs = load(*args)
        inputs.update(digests or {})
        return inputs

    with contextlib.ExitStack() as stack:
        stack.enter_context(patched(inputs_module, "load_inputs", corrupted))
        if patch is not None:
            stack.enter_context(patched(*patch))
        meta, result = measure(workload, SEED, 0)
    check(not result["correct"] and "error" in meta,
          f"{workload.name}: gate fires on {label} ({meta.get('error', '')[:60]})")
    return result


def failing_after(calls: int, method):
    """*method*, except that every call after the first *calls* raises."""
    from repro.model.errors import ReproError

    counter = itertools.count()

    def failing(*args, **kwargs):
        if next(counter) >= calls:
            raise ReproError("injected failure")
        return method(*args, **kwargs)

    return failing


def check_failed(workload, label: str, result: dict, failed: int) -> None:
    check(result["failed"] == failed
          and result["attempted"] > result["failed"],
          f"{workload.name}: {label} counts as failed "
          f"({result['failed']} of {result['attempted']} operations)")


def main() -> int:
    if not bootstrap():
        return 2
    import perfbench.run as run_module
    from repro.model import validation
    from repro.model.interface import InterfaceDef
    from repro.model.columnar import ColumnarAdjacency
    from repro.repository import persistence
    from repro.repository.workspace import Workspace

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        "end_to_end": [metric["name"] for metric in benchmark["end_to_end"]],
        "per_layer": [metric["name"] for metric in benchmark["per_layer"]],
    }
    from perfbench.layers import per_layer_metrics

    check([m["name"] for m in per_layer_metrics()] == declared["per_layer"],
          "perfbench.layers declares BENCHMARK.json's per-layer metrics")

    designer, bulk = small_workloads()
    for workload in (designer, bulk):
        run_clean(workload, declared)

    def extra_issue(schema, raise_on_error=False):
        return [*reference_validate(schema), validation.Issue(
            "injected", validation.SEVERITY_ERROR, "X", "injected")]

    reference_validate = validation.validate_schema
    original_redo = Workspace.redo
    drift = itertools.count()

    def drifting_redo(self):
        # Redoes, then adds one isolated interface: later operations
        # still apply, only the fingerprint comparison can notice.
        entry = original_redo(self)
        self.schema.add_interface(InterfaceDef(f"SelftestDrift{next(drift)}"))
        return entry

    original_to_dict = persistence.repository_to_dict

    def lossy_to_dict(repository):
        data = original_to_dict(repository)
        data["operations"] = data["operations"][:-1]
        return data

    for workload in (designer, bulk):
        run_broken(workload, "a wrong golden fingerprint",
                   {"golden_digest": WRONG})
        run_broken(workload, "validate_schema disagreeing with issues",
                   patch=(validation, "validate_schema", extra_issue))
        run_broken(workload, "a wrong shrink wrap fingerprint",
                   {"schema_digest": WRONG})
    run_broken(designer, "a redo that does not restore the schema",
               patch=(Workspace, "redo", drifting_redo))
    run_broken(designer, "a save that drops an operation",
               patch=(persistence, "repository_to_dict", lossy_to_dict))
    run_broken(bulk, "a columnar integrity problem",
               patch=(ColumnarAdjacency, "check_integrity",
                      lambda self: ["injected"]))

    # A rejected operation stops the run; the result still reports what
    # was attempted and how much of it failed.
    import perfbench.sessions as sessions_module

    result = run_broken(designer, "a rejected edit",
                        patch=(Workspace, "apply",
                               failing_after(150, Workspace.apply)))
    check_failed(designer, "a rejected edit", result, 1)
    result = run_broken(bulk, "a rejected plan",
                        patch=(Workspace, "apply_plan_compiled",
                               failing_after(1, Workspace.apply_plan_compiled)))
    check_failed(bulk, "a rejected plan", result, bulk.plan)
    result = run_broken(designer, "a rejected branch edit",
                        patch=(sessions_module, "_branch",
                               failing_after(0, sessions_module._branch)))
    check_failed(designer, "a rejected branch edit", result, 1)

    def wrong_record(workload, stream_seed, code, counts):
        return original_check(workload, stream_seed, code,
                              {**counts, "spine.records": -1})

    original_check = run_module.check_counts
    run_broken(designer, "counts that differ from an earlier run",
               patch=(run_module, "check_counts", wrong_record))
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
