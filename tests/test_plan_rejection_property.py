"""Property test: every plan-application path rejects plans identically.

For randomly generated *rejected* plans, ``apply_plan``,
``apply_plan_compiled``, and naive per-op application must agree:

* both plan paths raise :class:`PlanPreflightError` with the same
  diagnostics (same indices, codes, and messages);
* a rejected plan leaves the schema fingerprint, the op log, and the
  redo stack exactly as they were (atomicity);
* every pre-flight diagnostic reproduces as a real dynamic failure when
  the plan runs per-op with skip-on-failure semantics.

Plans are derived from the deterministic workload generator with a
hypothesis-chosen seed, then broken two ways: dropping one op (later
ops lose the names it created) and injecting an op against a type that
does not exist.  Plans the analyzer still considers clean are discarded
(`hypothesis` ``assume``) -- the property quantifies over rejected ones.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, assume, given, settings

import pytest

from repro.analysis.plan import PlanPreflightError, analyze_plan
from repro.model.errors import SchemaError
from repro.model.fingerprint import schema_fingerprint
from repro.ops.base import OperationError
from repro.ops.language import parse_operation
from repro.repository.workspace import Workspace
from repro.workload.generator import (
    WorkloadSpec,
    generate_operations,
    generate_schema,
)

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _rejected_plan(seed: int, style: int):
    """A (schema, plan) pair whose plan draws pre-flight diagnostics."""
    schema = generate_schema(WorkloadSpec(types=10 + seed % 6, seed=seed))
    try:
        plan = generate_operations(schema, 5, seed=seed)
    except RuntimeError:
        return schema, []
    if style % 2 == 0 and len(plan) >= 2:
        del plan[seed % len(plan)]  # orphan later ops' name dependencies
    else:
        plan.insert(
            seed % (len(plan) + 1),
            parse_operation(f"add_attribute(Ghost{seed:04d}, long, x)"),
        )
    return schema, plan


def _diagnostic_tuples(error: PlanPreflightError):
    return [
        (diagnostic.index, diagnostic.code, diagnostic.message)
        for diagnostic in error.diagnostics
    ]


@given(seed=st.integers(0, 5000), style=st.integers(0, 3))
@_SETTINGS
def test_batched_paths_reject_identically_and_atomically(seed, style):
    schema, plan = _rejected_plan(seed, style)
    assume(plan)
    assume(analyze_plan(plan, schema, normalize=False).diagnostics)

    batched = Workspace(schema, "batched", validate_each_step=False)
    compiled = Workspace(schema, "compiled", validate_each_step=False)
    before = schema_fingerprint(schema)

    with pytest.raises(PlanPreflightError) as batched_error:
        batched.apply_plan(plan, normalize=False)
    with pytest.raises(PlanPreflightError) as compiled_error:
        compiled.apply_plan_compiled(plan, normalize=False)

    assert _diagnostic_tuples(batched_error.value) == _diagnostic_tuples(
        compiled_error.value
    )
    for workspace in (batched, compiled):
        assert schema_fingerprint(workspace.schema) == before
        assert workspace.log == []
        assert workspace.redo_depth == 0


@given(seed=st.integers(0, 5000), style=st.integers(0, 3))
@_SETTINGS
def test_diagnostics_reproduce_as_dynamic_failures(seed, style):
    schema, plan = _rejected_plan(seed, style)
    assume(plan)
    verdict = analyze_plan(plan, schema, normalize=False)
    assume(verdict.diagnostics)

    replay = Workspace(schema, "replay", validate_each_step=False)
    failed: set[int] = set()
    for index, operation in enumerate(plan):
        try:
            replay.apply(operation)
        except (OperationError, SchemaError):
            failed.add(index)
    for diagnostic in verdict.diagnostics:
        assert diagnostic.index in failed, (
            f"diagnostic did not reproduce dynamically: {diagnostic}"
        )


@given(seed=st.integers(0, 5000))
@_SETTINGS
def test_repeated_rejection_is_stable(seed):
    """Rejecting the same plan twice gives byte-identical diagnostics
    (the second run exercises the analysis memo)."""
    schema, plan = _rejected_plan(seed, 1)
    assume(plan)
    assume(analyze_plan(plan, schema, normalize=False).diagnostics)
    workspace = Workspace(schema, "memo", validate_each_step=False)
    outcomes = []
    for _ in range(2):
        with pytest.raises(PlanPreflightError) as error:
            workspace.apply_plan(plan, normalize=False)
        outcomes.append(_diagnostic_tuples(error.value))
    assert outcomes[0] == outcomes[1]
    assert workspace.schema.stats()["analysis.hits"] >= 1
