"""Tests for the spine-emission / CoW-barrier / compiled-plan checks.

The checks live in :mod:`repro.lint.passes.spine`; these tests drive
them over in-memory fixture snippets that must pass and must fail --
missing ``_emit``, ``_cow_barrier`` not the first statement, an apply
helper writing a container directly, and an ``apply`` that runs its
steps itself instead of through ``expand_applying`` -- plus
``python -m repro.lint --pass spine`` on the real tree.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.lint.loader import Codebase
from repro.lint.passes.spine import (
    compiled_plan_findings,
    cow_findings,
    emission_findings,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


GOOD_CLASS = '''
class Model:
    def add_thing(self, thing):
        self._cow_barrier()
        self.things.append(thing)
        self._emit("add_thing", (), {})

    def remove_thing(self, thing):
        self._cow_barrier()
        self._drop(thing)

    def _drop(self, thing):
        self.things.remove(thing)
        self._log.emit("remove_thing", (), {})

    def _cow_barrier(self):
        pass

    def lookup(self, name):
        return self.things[name]
'''

SILENT_CLASS = '''
class Model:
    def add_thing(self, thing):
        self._cow_barrier()
        self.things.append(thing)
        self._emit("add_thing", (), {})

    def set_label(self, label):
        self._cow_barrier()
        self.label = label  # no emit anywhere on this path

    def _cow_barrier(self):
        pass
'''

LATE_BARRIER_CLASS = '''
class Model:
    def add_thing(self, thing):
        self._cow_barrier()
        self._emit("add_thing", (), {})

    def set_label(self, label):
        """Docstring is allowed before the barrier, code is not."""
        self.label = label
        self._cow_barrier()
        self._emit("set_label", (), {})
'''

#: The three other apply entries every fixture Workspace shares; they
#: run through the pipeline, so only the entry under test can fail.
PIPELINE_ENTRIES = '''
    def apply(self, operation):
        return self._run([operation])

    def apply_composite(self, composite):
        return self._run(composite.plan)

    def apply_plan(self, plan):
        return self._run(plan)

    def _run(self, plan):
        for step_plan in self.expand_applying(plan):
            self._note_scopes(step_plan)

    def _note_scopes(self, step_plan):
        self.notes.extend(step_plan.scopes)

    def expand_applying(self, plan):
        yield plan
'''

GOOD_WORKSPACE = '''
class Workspace:
    def apply_plan_compiled(self, plan):
        return self._run(plan)
''' + PIPELINE_ENTRIES

DIRTY_WORKSPACE = '''
class Workspace:
    def apply_plan_compiled(self, plan):
        for step_plan in self.expand_applying(plan):
            self._note_scopes(step_plan)
            self._shortcut(step_plan)

    def _shortcut(self, step_plan):
        self.schema.interfaces[step_plan.name] = step_plan.interface
''' + PIPELINE_ENTRIES

MISSING_CALLS_WORKSPACE = '''
class Workspace:
    def apply_plan_compiled(self, plan):
        for step in plan.steps:
            step.apply(self.schema)
'''

#: ``apply`` as it was before the one pipeline: expand on a scratch
#: copy, then run each step itself -- every other entry is clean.
DIRECT_APPLY_WORKSPACE = '''
class Workspace:
    def apply_plan_compiled(self, plan):
        return self._run(plan)

    def apply(self, operation):
        plan = expand(self.schema, operation, self.context)
        for step in plan:
            step.apply(self.schema, self.context)
        self._note_scopes(plan)

    def apply_composite(self, composite):
        return self._run(composite.plan)

    def apply_plan(self, plan):
        return self._run(plan)

    def _run(self, plan):
        for step_plan in self.expand_applying(plan):
            self._note_scopes(step_plan)

    def _note_scopes(self, step_plan):
        self.notes.extend(step_plan.scopes)

    def expand_applying(self, plan):
        yield plan
'''


def _codebase(source: str) -> Codebase:
    return Codebase.from_sources({"fixture": source})


def test_emitting_mutators_pass():
    assert emission_findings(_codebase(GOOD_CLASS), "fixture", "Model") == []


def test_missing_emit_is_caught_with_anchor():
    findings = emission_findings(_codebase(SILENT_CLASS), "fixture", "Model")
    assert len(findings) == 1
    finding = findings[0]
    assert finding.rule == "spine-emission"
    assert finding.symbol == "fixture:Model.set_label"
    # line 8 of the snippet: the def of set_label
    assert finding.line == SILENT_CLASS.splitlines().index(
        "    def set_label(self, label):"
    ) + 1


def test_emit_through_private_helper_counts():
    """remove_thing emits only via self._drop -> self._log.emit."""
    findings = emission_findings(_codebase(GOOD_CLASS), "fixture", "Model")
    assert all(f.symbol != "fixture:Model.remove_thing" for f in findings)


def test_cow_barrier_first_statement_passes():
    assert cow_findings(_codebase(GOOD_CLASS), "fixture", "Model") == []


def test_cow_barrier_not_first_is_caught():
    findings = cow_findings(_codebase(LATE_BARRIER_CLASS), "fixture", "Model")
    assert [f.symbol for f in findings] == ["fixture:Model.set_label"]
    assert findings[0].rule == "cow-barrier"
    assert "first" in findings[0].message


def test_compiled_plan_clean_workspace_passes():
    assert (
        compiled_plan_findings(_codebase(GOOD_WORKSPACE), "fixture") == []
    )


def test_compiled_plan_container_write_is_caught():
    findings = compiled_plan_findings(_codebase(DIRTY_WORKSPACE), "fixture")
    assert len(findings) == 1
    finding = findings[0]
    assert finding.rule == "compiled-plan"
    assert finding.symbol == "fixture:Workspace._shortcut"
    assert "subscript" in finding.message
    expected_line = DIRTY_WORKSPACE.splitlines().index(
        "        self.schema.interfaces[step_plan.name] = step_plan.interface"
    ) + 1
    assert finding.line == expected_line


def test_compiled_plan_missing_required_calls_is_caught():
    findings = compiled_plan_findings(
        _codebase(MISSING_CALLS_WORKSPACE), "fixture"
    )
    messages = " ".join(f.message for f in findings)
    assert "expand_applying" in messages
    assert "_note_scopes" in messages
    # the other three entries are missing altogether
    assert {
        f.symbol for f in findings if f.message.endswith("not found")
    } == {
        "fixture:Workspace.apply",
        "fixture:Workspace.apply_composite",
        "fixture:Workspace.apply_plan",
    }


def test_apply_running_steps_itself_is_caught():
    findings = compiled_plan_findings(
        _codebase(DIRECT_APPLY_WORKSPACE), "fixture"
    )
    assert {f.symbol for f in findings} == {"fixture:Workspace.apply"}
    messages = [f.message for f in findings]
    assert any("step.apply directly" in m for m in messages)
    assert any("never reaches expand_applying" in m for m in messages)
    direct = next(f for f in findings if "directly" in f.message)
    assert direct.rule == "compiled-plan"
    assert direct.line == DIRECT_APPLY_WORKSPACE.splitlines().index(
        "            step.apply(self.schema, self.context)"
    ) + 1


def test_real_tree_is_clean():
    codebase = Codebase.load()
    assert emission_findings(codebase, "repro.model.interface", "InterfaceDef") == []
    assert emission_findings(codebase, "repro.model.schema", "Schema") == []
    assert cow_findings(codebase, "repro.model.interface", "InterfaceDef") == []
    assert compiled_plan_findings(codebase) == []


def test_spine_cli_passes_on_current_tree():
    result = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--pass", "spine"],
        capture_output=True, text=True, cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "repro.lint: 0 error(s)" in result.stdout
    # baseline entries of passes that did not run are not stale
    assert "0 stale" in result.stdout
