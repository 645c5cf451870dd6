"""Spine pass: mutators emit, open with the CoW barrier, apply entries
mutate only through the one pipeline.

Run with ``python -m repro.lint --pass spine``; sourced from the shared
:class:`~repro.lint.loader.Codebase` load:

* ``spine-emission`` -- every public mutator method (``add_*`` /
  ``remove_*`` / ``replace_*`` / ``set_*`` / ``insert_*`` /
  ``reorder_*`` / ``touch*``) on :class:`InterfaceDef` / :class:`Schema`
  reaches ``self._emit(...)`` or ``self._log.emit(...)``, directly or
  through same-class methods (fixpoint over ``self.`` calls).
* ``cow-barrier`` -- every public ``InterfaceDef`` mutator runs
  ``self._cow_barrier()`` as its literal first statement (after the
  docstring), so borrowers settle before the first divergent write
  (DESIGN.md 5j).
* ``compiled-plan`` -- every public apply entry of ``Workspace``
  (``apply``, ``apply_composite``, ``apply_plan``,
  ``apply_plan_compiled``) reaches ``expand_applying`` and
  ``self._note_scopes``, and no ``Workspace`` method reachable from one
  calls a mutator-prefixed method, calls another object's ``apply``,
  or writes a container by subscript (DESIGN.md 5g).  The rule id
  predates the widening from the compiled path to every entry and is
  kept stable.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding
from repro.lint.loader import Codebase
from repro.lint.registry import LintContext, register_pass

MUTATOR_PREFIXES = (
    "add_",
    "remove_",
    "replace_",
    "set_",
    "insert_",
    "reorder_",
    "touch",
)

#: module -> class whose public mutators must emit spine records
EMISSION_TARGETS = {
    "repro.model.interface": "InterfaceDef",
    "repro.model.schema": "Schema",
}

#: module -> class whose public mutators must run the CoW fault hook first
COW_BARRIER_TARGETS = {"repro.model.interface": "InterfaceDef"}

APPLY_MODULE = "repro.repository.workspace"
APPLY_CLASS = "Workspace"
#: the public entries that must all run through the one apply pipeline
APPLY_ENTRIES = ("apply", "apply_composite", "apply_plan", "apply_plan_compiled")


def is_public_mutator(name: str) -> bool:
    return not name.startswith("_") and name.startswith(MUTATOR_PREFIXES)


def _is_emit_call(node: ast.Call) -> bool:
    """True for ``self._emit(...)`` or ``self._log.emit(...)``."""
    func = node.func
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr == "_emit":
        return isinstance(func.value, ast.Name) and func.value.id == "self"
    if func.attr == "emit":
        inner = func.value
        return (
            isinstance(inner, ast.Attribute)
            and inner.attr == "_log"
            and isinstance(inner.value, ast.Name)
            and inner.value.id == "self"
        )
    return False


def _self_calls(function: ast.FunctionDef) -> set[str]:
    """Names of other ``self.method(...)`` calls inside *function*."""
    names: set[str] = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            target = node.func
            if isinstance(target.value, ast.Name) and target.value.id == "self":
                names.add(target.attr)
    return names


def _own_methods(
    codebase: Codebase, module_name: str, class_name: str
) -> dict[str, ast.FunctionDef]:
    node = codebase.class_in(module_name, class_name)
    if node is None:
        raise LookupError(f"class {class_name} not found in {module_name}")
    return {
        item.name: item for item in node.body if isinstance(item, ast.FunctionDef)
    }


def _emitting_methods(methods: dict[str, ast.FunctionDef]) -> set[str]:
    """Fixpoint: methods that reach an emit call through ``self.``."""
    emitting = {
        name
        for name, function in methods.items()
        if any(
            isinstance(node, ast.Call) and _is_emit_call(node)
            for node in ast.walk(function)
        )
    }
    changed = True
    while changed:
        changed = False
        for name, function in methods.items():
            if name in emitting:
                continue
            if _self_calls(function) & emitting:
                emitting.add(name)
                changed = True
    return emitting


def _reachable_methods(
    methods: dict[str, ast.FunctionDef], entry: str
) -> dict[str, ast.FunctionDef]:
    """*entry* plus every same-class method reachable via ``self.``."""
    frontier = [entry]
    reached: dict[str, ast.FunctionDef] = {}
    while frontier:
        name = frontier.pop()
        if name in reached or name not in methods:
            continue
        reached[name] = methods[name]
        frontier.extend(_self_calls(methods[name]))
    return reached


def _call_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _starts_with_cow_barrier(function: ast.FunctionDef) -> bool:
    """True when ``self._cow_barrier()`` is the first real statement."""
    body = function.body
    index = 0
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        index = 1  # skip the docstring
    if index >= len(body):
        return False
    statement = body[index]
    return (
        isinstance(statement, ast.Expr)
        and isinstance(statement.value, ast.Call)
        and isinstance(statement.value.func, ast.Attribute)
        and statement.value.func.attr == "_cow_barrier"
        and isinstance(statement.value.func.value, ast.Name)
        and statement.value.func.value.id == "self"
    )


def _path_of(codebase: Codebase, module_name: str) -> str:
    info = codebase.module(module_name)
    return info.path if info is not None else module_name


def emission_findings(
    codebase: Codebase, module_name: str, class_name: str
) -> list[Finding]:
    """Public mutators of one class that never reach an emit call."""
    methods = _own_methods(codebase, module_name, class_name)
    emitting = _emitting_methods(methods)
    path = _path_of(codebase, module_name)
    findings: list[Finding] = []
    for name in sorted(methods):
        if not is_public_mutator(name):
            continue
        if name not in emitting:
            findings.append(
                Finding(
                    rule="spine-emission",
                    path=path,
                    line=methods[name].lineno,
                    symbol=f"{module_name}:{class_name}.{name}",
                    message=(
                        "mutates without emitting a MutationRecord "
                        "(self._emit / self._log.emit unreachable)"
                    ),
                )
            )
    return findings


def count_public_mutators(
    codebase: Codebase, module_name: str, class_name: str
) -> int:
    methods = _own_methods(codebase, module_name, class_name)
    return sum(1 for name in methods if is_public_mutator(name))


def cow_findings(
    codebase: Codebase, module_name: str, class_name: str
) -> list[Finding]:
    """Public mutators that do not fault CoW borrowers first.

    The barrier must be the *first* statement: a mutator that validates,
    raises, or -- worse -- writes before settling would let a fork or
    snapshot observe (or miss) a half-applied change.
    """
    methods = _own_methods(codebase, module_name, class_name)
    path = _path_of(codebase, module_name)
    findings: list[Finding] = []
    for name in sorted(methods):
        if not is_public_mutator(name):
            continue
        if not _starts_with_cow_barrier(methods[name]):
            findings.append(
                Finding(
                    rule="cow-barrier",
                    path=path,
                    line=methods[name].lineno,
                    symbol=f"{module_name}:{class_name}.{name}",
                    message=(
                        "does not run self._cow_barrier() as its first "
                        "statement; the mutator bypasses the CoW fault hook"
                    ),
                )
            )
    return findings


def compiled_plan_findings(
    codebase: Codebase,
    module_name: str = APPLY_MODULE,
    class_name: str = APPLY_CLASS,
) -> list[Finding]:
    """Every apply entry mutates only through the one pipeline.

    Each entry must reach ``expand_applying`` (every mutation is a
    ``step.apply`` inside it, emitting the same records whichever entry
    ran) and ``self._note_scopes`` (the same per-step scope notes).
    Conversely, no method reachable from an entry may call a
    mutator-prefixed method, call some other object's ``apply``
    directly, or store/delete through a subscript.  A helper reached
    from several entries is reported once, under the first.
    """
    methods = _own_methods(codebase, module_name, class_name)
    path = _path_of(codebase, module_name)
    symbol_base = f"{module_name}:{class_name}"
    findings: list[Finding] = []

    def finding(line: int, name: str, message: str) -> Finding:
        return Finding(
            rule="compiled-plan", path=path, line=line,
            symbol=f"{symbol_base}.{name}", message=message,
        )

    checked: set[str] = set()
    for entry_name in APPLY_ENTRIES:
        if entry_name not in methods:
            findings.append(
                finding(1, entry_name, f"{class_name}.{entry_name} not found")
            )
            continue
        reached = _reachable_methods(methods, entry_name)
        called = {
            _call_name(node)
            for function in reached.values()
            for node in ast.walk(function)
            if isinstance(node, ast.Call)
        }
        for required in ("expand_applying", "_note_scopes"):
            if required not in called:
                findings.append(finding(
                    methods[entry_name].lineno, entry_name,
                    f"never reaches {required}; every apply entry must "
                    "mutate through expand_applying and note each step's "
                    "scope",
                ))
        for name, function in sorted(reached.items()):
            if name in checked:
                continue
            checked.add(name)
            where = f"(reachable from {entry_name})"
            for node in ast.walk(function):
                if isinstance(node, ast.Call):
                    target = _call_name(node)
                    if target is not None and target.startswith(MUTATOR_PREFIXES):
                        findings.append(finding(
                            node.lineno, name,
                            f"{where} calls mutator {target!r}; apply "
                            "entries must mutate only via expand_applying",
                        ))
                    if _is_foreign_apply(node):
                        receiver = ast.unparse(node.func.value)
                        findings.append(finding(
                            node.lineno, name,
                            f"{where} calls {receiver}.apply directly; "
                            "apply entries must mutate only via "
                            "expand_applying",
                        ))
                targets: list[ast.expr] = []
                if isinstance(node, ast.Assign):
                    targets = list(node.targets)
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                elif isinstance(node, ast.Delete):
                    targets = list(node.targets)
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        findings.append(finding(
                            node.lineno, name,
                            f"{where} writes a container by subscript; "
                            "apply entries must not mutate model state "
                            "outside expand_applying",
                        ))
    return findings


def _is_foreign_apply(call: ast.Call) -> bool:
    """True for ``x.apply(...)`` on anything but ``self``."""
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "apply"
        and not (isinstance(func.value, ast.Name) and func.value.id == "self")
    )


@register_pass(
    "spine",
    rules=("spine-emission", "cow-barrier", "compiled-plan"),
    contract=(
        "every public mutator emits a MutationRecord, InterfaceDef mutators "
        "open with the CoW barrier, and every Workspace apply entry mutates "
        "only via expand_applying + _note_scopes"
    ),
)
def run(context: LintContext) -> list[Finding]:
    findings: list[Finding] = []
    for module_name, class_name in EMISSION_TARGETS.items():
        findings.extend(emission_findings(context.codebase, module_name, class_name))
    for module_name, class_name in COW_BARRIER_TARGETS.items():
        findings.extend(cow_findings(context.codebase, module_name, class_name))
    findings.extend(compiled_plan_findings(context.codebase))
    return findings
