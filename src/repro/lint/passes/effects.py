"""Effects pass: every op class declares the aspects its apply mutates.

Run with ``python -m repro.lint --pass effects``; the tests drive
:func:`check_operation_class` / :func:`reachable_mutators` directly.

The static plan analyzer (``repro.analysis.plan``) trusts each
operation class's declared effect signature, which is built from
``touched_aspects``.  An op whose ``apply`` (or the undo closure it
returns, or a helper it calls) reaches a spine mutator for an aspect
the class does not declare would make the analyzer's conflict graph --
and therefore plan normalization -- unsound.

For every concrete class in :data:`repro.ops.registry.OPERATION_CLASSES`
the pass traces the mutator attribute calls transitively reachable from
``apply`` (through same-class methods resolved over the MRO and
module-level helpers resolved through each function's globals; nested
``undo`` closures are walked with their enclosing function) and asserts
the class's ``touched_aspects`` covers the aspect of every mutator
found.  Interface-level mutators (``add_interface`` & co.) require
``Aspect.MEMBERSHIP``.  Relationship mutators resolve to the class's
``kind`` when it has one, otherwise to all three relationship aspects.

Unlike the purely syntactic passes, ground truth here is *runtime*: the
registry tuple, ``touched_aspects``, ``kind``, and the MRO come from the
imported classes (so ad-hoc subclasses, e.g. in tests, trace correctly),
while function bodies are parsed from their sources.  The
:mod:`repro.lint.passes.instance_impact` pass reuses this tracer.
"""

from __future__ import annotations

import ast
import inspect
import textwrap

from repro.lint.findings import Finding
from repro.lint.registry import LintContext, register_pass
from repro.model.mutation import Aspect, aspect_for_kind
from repro.ops.registry import OPERATION_CLASSES

_REL_ASPECTS = frozenset({
    Aspect.REL_ASSOCIATION,
    Aspect.REL_PART_OF,
    Aspect.REL_INSTANCE_OF,
})

#: mutator method name -> aspects it can dirty.  ``None`` marks the
#: relationship family, resolved per-class via its ``kind`` attribute.
MUTATOR_ASPECTS: dict[str, frozenset[Aspect] | None] = {
    "add_supertype": frozenset({Aspect.ISA}),
    "remove_supertype": frozenset({Aspect.ISA}),
    "set_supertypes": frozenset({Aspect.ISA}),
    "set_extent": frozenset({Aspect.EXTENT}),
    "add_key": frozenset({Aspect.KEYS}),
    "remove_key": frozenset({Aspect.KEYS}),
    "insert_key": frozenset({Aspect.KEYS}),
    "replace_key_at": frozenset({Aspect.KEYS}),
    "add_attribute": frozenset({Aspect.ATTRS}),
    "remove_attribute": frozenset({Aspect.ATTRS}),
    "replace_attribute": frozenset({Aspect.ATTRS}),
    "reorder_attributes": frozenset({Aspect.ATTRS}),
    "add_operation": frozenset({Aspect.OPS}),
    "remove_operation": frozenset({Aspect.OPS}),
    "replace_operation": frozenset({Aspect.OPS}),
    "reorder_operations": frozenset({Aspect.OPS}),
    "add_relationship": None,
    "remove_relationship": None,
    "replace_relationship": None,
    "add_interface": frozenset({Aspect.MEMBERSHIP}),
    "remove_interface": frozenset({Aspect.MEMBERSHIP}),
    "reorder_interfaces": frozenset({Aspect.MEMBERSHIP}),
}


def _parse_function(func) -> ast.FunctionDef | None:
    """The (dedented) AST of a plain python function, or ``None``."""
    try:
        source = textwrap.dedent(inspect.getsource(func))
    except (OSError, TypeError):
        return None
    try:
        node = ast.parse(source).body[0]
    except SyntaxError:
        return None
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return node
    return None


def _callees(tree: ast.FunctionDef) -> tuple[set[str], set[str], set[str]]:
    """(mutator attrs, ``self.`` method names, bare-name calls) in *tree*."""
    mutators: set[str] = set()
    self_calls: set[str] = set()
    name_calls: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            is_self = (
                isinstance(func.value, ast.Name) and func.value.id == "self"
            )
            if is_self:
                self_calls.add(func.attr)
            elif func.attr in MUTATOR_ASPECTS:
                mutators.add(func.attr)
        elif isinstance(func, ast.Name):
            name_calls.add(func.id)
    return mutators, self_calls, name_calls


def reachable_mutators(klass) -> set[str]:
    """Mutator names transitively reachable from ``klass.apply``."""
    found: set[str] = set()
    seen: set[object] = set()
    queue = [getattr(klass, "apply", None)]
    while queue:
        func = queue.pop()
        if func is None:
            continue
        raw = inspect.unwrap(func)
        if raw in seen:
            continue
        seen.add(raw)
        tree = _parse_function(raw)
        if tree is None:
            continue
        mutators, self_calls, name_calls = _callees(tree)
        found |= mutators
        for name in self_calls:
            queue.append(getattr(klass, name, None))
        module_globals = getattr(raw, "__globals__", {})
        for name in name_calls:
            target = module_globals.get(name)
            if inspect.isfunction(target):
                queue.append(target)
    return found


def required_aspects(klass) -> dict[str, frozenset[Aspect]]:
    """mutator name -> aspects ``klass`` must declare for reaching it."""
    required: dict[str, frozenset[Aspect]] = {}
    kind = getattr(klass, "kind", None)
    for name in sorted(reachable_mutators(klass)):
        aspects = MUTATOR_ASPECTS[name]
        if aspects is None:
            aspects = (
                frozenset({aspect_for_kind(kind)})
                if kind is not None
                else _REL_ASPECTS
            )
        required[name] = aspects
    return required


def check_operation_class(klass) -> list[str]:
    """Every way ``klass`` under-declares its effects (empty == clean)."""
    declared = frozenset(getattr(klass, "touched_aspects", frozenset()))
    failures: list[str] = []
    for name, aspects in required_aspects(klass).items():
        missing = aspects - declared
        if missing:
            labels = ", ".join(sorted(aspect.value for aspect in missing))
            failures.append(
                f"{klass.__module__}.{klass.__name__}: apply reaches "
                f"{name}() but touched_aspects lacks {{{labels}}}"
            )
    return failures


def _klass_anchor(klass) -> tuple[str, int]:
    """(file, line) of a class, best effort."""
    try:
        path = inspect.getsourcefile(klass) or klass.__module__
        _, line = inspect.getsourcelines(klass)
    except (OSError, TypeError):
        return klass.__module__, 1
    return path, line


def effect_findings() -> list[Finding]:
    findings: list[Finding] = []
    for klass in OPERATION_CLASSES:
        for message in check_operation_class(klass):
            path, line = _klass_anchor(klass)
            findings.append(
                Finding(
                    rule="effect-declaration",
                    path=path,
                    line=line,
                    symbol=f"{klass.__module__}:{klass.__name__}",
                    message=message.split(": ", 1)[-1],
                )
            )
    return findings


@register_pass(
    "effects",
    rules=("effect-declaration",),
    contract=(
        "touched_aspects covers every spine mutator reachable from each "
        "registered op's apply (plan-analyzer conflict graph soundness)"
    ),
)
def run(context: LintContext) -> list[Finding]:
    return effect_findings()
