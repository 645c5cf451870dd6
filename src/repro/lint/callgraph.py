"""Transitive call-graph resolution over :class:`~repro.lint.loader.Codebase`.

One resolver serves every pass of ``python -m repro.lint``: same-class
method calls resolved over the (static) MRO, module-level helpers and
imported functions resolved through the import table, and nested
closures (undo lambdas, local ``def``\\ s) covered by walking the whole
function subtree.  Two further resolution channels cover what plain
same-class resolution misses:

* **annotation typing** -- ``def f(schema: Schema)`` makes
  ``schema.get(...)`` resolve to ``Schema.get``;
* **unique-name fallback** -- within a configured *method universe*
  (e.g. ``{"Schema", "InterfaceDef"}``), an attribute call whose name is
  defined by universe classes resolves to every defining class, a
  conservative over-approximation for untyped receivers.

Class instantiations are deliberately *not* descended: ``Schema(...)``
wires caches up in ``__post_init__``, and every pass here cares about
what code *queries*, not what it constructs.  Passes that need stricter
treatment collect the instantiated names separately.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.lint.loader import Codebase, ModuleInfo


@dataclass(frozen=True)
class FuncRef:
    """A resolved function or method: ``module`` + dotted ``qualname``."""

    module: str
    qualname: str  # "function" or "Class.method"
    node: ast.FunctionDef = field(compare=False, hash=False, repr=False)

    @property
    def class_name(self) -> str | None:
        if "." in self.qualname:
            return self.qualname.split(".", 1)[0]
        return None

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    @property
    def key(self) -> tuple[str, str]:
        return (self.module, self.qualname)


@dataclass(frozen=True)
class CallSite:
    """One call expression and everything it statically resolves to."""

    call: ast.Call = field(compare=False, hash=False, repr=False)
    name: str | None  #: bare callee name (Name id or Attribute attr)
    targets: tuple[FuncRef, ...]  #: resolved callees (empty if opaque)
    is_instantiation: bool = False


def iter_calls(node: ast.AST) -> Iterator[ast.Call]:
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            yield child


def call_name(call: ast.Call) -> str | None:
    """Bare name of a call target (``f(...)`` or ``x.f(...)`` -> ``f``)."""
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def attribute_reads(node: ast.AST) -> list[tuple[str, int]]:
    """Load-context attribute accesses, excluding method-call heads.

    ``interface.keys`` counts; ``interface.keys()`` and ``d.keys()`` do
    not -- the callee head is a method reference, not a field read.
    """
    call_heads = {
        id(child.func) for child in ast.walk(node) if isinstance(child, ast.Call)
    }
    reads: list[tuple[str, int]] = []
    for child in ast.walk(node):
        if (
            isinstance(child, ast.Attribute)
            and isinstance(child.ctx, ast.Load)
            and id(child) not in call_heads
        ):
            reads.append((child.attr, child.lineno))
    return reads


#: container methods that mutate their receiver in place
MUTATING_CONTAINER_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "sort",
        "reverse",
    }
)


def attribute_writes(
    node: ast.AST,
) -> list[tuple[ast.AST, ast.expr, str, str]]:
    """Every channel that stores through an attribute.

    Yields ``(stmt_node, receiver_expr, attr, channel)`` for:

    * ``x.attr = ...`` / ``x.attr += ...`` (channel ``"assign"``),
    * ``x.attr[k] = ...`` / ``del x.attr[k]`` (channel ``"subscript"``),
    * ``x.attr.append(...)`` etc. (channel ``"container-method"``),
    * ``del x.attr`` (channel ``"delete"``).
    """
    writes: list[tuple[ast.AST, ast.expr, str, str]] = []

    def record_target(stmt: ast.AST, target: ast.expr) -> None:
        if isinstance(target, ast.Attribute):
            channel = "delete" if isinstance(target.ctx, ast.Del) else "assign"
            writes.append((stmt, target.value, target.attr, channel))
        elif isinstance(target, ast.Subscript) and isinstance(
            target.value, ast.Attribute
        ):
            writes.append((stmt, target.value.value, target.value.attr, "subscript"))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                record_target(stmt, element)

    for child in ast.walk(node):
        if isinstance(child, ast.Assign):
            for target in child.targets:
                record_target(child, target)
        elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
            record_target(child, child.target)
        elif isinstance(child, ast.Delete):
            for target in child.targets:
                record_target(child, target)
        elif isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
            if child.func.attr in MUTATING_CONTAINER_METHODS and isinstance(
                child.func.value, ast.Attribute
            ):
                writes.append(
                    (
                        child,
                        child.func.value.value,
                        child.func.value.attr,
                        "container-method",
                    )
                )
    return writes


def _is_property(node: ast.FunctionDef) -> bool:
    for decorator in node.decorator_list:
        name = None
        if isinstance(decorator, ast.Name):
            name = decorator.id
        elif isinstance(decorator, ast.Attribute):
            name = decorator.attr
        if name in ("property", "cached_property"):
            return True
    return False


class CallGraph:
    """Resolve calls against a codebase; passes drive their own closures."""

    def __init__(
        self,
        codebase: Codebase,
        *,
        method_universe: Iterable[str] = (),
        opaque: Iterable[str] = (),
    ) -> None:
        self.codebase = codebase
        self.opaque = frozenset(opaque)
        #: method name -> [(module, class)] across the universe classes.
        #: Properties are excluded: ``x.index(...)`` is syntactically a
        #: call, which a property access never is, so resolving it to a
        #: ``@property`` (e.g. ``list.index`` hitting ``Schema.index``)
        #: would be a guaranteed misresolution.
        self._universe_methods: dict[str, list[tuple[str, str]]] = {}
        self._universe_sites: list[tuple[str, str]] = []
        for class_name in method_universe:
            for info, _node in codebase.find_class(class_name):
                self._universe_sites.append((info.name, class_name))
                for method, (_info, node) in codebase.mro_methods(
                    info.name, class_name
                ).items():
                    if _is_property(node):
                        continue
                    self._universe_methods.setdefault(method, []).append(
                        (info.name, class_name)
                    )

    # ------------------------------------------------------------------
    # reference constructors

    def function(self, module_name: str, func_name: str) -> FuncRef | None:
        info = self.codebase.module(module_name)
        if info is None:
            return None
        node = info.functions.get(func_name)
        if node is None:
            return None
        return FuncRef(module=module_name, qualname=func_name, node=node)

    def method(
        self, module_name: str, class_name: str, method_name: str
    ) -> FuncRef | None:
        methods = self.codebase.mro_methods(module_name, class_name)
        found = methods.get(method_name)
        if found is None:
            return None
        info, node = found
        return FuncRef(
            module=info.name, qualname=f"{class_name}.{method_name}", node=node
        )

    def methods_of(self, module_name: str, class_name: str) -> list[FuncRef]:
        return [
            FuncRef(module=info.name, qualname=f"{class_name}.{name}", node=node)
            for name, (info, node) in sorted(
                self.codebase.mro_methods(module_name, class_name).items()
            )
        ]

    # ------------------------------------------------------------------
    # call resolution

    def callees(self, ref: FuncRef) -> list[CallSite]:
        """Every call inside *ref* (nested closures included), resolved."""
        info = self.codebase.module(ref.module)
        if info is None:
            return []
        param_types = self._param_types(info, ref.node)
        sites: list[CallSite] = []
        for call in iter_calls(ref.node):
            sites.append(self._resolve_call(info, ref, call, param_types))
        return sites

    def _param_types(
        self, info: ModuleInfo, node: ast.FunctionDef
    ) -> dict[str, tuple[str, str]]:
        """Parameter name -> (module, class) from annotations."""
        types: dict[str, tuple[str, str]] = {}
        args = node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            class_name = self._annotation_class(arg.annotation)
            if class_name is None:
                continue
            site = self._class_site(info, class_name)
            if site is not None:
                types[arg.arg] = site
        return types

    @staticmethod
    def _annotation_class(annotation: ast.expr | None) -> str | None:
        if isinstance(annotation, ast.Name):
            return annotation.id
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            # forward reference: 'Schema' / "Schema | None" -> Schema
            text = annotation.value.split("|")[0].strip()
            return text if text.isidentifier() else None
        return None

    def _class_site(
        self, info: ModuleInfo, class_name: str
    ) -> tuple[str, str] | None:
        if class_name in info.classes:
            return (info.name, class_name)
        imported = info.imports.get(class_name)
        if imported is not None and imported[1] is not None:
            source = self.codebase.module(imported[0])
            if source is not None and imported[1] in source.classes:
                return (imported[0], imported[1])
        return None

    def _resolve_call(
        self,
        info: ModuleInfo,
        ref: FuncRef,
        call: ast.Call,
        param_types: dict[str, tuple[str, str]],
    ) -> CallSite:
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_name_call(info, call, func.id)
        if isinstance(func, ast.Attribute):
            return self._resolve_attr_call(info, ref, call, func, param_types)
        return CallSite(call=call, name=None, targets=())

    def _resolve_name_call(
        self, info: ModuleInfo, call: ast.Call, name: str
    ) -> CallSite:
        if name in self.opaque:
            return CallSite(call=call, name=name, targets=())
        if name in info.functions:
            target = FuncRef(module=info.name, qualname=name, node=info.functions[name])
            return CallSite(call=call, name=name, targets=(target,))
        if name in info.classes:
            return CallSite(call=call, name=name, targets=(), is_instantiation=True)
        imported = info.imports.get(name)
        if imported is not None and imported[1] is not None:
            source = self.codebase.module(imported[0])
            if source is not None:
                if imported[1] in source.functions:
                    target = FuncRef(
                        module=source.name,
                        qualname=imported[1],
                        node=source.functions[imported[1]],
                    )
                    return CallSite(call=call, name=name, targets=(target,))
                if imported[1] in source.classes:
                    return CallSite(
                        call=call, name=name, targets=(), is_instantiation=True
                    )
        return CallSite(call=call, name=name, targets=())

    def _resolve_attr_call(
        self,
        info: ModuleInfo,
        ref: FuncRef,
        call: ast.Call,
        func: ast.Attribute,
        param_types: dict[str, tuple[str, str]],
    ) -> CallSite:
        name = func.attr
        if name in self.opaque:
            return CallSite(call=call, name=name, targets=())
        receiver = func.value
        # self.method(...) within a method: resolve over the own class MRO
        if (
            isinstance(receiver, ast.Name)
            and receiver.id == "self"
            and ref.class_name is not None
        ):
            target = self.method(ref.module, ref.class_name, name)
            if target is not None:
                return CallSite(call=call, name=name, targets=(target,))
            return CallSite(call=call, name=name, targets=())
        # annotated parameter receivers: schema.get(...) with schema: Schema
        if isinstance(receiver, ast.Name) and receiver.id in param_types:
            mod_name, class_name = param_types[receiver.id]
            target = self.method(mod_name, class_name, name)
            if target is not None:
                return CallSite(call=call, name=name, targets=(target,))
        # Class.method(...) on an imported or local class name
        if isinstance(receiver, ast.Name):
            site = self._class_site(info, receiver.id)
            if site is not None:
                target = self.method(site[0], site[1], name)
                if target is not None:
                    return CallSite(call=call, name=name, targets=(target,))
        # untyped receiver: every universe class defining the method
        owners = self._universe_methods.get(name, [])
        targets = []
        for mod_name, class_name in owners:
            target = self.method(mod_name, class_name, name)
            if target is not None:
                targets.append(target)
        return CallSite(call=call, name=name, targets=tuple(targets))

    # ------------------------------------------------------------------
    # closures

    def closure(self, roots: Iterable[FuncRef]) -> dict[tuple[str, str], FuncRef]:
        """*roots* plus everything transitively resolvable from them."""
        reached: dict[tuple[str, str], FuncRef] = {}
        frontier = list(roots)
        while frontier:
            ref = frontier.pop()
            if ref.key in reached:
                continue
            reached[ref.key] = ref
            for site in self.callees(ref):
                frontier.extend(site.targets)
        return reached
