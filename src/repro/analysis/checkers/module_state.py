"""``module-state``: kernel modules keep no module-level mutable state.

The kernel's whole design is that *all* search state — the interning
dict mapping node sets to slots, the parallel cost/cardinality arrays,
the per-solve cardinality cache — lives on one solver instance and
dies with it.  A module-level dict or list in ``repro/core/kernel``
would be shared across solver instances (and across the process-pool
workers that fork this package), silently coupling solves to each
other and breaking replay determinism.

The rule flags any module-level binding of a mutable container in the
kernel package:

* ``dict`` / ``list`` / ``set`` displays and comprehensions;
* calls to the mutable container constructors (``dict``, ``list``,
  ``set``, ``bytearray``, ``collections.defaultdict`` /
  ``OrderedDict`` / ``deque`` / ``Counter``).

Immutable module constants (``tuple``, ``frozenset``, numbers,
strings, ``None`` — e.g. the kernel's ``SYMMETRIC_KINDS`` frozenset or
its ``KIND_*`` integers) are fine, as is anything inside a function or
class body.  Waive a deliberate module cache with
``# repro: ignore[module-state]`` — and be ready to defend it in
review.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..findings import Finding
from ..framework import Checker, SourceModule

#: path fragments this rule applies to (posix-normalized)
SCOPED_PATHS = ("repro/core/kernel",)

#: constructor names building mutable containers
MUTABLE_CONSTRUCTORS = frozenset({
    "dict", "list", "set", "bytearray",
    "defaultdict", "OrderedDict", "deque", "Counter",
})

#: AST nodes that *are* mutable container expressions
MUTABLE_DISPLAYS = (
    ast.Dict, ast.List, ast.Set,
    ast.DictComp, ast.ListComp, ast.SetComp,
)


def _constructor_name(node: ast.expr) -> "str | None":
    """Callee name of a call, through one attribute hop
    (``collections.deque`` -> ``deque``)."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _is_mutable_container(node: "ast.expr | None") -> bool:
    if node is None:
        return False
    if isinstance(node, MUTABLE_DISPLAYS):
        return True
    return _constructor_name(node) in MUTABLE_CONSTRUCTORS


class ModuleStateChecker(Checker):
    rule = "module-state"
    description = (
        "kernel modules bind no module-level mutable containers; "
        "search state lives on the solver instance"
    )

    def applies_to(self, module: SourceModule) -> bool:
        path = module.path.as_posix()
        return any(fragment in path for fragment in SCOPED_PATHS)

    def check(self, module: SourceModule) -> Iterable[Finding]:
        # module.tree.body only: nested defs/classes own their state
        for statement in module.tree.body:
            value: "ast.expr | None" = None
            target_names: list[str] = []
            if isinstance(statement, ast.Assign):
                value = statement.value
                target_names = [
                    t.id for t in statement.targets
                    if isinstance(t, ast.Name)
                ]
            elif isinstance(statement, ast.AnnAssign):
                value = statement.value
                if isinstance(statement.target, ast.Name):
                    target_names = [statement.target.id]
            if not _is_mutable_container(value):
                continue
            # dunder metadata (__all__ is a list by convention) is a
            # declaration, not state
            if target_names and all(
                name.startswith("__") and name.endswith("__")
                for name in target_names
            ):
                continue
            label = ", ".join(target_names) or "<expression>"
            yield self.finding(
                module,
                statement,
                f"module-level mutable container {label!r}: kernel "
                "state must live on the solver instance (use a tuple/"
                "frozenset, or move it into the class)",
            )
