"""The built-in engine-invariant rules, L001-L010.

L001-L003 are general hygiene rules: no ``==``/``!=`` against fractional
float literals, no bare ``except:``, no ``object.__setattr__`` outside
``__post_init__``.  L004-L010 machine-check invariants
specific to the cleaning engines that ruff/mypy cannot express: interning
immutability, worker-boundary picklability, bit-exact determinism,
``python -O`` survival, CSR index discipline, aliased mutable
initializers, and ``.ctg`` codec locality.  ``docs/lint.md`` is the
narrative catalog.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.lint.findings import LintFinding
from repro.lint.registry import LintRule, register

__all__ = [
    "CSR_COLUMN_ATTRS",
    "CSR_ACCESSOR_PATHS",
    "CTG_CODEC_PATHS",
    "EXACT_FLOAT_SENTINELS",
    "INTERNED_CACHE_ATTRS",
    "MUTATING_METHODS",
    "POOL_SUBMIT_METHODS",
    "STRUCT_CODEC_CALLS",
]

#: Float literals that may be compared exactly: distribution emptiness and
#: the untouched-survival sentinel.  Everything fractional is suspect.
EXACT_FLOAT_SENTINELS = (0.0, 1.0, -1.0)

#: Private attributes holding interned engine-cache state.  They are
#: shared across every object cleaned under one plan/cache; only their
#: owner (``self``/``cls`` receivers) may write them.
INTERNED_CACHE_ATTRS = frozenset({
    "_states", "_state_ids", "_location_ids", "_location_names",
    "_supports", "_support_ids", "_support_names", "_du_rows",
    "_rows", "_levels", "_stream_rows",
})

#: Method names that mutate their receiver in place.
MUTATING_METHODS = frozenset({
    "append", "add", "update", "clear", "pop", "popitem", "extend",
    "insert", "remove", "discard", "setdefault",
})

#: Pool-style dispatch methods whose callables cross a pickle boundary.
POOL_SUBMIT_METHODS = frozenset({
    "submit", "map", "imap", "imap_unordered", "apply_async",
    "map_async", "starmap", "starmap_async",
})

#: The CSR column attributes of ``FlatCTGraph``.
CSR_COLUMN_ATTRS = frozenset({
    "edge_offsets", "edge_children", "edge_probabilities",
})

#: Modules allowed to do raw CSR index arithmetic: the flat graph itself,
#: the ndarray view layer that converts its columns, the columnar query
#: layer built around its accessors, the binary store that serialises the
#: columns verbatim, and the whole-column JSON exporter.  Entries ending
#: in ``.py`` match one module exactly; entries ending in ``/`` match a
#: package.
CSR_ACCESSOR_PATHS = ("repro/core/flatgraph.py", "repro/core/kernels.py",
                      "repro/queries/", "repro/store/",
                      "repro/io/graphs.py")


def _is_fractional_float(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return (isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            and node.value not in EXACT_FLOAT_SENTINELS)


def _is_set_construction(node: ast.expr) -> bool:
    """A set display or a direct ``set(...)``/``frozenset(...)`` call."""
    if isinstance(node, ast.Set):
        return True
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))


def _foreign_interned_attr(node: ast.expr) -> bool:
    """``<receiver>._interned_attr`` where the receiver is not self/cls."""
    if not (isinstance(node, ast.Attribute)
            and node.attr in INTERNED_CACHE_ATTRS):
        return False
    value = node.value
    return not (isinstance(value, ast.Name)
                and value.id in ("self", "cls"))


@register
class FloatEqualityRule(LintRule):
    code = "L001"
    title = "no ==/!= against fractional float literals"
    rationale = (
        "Probabilities are accumulated by multiplication and fsum; exact "
        "equality against values like 0.5 is a float-comparison bug.  The "
        "sentinels 0.0/1.0/-1.0 test provenance, not arithmetic, and are "
        "allowed.")

    def check(self, tree: ast.Module, path: str) -> Iterator[LintFinding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_fractional_float(left) or _is_fractional_float(right):
                    yield self.finding(
                        path, node.lineno,
                        "exact ==/!= against a fractional float literal; "
                        "use math.isclose / an explicit tolerance")
                    break


@register
class BareExceptRule(LintRule):
    code = "L002"
    title = "no bare except:"
    rationale = (
        "A bare except swallows KeyboardInterrupt/SystemExit; catch "
        "Exception or the precise repro.errors subtype instead.")

    def check(self, tree: ast.Module, path: str) -> Iterator[LintFinding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    path, node.lineno,
                    "bare `except:`; catch Exception or a repro.errors "
                    "type")


@register
class FrozenMutationRule(LintRule):
    code = "L003"
    title = "no object.__setattr__ outside __post_init__"
    rationale = (
        "The frozen dataclasses (constraints, readings, diagnostics) are "
        "hashed and shared; mutating one after construction invalidates "
        "every index built over it.  __post_init__ normalisation is the "
        "sanctioned exception.")

    def check(self, tree: ast.Module, path: str) -> Iterator[LintFinding]:
        findings: List[LintFinding] = []
        rule = self

        class Visitor(ast.NodeVisitor):
            def __init__(self) -> None:
                self.stack: List[str] = []

            def _function(self, node: ast.AST, name: str) -> None:
                self.stack.append(name)
                self.generic_visit(node)
                self.stack.pop()

            def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
                self._function(node, node.name)

            def visit_AsyncFunctionDef(self,
                                       node: ast.AsyncFunctionDef) -> None:
                self._function(node, node.name)

            def visit_Call(self, node: ast.Call) -> None:
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and func.attr == "__setattr__"
                        and isinstance(func.value, ast.Name)
                        and func.value.id == "object"
                        and "__post_init__" not in self.stack):
                    findings.append(rule.finding(
                        path, node.lineno,
                        "object.__setattr__ outside __post_init__ mutates "
                        "a frozen dataclass after construction"))
                self.generic_visit(node)

        Visitor().visit(tree)
        return iter(findings)


@register
class InternedMutationRule(LintRule):
    code = "L004"
    title = "no mutation of interned engine-cache state from outside"
    rationale = (
        "EngineCache/SharedCleaningPlan intern states, supports and "
        "transition rows shared by every object of a batch; a write "
        "through a non-owner reference (cache._rows[k] = ..., "
        "plan._du_rows.update(...)) silently corrupts every other "
        "cleaning.  Owners mutate through self/cls only.")

    def check(self, tree: ast.Module, path: str) -> Iterator[LintFinding]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if (isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Attribute)
                            and _foreign_interned_attr(target.value)):
                        attribute = target.value
                    elif (isinstance(target, ast.Attribute)
                          and _foreign_interned_attr(target)):
                        attribute = target
                    else:
                        continue
                    yield self.finding(
                        path, node.lineno,
                        f"write to interned cache attribute "
                        f"`{attribute.attr}` through a non-owner "
                        f"reference; interned engine state is shared "
                        f"across the whole batch")
                    break
            elif isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in MUTATING_METHODS
                        and isinstance(func.value, ast.Attribute)
                        and _foreign_interned_attr(func.value)):
                    yield self.finding(
                        path, node.lineno,
                        f"`.{func.attr}()` on interned cache attribute "
                        f"`{func.value.attr}` through a non-owner "
                        f"reference; interned engine state is shared "
                        f"across the whole batch")


@register
class SetIterationRule(LintRule):
    code = "L005"
    title = "no iteration over freshly built sets"
    rationale = (
        "Set iteration order is hash-seed-dependent; iterating a set "
        "display or set()/frozenset() call in a result-building path "
        "makes output ordering (and float accumulation order) "
        "nondeterministic.  Membership tests are fine; sort first "
        "(sorted(...)) when iterating.")

    _MATERIALIZERS = frozenset({"list", "tuple", "enumerate"})

    def check(self, tree: ast.Module, path: str) -> Iterator[LintFinding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.For) and _is_set_construction(node.iter):
                yield self.finding(
                    path, node.lineno,
                    "for-loop over a freshly built set iterates in "
                    "hash order; sort first (sorted(...))")
            elif isinstance(node, (ast.ListComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for generator in node.generators:
                    if _is_set_construction(generator.iter):
                        yield self.finding(
                            path, node.lineno,
                            "comprehension over a freshly built set "
                            "iterates in hash order; sort first "
                            "(sorted(...))")
                        break
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id in self._MATERIALIZERS
                  and node.args
                  and _is_set_construction(node.args[0])):
                yield self.finding(
                    path, node.lineno,
                    f"{node.func.id}() over a freshly built set "
                    f"materialises hash order; sort first (sorted(...))")


@register
class LambdaToPoolRule(LintRule):
    code = "L006"
    title = "no lambdas across the worker boundary"
    rationale = (
        "The batch runtime ships callables to worker processes by "
        "pickling; lambdas (and other unpicklable locals) fail only at "
        "runtime, inside the pool, with an opaque error.  Pass a named "
        "module-level function instead.")

    def check(self, tree: ast.Module, path: str) -> Iterator[LintFinding]:
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in POOL_SUBMIT_METHODS):
                continue
            arguments = list(node.args)
            arguments.extend(keyword.value for keyword in node.keywords)
            for argument in arguments:
                if isinstance(argument, ast.Lambda):
                    yield self.finding(
                        path, node.lineno,
                        f"lambda passed to `.{node.func.attr}()` cannot "
                        f"be pickled across the worker boundary; use a "
                        f"named module-level function")
                    break


@register
class AssertStatementRule(LintRule):
    code = "L007"
    title = "no assert-only invariants in library code"
    rationale = (
        "`assert` statements vanish under `python -O`, so an invariant "
        "guarded only by assert is unguarded in optimised runs.  Raise a "
        "repro.errors type (GraphInvariantError, ...) instead; asserts "
        "belong in tests, which pytest never runs optimised.")

    def check(self, tree: ast.Module, path: str) -> Iterator[LintFinding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                yield self.finding(
                    path, node.lineno,
                    "assert vanishes under `python -O`; raise a "
                    "repro.errors exception for library invariants")


@register
class CsrIndexingRule(LintRule):
    code = "L008"
    title = "no raw CSR column subscripts outside the accessor layer"
    rationale = (
        "FlatCTGraph's edge_offsets/edge_children/edge_probabilities "
        "columns follow the CSR convention (level-relative child ids, "
        "offset fenceposts); ad-hoc subscript arithmetic outside "
        "repro/core/flatgraph.py and repro/queries/ tends to get the "
        "convention subtly wrong.  Go through the accessor helpers "
        "(node_edges, level_slice, ...) instead.")

    def check(self, tree: ast.Module, path: str) -> Iterator[LintFinding]:
        normalized = path.replace("\\", "/")
        for part in CSR_ACCESSOR_PATHS:
            if part.endswith(".py"):
                if normalized.endswith(part):
                    return
            elif part in normalized:
                return
        for node in ast.walk(tree):
            if (isinstance(node, ast.Subscript)
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr in CSR_COLUMN_ATTRS):
                yield self.finding(
                    path, node.lineno,
                    f"raw subscript of CSR column `{node.value.attr}` "
                    f"outside the accessor layer; use the FlatCTGraph/"
                    f"query-session helpers")


_MUTABLE_CONSTRUCTORS = frozenset({"list", "dict", "set", "bytearray"})


def _is_mutable_element(node: ast.expr) -> bool:
    """An element whose identity would be shared by sequence repetition."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _MUTABLE_CONSTRUCTORS)


@register
class MultipliedMutableRule(LintRule):
    code = "L009"
    title = "no multiplied mutable-literal initializers"
    rationale = (
        "`[[]] * n` repeats the *same* list object n times, so a write "
        "through one slot appears in every slot — the aliasing stays "
        "latent until the first in-place mutation (the QuerySession "
        "suffix-row bug).  Repetition of immutable elements "
        "(`[0.0] * n`) is fine; build mutable rows with a comprehension "
        "(`[[] for _ in range(n)]`).")

    def check(self, tree: ast.Module, path: str) -> Iterator[LintFinding]:
        for node in ast.walk(tree):
            if not (isinstance(node, ast.BinOp)
                    and isinstance(node.op, ast.Mult)):
                continue
            for operand in (node.left, node.right):
                if (isinstance(operand, (ast.List, ast.Tuple, ast.Set))
                        and any(_is_mutable_element(element)
                                for element in operand.elts)):
                    yield self.finding(
                        path, node.lineno,
                        "sequence repetition of a mutable literal aliases "
                        "one object into every slot; use a comprehension "
                        "([[] for _ in range(n)])")
                    break


#: ``struct``-module call names that do raw byte packing/unpacking.
STRUCT_CODEC_CALLS = frozenset({
    "pack", "unpack", "pack_into", "unpack_from", "iter_unpack",
    "calcsize", "Struct",
})

#: Modules allowed to speak the raw ``.ctg`` byte layout: the store
#: package owns the header/section codec.  Same matching convention as
#: :data:`CSR_ACCESSOR_PATHS` (``.py`` = exact module, ``/`` = package).
CTG_CODEC_PATHS = ("repro/store/",)


def _is_struct_codec_call(node: ast.expr) -> bool:
    """``struct.pack(...)``-style call, or a call on a ``struct.Struct``
    constructed inline (``struct.Struct("<Q").unpack(...)``)."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Attribute)
            and func.attr in STRUCT_CODEC_CALLS
            and isinstance(func.value, ast.Name)
            and func.value.id == "struct")


@register
class CtgCodecRule(LintRule):
    code = "L010"
    title = "no raw .ctg byte codec outside repro/store/"
    rationale = (
        "The `rfid-ctg/ctg@1` layout (header struct, section offsets, "
        "alignment) lives in repro/store/format.py and nowhere else; "
        "`struct.pack`/`unpack` + hand-rolled offset arithmetic in other "
        "modules forks the format and rots silently when the version "
        "bumps.  Read graphs through repro.store.load_ctg / GraphStore, "
        "write them through write_ctg/save_ctg.")

    def check(self, tree: ast.Module, path: str) -> Iterator[LintFinding]:
        normalized = path.replace("\\", "/")
        for part in CTG_CODEC_PATHS:
            if part.endswith(".py"):
                if normalized.endswith(part):
                    return
            elif part in normalized:
                return
        for node in ast.walk(tree):
            if _is_struct_codec_call(node):
                yield self.finding(
                    path, node.lineno,
                    f"raw struct.{node.func.attr} call outside "
                    f"repro/store/; go through the repro.store codec "
                    f"(load_ctg/write_ctg) instead of reimplementing "
                    f"the .ctg byte layout")
