"""Vectorized (batch-at-a-time) execution of physical plans.

The row executor in :mod:`repro.relational.operators` interprets one
expression tree per row and builds one dict per row per operator — the
interpreter overhead that drowns out the paper's layout-sensitivity effects
on a pure-Python substrate.  This module executes the *same*
:class:`~repro.relational.plan.PlanNode` trees column-at-a-time:

* :class:`BatchExecutor` dispatches on the existing operator dataclasses, so
  the planner needs no second code path and the two executors can be compared
  operator-for-operator (``tests/relational/test_vectorized_parity.py``);
* expressions compile once (memoized on the expression node) into closures
  over whole columns instead of being re-interpreted per row;
* ``SeqScan`` reads columnar snapshots straight from :class:`Table` storage
  — no per-row dict is ever materialized for scans — and honours the
  ``required_columns`` annotation written by
  :func:`annotate_required_columns`, so scans project early;
* when a column is a :class:`~repro.relational.typed.TypedColumn` (numpy
  values + validity bitmap — see that module), the compiled closures run
  *numpy kernels*: comparisons and arithmetic evaluate on whole arrays with
  SQL NULL propagation through the masks, AND/OR combine boolean masks,
  ``IN`` lists become ``np.isin``, dictionary-encoded string equality
  compares int32 codes, filters gather with ``np.flatnonzero`` + fancy
  indexing, and grouped aggregates reduce with ``np.unique``/``np.bincount``
  instead of a per-row Python loop;
* any operator, expression, or column representation the kernels do not
  cover falls back to the original per-element implementation, which keeps
  the executor total over future plan nodes and over object-path columns.

Semantics match the row executor except in degenerate corners where the row
executor itself is underspecified (rows with ragged key sets are padded with
``None`` here, which is what ``row.get`` produces downstream there).
"""

from __future__ import annotations

import math

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import ExecutionError, ExpressionError
from .batch import Batch
from .expressions import (
    _BINARY_OPS,
    _SCALAR_FUNCTIONS,
    And,
    BinaryOp,
    ColumnRef,
    Expression,
    FieldAccess,
    FunctionCall,
    InList,
    IsNull,
    Literal,
    Not,
    Or,
    Parameter,
    StructBuild,
    resolve_parameter,
)
from .operators import (
    Distinct,
    Filter,
    HashAggregate,
    HashJoin,
    IndexLookup,
    IndexNestedLoopJoin,
    Limit,
    Materialize,
    NestedLoopJoin,
    Project,
    Rename,
    SeqScan,
    Sort,
    Union,
    Unnest,
    ValuesScan,
    _AggState,
)
from .plan import PlanNode
from .typed import TypedColumn, pylist

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Database


# ---------------------------------------------------------------------------
# Vectorized expression compilation
# ---------------------------------------------------------------------------

#: A compiled column evaluator returns either a plain value list or a
#: :class:`TypedColumn`; consumers accept both (``pylist`` is the bridge).
ColumnVector = Any
ColumnFn = Callable[[Batch], ColumnVector]

_SCALAR_KINDS = (bool, int, float)


def compile_expression(expr: Expression) -> ColumnFn:
    """Compile an expression tree into a column-level evaluator.

    The compiled closure is memoized on the expression node, so cached plans
    pay compilation once across repeated executions.
    """

    cached = expr.__dict__.get("_vectorized")
    if cached is not None:
        return cached
    fn = _build(expr)
    expr.__dict__["_vectorized"] = fn
    return fn


def _scalar_operand(expr: Expression) -> Optional[Callable[[], Any]]:
    """A per-execution scalar getter for constant-like operands, else None."""

    if isinstance(expr, Literal):
        value = expr.value
        return lambda: value
    if isinstance(expr, Parameter):
        name = expr.name
        return lambda: resolve_parameter(name)
    return None


def _build(expr: Expression) -> ColumnFn:
    if isinstance(expr, ColumnRef):
        name = expr.name

        def _column(batch: Batch) -> ColumnVector:
            try:
                return batch.data[name]
            except KeyError:
                raise ExpressionError(f"row has no column {name!r}") from None

        return _column

    if isinstance(expr, Literal):
        value = expr.value
        return lambda batch: [value] * batch.length

    if isinstance(expr, Parameter):
        # Resolved per execution, not at compile time: the compiled closure is
        # memoized on the (cached, shared) plan, while bindings change per call.
        name = expr.name
        return lambda batch: [resolve_parameter(name)] * batch.length

    if isinstance(expr, FieldAccess):
        base = compile_expression(expr.base)
        field_name = expr.field

        def _field(batch: Batch) -> ColumnVector:
            out = []
            for value in pylist(base(batch)):
                if value is None:
                    out.append(None)
                elif not isinstance(value, dict):
                    raise ExpressionError(
                        f"field access {field_name!r} on non-struct value {value!r}"
                    )
                elif field_name not in value:
                    raise ExpressionError(f"struct has no field {field_name!r}")
                else:
                    out.append(value[field_name])
            return out

        return _field

    if isinstance(expr, BinaryOp):
        if expr.op not in _BINARY_OPS:
            raise ExpressionError(f"unknown binary operator {expr.op!r}")
        op = _BINARY_OPS[expr.op]
        op_name = expr.op
        left_scalar = _scalar_operand(expr.left)
        right_scalar = _scalar_operand(expr.right)
        left = None if left_scalar is not None else compile_expression(expr.left)
        right = None if right_scalar is not None else compile_expression(expr.right)

        def _binop(batch: Batch) -> ColumnVector:
            lv = left_scalar() if left_scalar is not None else left(batch)
            rv = right_scalar() if right_scalar is not None else right(batch)
            l_is_scalar = left_scalar is not None
            r_is_scalar = right_scalar is not None
            kernel = _numeric_binop(op_name, lv, rv, l_is_scalar, r_is_scalar, batch.length)
            if kernel is not None:
                return kernel
            la = [lv] * batch.length if l_is_scalar else pylist(lv)
            ra = [rv] * batch.length if r_is_scalar else pylist(rv)
            return [op(l, r) for l, r in zip(la, ra)]

        return _binop

    if isinstance(expr, And):
        operands = [compile_expression(o) for o in expr.operands]
        if len(operands) == 1:
            only = operands[0]

            def _single(batch: Batch) -> ColumnVector:
                values = only(batch)
                if isinstance(values, TypedColumn):
                    return TypedColumn("bool", values.truth_mask())
                return [bool(v) for v in values]

            return _single

        def _and(batch: Batch) -> ColumnVector:
            # Eager column evaluation loses the row executor's short-circuit;
            # if a later operand raises on a row an earlier operand would have
            # masked, fall back to row-wise (short-circuiting) evaluation.
            try:
                columns = [o(batch) for o in operands]
            except (ExpressionError, TypeError):
                return [expr.evaluate(row) for row in batch.iter_rows()]
            if all(isinstance(c, TypedColumn) for c in columns):
                mask = columns[0].truth_mask()
                for column in columns[1:]:
                    mask = mask & column.truth_mask()
                return TypedColumn("bool", mask)
            columns = [pylist(c) for c in columns]
            if len(columns) == 2:
                return [bool(a and b) for a, b in zip(columns[0], columns[1])]
            return [all(c[i] for c in columns) for i in range(batch.length)]

        return _and

    if isinstance(expr, Or):
        operands = [compile_expression(o) for o in expr.operands]
        if len(operands) == 1:
            only = operands[0]

            def _single_or(batch: Batch) -> ColumnVector:
                values = only(batch)
                if isinstance(values, TypedColumn):
                    return TypedColumn("bool", values.truth_mask())
                return [bool(v) for v in values]

            return _single_or

        def _or(batch: Batch) -> ColumnVector:
            try:
                columns = [o(batch) for o in operands]
            except (ExpressionError, TypeError):
                return [expr.evaluate(row) for row in batch.iter_rows()]
            if all(isinstance(c, TypedColumn) for c in columns):
                mask = columns[0].truth_mask()
                for column in columns[1:]:
                    mask = mask | column.truth_mask()
                return TypedColumn("bool", mask)
            columns = [pylist(c) for c in columns]
            if len(columns) == 2:
                return [bool(a or b) for a, b in zip(columns[0], columns[1])]
            return [any(c[i] for c in columns) for i in range(batch.length)]

        return _or

    if isinstance(expr, Not):
        if isinstance(expr.operand, IsNull):
            # NOT (x IS [NOT] NULL) fuses into one pass; IS NULL never
            # yields NULL itself, so the NOT cannot propagate one.
            inner = compile_expression(expr.operand.operand)
            # NOT (x IS NULL) is true where valid; NOT (x IS NOT NULL) where NULL.
            want_null = expr.operand.negate

            def _fused(batch: Batch) -> ColumnVector:
                values = inner(batch)
                if isinstance(values, TypedColumn):
                    mask = values.valid_mask()
                    return TypedColumn("bool", ~mask if want_null else mask.copy())
                if want_null:
                    return [v is None for v in values]
                return [v is not None for v in values]

            return _fused
        operand = compile_expression(expr.operand)

        def _not(batch: Batch) -> ColumnVector:
            values = operand(batch)
            if isinstance(values, TypedColumn):
                return TypedColumn("bool", ~values.truth_mask(), values.validity)
            return [None if v is None else not v for v in values]

        return _not

    if isinstance(expr, IsNull):
        operand = compile_expression(expr.operand)
        negate = expr.negate

        def _is_null(batch: Batch) -> ColumnVector:
            values = operand(batch)
            if isinstance(values, TypedColumn):
                mask = values.valid_mask()
                return TypedColumn("bool", mask.copy() if negate else ~mask)
            if negate:
                return [v is not None for v in values]
            return [v is None for v in values]

        return _is_null

    if isinstance(expr, InList):
        operand = compile_expression(expr.operand)
        members = expr._set

        def _in_list(batch: Batch) -> ColumnVector:
            values = operand(batch)
            if isinstance(values, TypedColumn):
                kernel = _isin_kernel(values, members)
                if kernel is not None:
                    return kernel
                values = pylist(values)
            return [None if v is None else v in members for v in values]

        return _in_list

    if isinstance(expr, FunctionCall):
        key = expr.name.lower()
        if key not in _SCALAR_FUNCTIONS:
            raise ExpressionError(f"unknown function {expr.name!r}")
        fn = _SCALAR_FUNCTIONS[key]
        args = [compile_expression(a) for a in expr.args]

        def _call(batch: Batch) -> ColumnVector:
            columns = [pylist(a(batch)) for a in args]
            return [fn([c[i] for c in columns]) for i in range(batch.length)]

        return _call

    if isinstance(expr, StructBuild):
        fields = [(name, compile_expression(value)) for name, value in expr.fields.items()]

        def _struct(batch: Batch) -> ColumnVector:
            columns = [(name, pylist(fn(batch))) for name, fn in fields]
            return [{name: col[i] for name, col in columns} for i in range(batch.length)]

        return _struct

    # Unknown expression type: fall back to row-at-a-time evaluation.
    return lambda batch: [expr.evaluate(row) for row in batch.iter_rows()]


# ---------------------------------------------------------------------------
# Numpy kernels for binary operators and IN lists
# ---------------------------------------------------------------------------

_ARITH_OPS = {"+", "-", "*", "/", "%"}
_COMPARE_OPS = {"=", "!=", "<", "<=", ">", ">="}
_NUMPY_COMPARE = {
    "=": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def _and_validity(a: Optional[np.ndarray], b: Optional[np.ndarray]) -> Optional[np.ndarray]:
    if a is None:
        return b
    if b is None:
        return a
    return a & b


#: Beyond this magnitude not every int is a float64, so numpy's int/float
#: promotion can round one side of a comparison that Python makes exactly.
_FLOAT_EXACT_INT = 2**53


def _rounds(scalar: Any, array: Any) -> bool:
    """Whether comparing ``scalar`` with ``array`` would round through float64."""

    if isinstance(scalar, bool) or not isinstance(array, np.ndarray):
        return False
    if isinstance(scalar, int):
        return array.dtype == np.float64 and abs(scalar) > _FLOAT_EXACT_INT
    return array.dtype == np.int64 and abs(scalar) >= _FLOAT_EXACT_INT


def _result_kind(values: np.ndarray) -> Optional[str]:
    if values.dtype == np.bool_:
        return "bool"
    if values.dtype == np.int64:
        return "int64"
    if values.dtype == np.float64:
        return "float64"
    return None


def _numeric_binop(
    op_name: str,
    lv: Any,
    rv: Any,
    l_is_scalar: bool,
    r_is_scalar: bool,
    length: int,
) -> Optional[ColumnVector]:
    """Whole-column numpy evaluation of one binary op, or None for fallback.

    Engages when at least one side is a TypedColumn and the other is a
    TypedColumn or a bool/int/float scalar (a ``None`` scalar short-circuits
    to an all-NULL column, matching SQL NULL propagation).  Dictionary-encoded
    string columns support ``=`` / ``!=`` against string scalars by comparing
    int32 codes.  Anything else returns None and the caller falls back to the
    per-element loop.
    """

    l_typed = isinstance(lv, TypedColumn)
    r_typed = isinstance(rv, TypedColumn)
    if not l_typed and not r_typed:
        return None
    if (l_is_scalar and lv is None) or (r_is_scalar and rv is None):
        return [None] * length

    # Dictionary-encoded string equality against a string scalar.
    if op_name in ("=", "!="):
        if l_typed and lv.kind == "str" and r_is_scalar and isinstance(rv, str):
            return _str_equals(lv, rv, op_name == "!=")
        if r_typed and rv.kind == "str" and l_is_scalar and isinstance(lv, str):
            return _str_equals(rv, lv, op_name == "!=")

    def _numeric_side(value: Any, is_scalar: bool):
        if isinstance(value, TypedColumn):
            if not value.is_numeric:
                return None
            return value.values, value.validity
        if is_scalar and isinstance(value, _SCALAR_KINDS):
            return value, None
        return None

    lside = _numeric_side(lv, l_is_scalar)
    rside = _numeric_side(rv, r_is_scalar)
    if lside is None or rside is None:
        return None
    a, a_valid = lside
    b, b_valid = rside
    validity = _and_validity(a_valid, b_valid)

    try:
        if op_name in _COMPARE_OPS:
            if (r_is_scalar and _rounds(b, a)) or (l_is_scalar and _rounds(a, b)):
                return None
            values = _NUMPY_COMPARE[op_name](a, b)
            if not isinstance(values, np.ndarray) or values.dtype != np.bool_:
                return None
            return TypedColumn("bool", values, validity)
        if op_name in _ARITH_OPS:
            # numpy refuses +/-/* on bool arrays where Python would upcast;
            # the object fallback covers that corner faithfully.
            for side in (a, b):
                if isinstance(side, np.ndarray) and side.dtype == np.bool_:
                    return None
                if isinstance(side, bool):
                    return None
            if op_name == "/":
                zero = b == 0
                divisor = np.where(zero, 1, b) if isinstance(b, np.ndarray) else b
                if isinstance(b, np.ndarray):
                    values = np.true_divide(a, divisor)
                    if zero.any():
                        validity = _and_validity(validity, ~zero)
                elif b == 0:
                    return [None] * length
                else:
                    values = np.true_divide(a, b)
            elif op_name == "%":
                zero = b == 0
                if isinstance(b, np.ndarray):
                    divisor = np.where(zero, 1, b)
                    values = np.mod(a, divisor)
                    if zero.any():
                        validity = _and_validity(validity, ~zero)
                elif b == 0:
                    return [None] * length
                else:
                    values = np.mod(a, b)
            elif op_name == "+":
                values = a + b
            elif op_name == "-":
                values = a - b
            else:
                values = a * b
            if not isinstance(values, np.ndarray):
                return None
            kind = _result_kind(values)
            if kind is None:
                # Unexpected promotion (e.g. int64 op uint): normalize or bail.
                if np.issubdtype(values.dtype, np.integer):
                    values = values.astype(np.int64)
                    kind = "int64"
                elif np.issubdtype(values.dtype, np.floating):
                    values = values.astype(np.float64)
                    kind = "float64"
                else:
                    return None
            return TypedColumn(kind, values, validity)
    except (TypeError, ValueError, OverflowError):
        return None
    return None


def _str_equals(column: TypedColumn, scalar: str, negate: bool) -> TypedColumn:
    code = column.code_of(scalar)
    if code is None:
        values = (
            np.ones(len(column), dtype=bool)
            if negate
            else np.zeros(len(column), dtype=bool)
        )
    else:
        values = (column.values != code) if negate else (column.values == code)
    return TypedColumn("bool", values, column.validity)


def _isin_kernel(column: TypedColumn, members: set) -> Optional[TypedColumn]:
    if column.kind == "str":
        codes = [
            column.code_of(m) for m in members if isinstance(m, str)
        ]
        codes = [c for c in codes if c is not None]
        values = np.isin(column.values, np.asarray(codes, dtype=np.int32))
        return TypedColumn("bool", values, column.validity)
    if column.is_numeric:
        if not all(isinstance(m, _SCALAR_KINDS) for m in members):
            return None
        values = np.isin(column.values, _exact_needles(column.values.dtype, members))
        return TypedColumn("bool", values, column.validity)
    return None


def _exact_needles(dtype: np.dtype, members: set) -> np.ndarray:
    """The members some value of ``dtype`` equals, converted without rounding.

    Python's ``==`` between an int and a float is exact, so an int64 column
    is probed with int64 needles and a float one with floats; a member no
    value of the column's type can equal is dropped.
    """

    if dtype == np.int64:
        ints = (int(m) for m in members if not isinstance(m, float) or m.is_integer())
        return np.asarray([m for m in ints if -(2**63) <= m < 2**63], dtype=np.int64)
    floats = []
    for m in members:
        try:
            if float(m) == m:
                floats.append(float(m))
        except OverflowError:
            pass
    return np.asarray(floats, dtype=np.float64)


def _group_marker(value: Any) -> Any:
    """Hashable stand-in for group/distinct keys (mirrors the row operators)."""

    return repr(value) if isinstance(value, (dict, list)) else value


# ---------------------------------------------------------------------------
# Factorization (shared by the aggregate and distinct fast paths)
# ---------------------------------------------------------------------------


def _factorize(column: TypedColumn) -> Optional[np.ndarray]:
    """Dense int codes per row where equal values share a code; NULL is a code.

    Returns None when the column cannot be factorized with value semantics
    identical to the row executor's dict keys (floats containing NaN: the
    row path keeps each NaN row distinct, ``np.unique`` would collapse them).
    """

    if column.kind == "str":
        codes = column.values.astype(np.int64, copy=False)
        return codes + 1  # shift −1 (NULL) to 0
    values = column.values
    if column.kind == "float64" and np.isnan(values).any():
        return None
    _, inverse = np.unique(values, return_inverse=True)
    inverse = inverse.astype(np.int64, copy=False) + 1
    if column.validity is not None:
        inverse = np.where(column.validity, inverse, 0)
    return inverse


def _combine_codes(code_columns: List[np.ndarray]) -> Optional[np.ndarray]:
    """Mix per-column codes into one code per row (row-major radix)."""

    combined = code_columns[0]
    for codes in code_columns[1:]:
        radix = int(codes.max()) + 1 if len(codes) else 1
        if int(combined.max() if len(combined) else 0) > (2**62) // max(radix, 1):
            return None  # overflow guard; practically unreachable
        combined = combined * radix + codes
    return combined


def _first_seen_groups(combined: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Group ids in first-seen order.

    Returns ``(gids, first_rows)``: per-row dense group ids numbered by first
    appearance (matching the row executor's emission order) and, per group,
    the row index of its first member.
    """

    _, first_idx, inverse = np.unique(combined, return_index=True, return_inverse=True)
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty(len(first_idx), dtype=np.int64)
    rank[order] = np.arange(len(first_idx), dtype=np.int64)
    return rank[inverse], first_idx[order]


# ---------------------------------------------------------------------------
# Column-requirement annotation (early projection for batch scans)
# ---------------------------------------------------------------------------


def annotate_required_columns(plan: PlanNode, required: Optional[Set[str]] = None) -> PlanNode:
    """Annotate every ``SeqScan`` with the columns the plan above it consumes.

    ``required=None`` means "everything".  The batch executor uses the
    annotation to read only the needed columns out of table storage; the row
    executor ignores it, so annotated plans stay valid for both.  The planner
    calls this once per compiled plan.
    """

    _annotate(plan, required)
    return plan


def _refs(expression: Optional[Expression]) -> Set[str]:
    return set(expression.references()) if expression is not None else set()


def _annotate(node: PlanNode, required: Optional[Set[str]]) -> None:
    if isinstance(node, SeqScan):
        if node.projection is None:
            need = None if required is None else set(required) | _refs(node.predicate)
            node.required_columns = need
        return
    if isinstance(node, Filter):
        child = None if required is None else set(required) | _refs(node.predicate)
        _annotate(node.child, child)
        return
    if isinstance(node, Project):
        child: Set[str] = set()
        for _, expression in node.outputs:
            child |= _refs(expression)
        _annotate(node.child, child)
        return
    if isinstance(node, Rename):
        if required is None:
            _annotate(node.child, None)
        else:
            inverse = {v: k for k, v in node.renames.items()}
            _annotate(node.child, {inverse.get(c, c) for c in required})
        return
    if isinstance(node, Unnest):
        if required is None:
            _annotate(node.child, None)
        else:
            generated = {node.output_column} | {
                c for c in required if c.startswith(node.output_column + ".")
            }
            _annotate(node.child, (set(required) - generated) | {node.array_column})
        return
    if isinstance(node, HashJoin):
        extra = _refs(node.residual)
        left = None if required is None else set(required) | set(node.left_keys) | extra
        right = None if required is None else set(required) | set(node.right_keys) | extra
        _annotate(node.left, left)
        _annotate(node.right, right)
        return
    if isinstance(node, NestedLoopJoin):
        both = None if required is None else set(required) | _refs(node.predicate)
        _annotate(node.left, both)
        _annotate(node.right, both)
        return
    if isinstance(node, IndexNestedLoopJoin):
        outer = None if required is None else set(required) | set(node.outer_keys)
        _annotate(node.outer, outer)
        return
    if isinstance(node, HashAggregate):
        child = set()
        for _, expression in node.group_by:
            child |= _refs(expression)
        for spec in node.aggregates:
            child |= _refs(spec.argument)
        _annotate(node.child, child)
        return
    if isinstance(node, Distinct):
        if required is None or node.columns is None:
            _annotate(node.child, None)
        else:
            _annotate(node.child, set(required) | set(node.columns))
        return
    if isinstance(node, Sort):
        child = None if required is None else set(required) | {c for c, _ in node.keys}
        _annotate(node.child, child)
        return
    if isinstance(node, (Limit, Materialize)):
        _annotate(node.child, required)
        return
    if isinstance(node, Union):
        for child_node in node.inputs:
            _annotate(child_node, required)
        return
    # Unknown node: be conservative — children must produce everything.
    for child_node in node.children():
        _annotate(child_node, None)


def _merge_left_pads(
    left_length: int,
    left_indices: List[int],
    right_indices: List[int],
    emitted: set,
) -> Tuple[List[int], List[int]]:
    """Interleave NULL pads for unmatched left rows into a residual left join.

    Row mode emits each left row's pad in left order, between its neighbours'
    matches; order-sensitive consumers (Sort/Limit) sit above, so stable left
    order suffices.
    """

    merged_left: List[int] = []
    merged_right: List[int] = []
    taken = 0
    for i in range(left_length):
        while taken < len(left_indices) and left_indices[taken] == i:
            merged_left.append(left_indices[taken])
            merged_right.append(right_indices[taken])
            taken += 1
        if i not in emitted:
            merged_left.append(i)
            merged_right.append(-1)
    return merged_left, merged_right


# ---------------------------------------------------------------------------
# The batch executor
# ---------------------------------------------------------------------------


class BatchExecutor:
    """Execute a physical plan tree batch-at-a-time against one database."""

    def __init__(self, db: "Database") -> None:
        self.db = db
        # Per-run Materialize results: executors are created per execution,
        # so this cache can never leak a batch across snapshots or threads
        # (unlike state stored on the shared, cached plan nodes).
        self._materialized: Dict[int, Batch] = {}

    def run(self, plan: PlanNode) -> Batch:
        handler = _DISPATCH.get(type(plan))
        if handler is None:
            return self._fallback(plan)
        return handler(self, plan)

    # -- helpers -------------------------------------------------------------

    def _fallback(self, plan: PlanNode) -> Batch:
        """Row-mode execution for operators without a batch implementation."""

        rows = list(plan.execute(self.db))
        return Batch.from_rows(rows, columns=plan.output_columns() if rows == [] else None)

    def _filter_truthy(self, batch: Batch, predicate: Expression) -> Batch:
        values = compile_expression(predicate)(batch)
        if isinstance(values, TypedColumn):
            mask = values.truth_mask()
            if mask.all():
                return batch
            return batch.take(np.flatnonzero(mask))
        indices = [i for i, v in enumerate(values) if v]
        if len(indices) == batch.length:
            return batch
        return batch.take(indices)

    # -- access paths --------------------------------------------------------

    def _seq_scan(self, node: SeqScan) -> Batch:
        table = self.db.read_table(node.table_name)
        if node.projection is not None:
            items = list(node.projection.items())
            physical = table.column_data([p for p, _ in items])
            data = {output: physical[phys] for phys, output in items}
            batch = Batch([output for _, output in items], data, table.row_count)
        else:
            names = table.schema.column_names()
            prefix = f"{node.alias}." if node.alias else ""
            required = getattr(node, "required_columns", None)
            if required is not None:
                names = [c for c in names if prefix + c in required]
            physical = table.column_data(names)
            data = {prefix + c: physical[c] for c in names}
            batch = Batch([prefix + c for c in names], data, table.row_count)
        if node.predicate is not None:
            batch = self._filter_truthy(batch, node.predicate)
        return batch

    def _index_lookup(self, node: IndexLookup) -> Batch:
        table = self.db.read_table(node.table_name)
        prefix = f"{node.alias}." if node.alias else ""
        columns = [prefix + c for c in table.schema.column_names()]
        rows: List[Dict[str, Any]] = []
        for key in node.resolved_keys():
            for row in table.lookup(node.columns, tuple(key)):
                rows.append({prefix + k: v for k, v in row.items()} if prefix else row)
        return Batch.from_rows(rows, columns=columns)

    def _values_scan(self, node: ValuesScan) -> Batch:
        return Batch.from_rows(node.rows)

    # -- row transforms ------------------------------------------------------

    def _filter(self, node: Filter) -> Batch:
        return self._filter_truthy(self.run(node.child), node.predicate)

    def _project(self, node: Project) -> Batch:
        batch = self.run(node.child)
        columns: List[str] = []
        data: Dict[str, Any] = {}
        for name, expression in node.outputs:
            if name not in data:
                columns.append(name)
            data[name] = compile_expression(expression)(batch)
        return Batch(columns, data, batch.length)

    def _rename(self, node: Rename) -> Batch:
        return self.run(node.child).rename(node.renames)

    def _unnest(self, node: Unnest) -> Batch:
        batch = self.run(node.child)
        arrays = batch.data.get(node.array_column)
        if arrays is None:
            arrays = [None] * batch.length
        else:
            arrays = pylist(arrays)
        indices: List[int] = []
        elements: List[Any] = []
        for i, array in enumerate(arrays):
            if not array:
                if node.keep_empty:
                    indices.append(i)
                    elements.append(None)
                continue
            for element in array:
                indices.append(i)
                elements.append(element)
        out = batch.take(indices)
        if node.expand_struct:
            field_names: List[str] = []
            seen = set()
            for element in elements:
                if isinstance(element, dict):
                    for key in element:
                        if key not in seen:
                            seen.add(key)
                            field_names.append(key)
            for key in field_names:
                out = out.with_column(
                    f"{node.output_column}.{key}",
                    [e.get(key) if isinstance(e, dict) else None for e in elements],
                )
        return out.with_column(node.output_column, elements)

    # -- joins ---------------------------------------------------------------

    def _hash_join(self, node: HashJoin) -> Batch:
        if len(node.left_keys) != len(node.right_keys):
            raise ExecutionError("HashJoin key lists must have equal length")
        right = self.run(node.right)
        left = self.run(node.left)

        build: Dict[Tuple[Any, ...], List[int]] = {}
        right_key_columns = [
            pylist(right.data.get(k, [None] * right.length)) for k in node.right_keys
        ]
        for i in range(right.length):
            key = tuple(column[i] for column in right_key_columns)
            if any(v is None for v in key):
                continue
            build.setdefault(key, []).append(i)

        left_key_columns = [
            pylist(left.data.get(k, [None] * left.length)) for k in node.left_keys
        ]
        left_indices: List[int] = []
        right_indices: List[int] = []  # -1 marks a left-join NULL pad
        if node.residual is None:
            for i in range(left.length):
                key = tuple(column[i] for column in left_key_columns)
                matches = build.get(key) if not any(v is None for v in key) else None
                if matches:
                    for j in matches:
                        left_indices.append(i)
                        right_indices.append(j)
                elif node.join_type == "left":
                    left_indices.append(i)
                    right_indices.append(-1)
        else:
            # Candidate pairs first, then the residual decides what "matched".
            cand_left: List[int] = []
            cand_right: List[int] = []
            for i in range(left.length):
                key = tuple(column[i] for column in left_key_columns)
                matches = build.get(key) if not any(v is None for v in key) else None
                for j in matches or ():
                    cand_left.append(i)
                    cand_right.append(j)
            combined = self._combine(left, right, cand_left, cand_right)
            keep = pylist(compile_expression(node.residual)(combined))
            emitted = set()
            for i, j, ok in zip(cand_left, cand_right, keep):
                if ok:
                    left_indices.append(i)
                    right_indices.append(j)
                    emitted.add(i)
            if node.join_type == "left":
                left_indices, right_indices = _merge_left_pads(
                    left.length, left_indices, right_indices, emitted
                )
        return self._combine(left, right, left_indices, right_indices)

    def _nested_loop_join(self, node: NestedLoopJoin) -> Batch:
        left = self.run(node.left)
        right = self.run(node.right)
        left_indices: List[int] = []
        right_indices: List[int] = []
        if node.predicate is None:
            for i in range(left.length):
                if right.length:
                    left_indices.extend([i] * right.length)
                    right_indices.extend(range(right.length))
                elif node.join_type == "left":
                    left_indices.append(i)
                    right_indices.append(-1)
        else:
            cand_left: List[int] = []
            cand_right: List[int] = []
            for i in range(left.length):
                cand_left.extend([i] * right.length)
                cand_right.extend(range(right.length))
            combined = self._combine(left, right, cand_left, cand_right)
            keep = pylist(compile_expression(node.predicate)(combined))
            emitted = set()
            for i, j, ok in zip(cand_left, cand_right, keep):
                if ok:
                    left_indices.append(i)
                    right_indices.append(j)
                    emitted.add(i)
            if node.join_type == "left":
                left_indices, right_indices = _merge_left_pads(
                    left.length, left_indices, right_indices, emitted
                )
        return self._combine(left, right, left_indices, right_indices)

    def _combine(
        self, left: Batch, right: Batch, left_indices: List[int], right_indices: List[int]
    ) -> Batch:
        """Gather join output columns: left columns, then new right columns.

        A right index of -1 produces NULLs for every right column — including
        columns that shadow a left column, matching ``dict.update`` with the
        row executor's null pad.  The row executor derives that pad from the
        *first* right row, so when the right side is empty it pads nothing and
        shadowed left columns keep their left values; replicated here.
        """

        columns = list(left.columns) + [c for c in right.columns if c not in left.data]
        pad_clobbers = right.length > 0
        left_idx: Optional[np.ndarray] = None
        right_idx: Optional[np.ndarray] = None
        data: Dict[str, Any] = {}
        for name in left.columns:
            if name in right.data and pad_clobbers:
                continue
            source = left.data[name]
            if isinstance(source, TypedColumn):
                if left_idx is None:
                    left_idx = np.asarray(left_indices, dtype=np.intp)
                data[name] = source.take(left_idx)
            else:
                data[name] = [source[i] for i in left_indices]
        for name in right.columns:
            if name in data:
                continue
            source = right.data[name]
            if isinstance(source, TypedColumn):
                if right_idx is None:
                    right_idx = np.asarray(right_indices, dtype=np.intp)
                data[name] = source.gather_padded(right_idx)
            else:
                data[name] = [source[j] if j >= 0 else None for j in right_indices]
        return Batch(columns, data, len(left_indices))

    def _index_nested_loop_join(self, node: IndexNestedLoopJoin) -> Batch:
        outer = self.run(node.outer)
        table = self.db.read_table(node.inner_table)
        prefix = f"{node.inner_alias}." if node.inner_alias else ""
        inner_names = table.schema.column_names()
        inner_columns = [prefix + c for c in inner_names]

        key_columns = [
            pylist(outer.data.get(k, [None] * outer.length)) for k in node.outer_keys
        ]
        outer_indices: List[int] = []
        inner_rows: List[Optional[Dict[str, Any]]] = []
        for i in range(outer.length):
            key = tuple(column[i] for column in key_columns)
            matches = (
                table.lookup(node.inner_columns, key)
                if not any(v is None for v in key)
                else []
            )
            if not matches and node.join_type == "left":
                outer_indices.append(i)
                inner_rows.append(None)
                continue
            for inner_row in matches:
                outer_indices.append(i)
                inner_rows.append(inner_row)

        out = outer.take(outer_indices)
        for name, out_name in zip(inner_names, inner_columns):
            out = out.with_column(
                out_name,
                [row.get(name) if row is not None else None for row in inner_rows],
            )
        return out

    # -- aggregation ---------------------------------------------------------

    def _hash_aggregate(self, node: HashAggregate) -> Batch:
        batch = self.run(node.child)
        group_vectors = [
            (name, compile_expression(expression)(batch)) for name, expression in node.group_by
        ]
        argument_vectors: List[Optional[ColumnVector]] = []
        for spec in node.aggregates:
            if spec.function == "count_star" or spec.argument is None:
                argument_vectors.append(None)
            else:
                argument_vectors.append(compile_expression(spec.argument)(batch))

        fast = _aggregate_fast(node, batch, group_vectors, argument_vectors)
        if fast is not None:
            return fast

        group_columns = [(name, pylist(vec)) for name, vec in group_vectors]
        argument_columns = [
            pylist(vec) if vec is not None else None for vec in argument_vectors
        ]
        groups: Dict[Any, Tuple[Dict[str, Any], List[_AggState]]] = {}
        order: List[Any] = []
        for i in range(batch.length):
            key_values = {name: column[i] for name, column in group_columns}
            key = tuple(_group_marker(v) for v in key_values.values())
            entry = groups.get(key)
            if entry is None:
                states = [_AggState(a.function, a.distinct) for a in node.aggregates]
                entry = (key_values, states)
                groups[key] = entry
                order.append(key)
            states = entry[1]
            for state, argument in zip(states, argument_columns):
                state.add(argument[i] if argument is not None else None)
        if not groups and not node.group_by:
            states = [_AggState(a.function, a.distinct) for a in node.aggregates]
            groups[()] = ({}, states)
            order.append(())

        columns = [name for name, _ in node.group_by] + [a.output for a in node.aggregates]
        data: Dict[str, List[Any]] = {c: [] for c in columns}
        for key in order:
            key_values, states = groups[key]
            for name, _ in node.group_by:
                data[name].append(key_values[name])
            for spec, state in zip(node.aggregates, states):
                data[spec.output].append(state.result())
        return Batch(columns, data, len(order))

    # -- set / ordering operators --------------------------------------------

    def _union(self, node: Union) -> Batch:
        return Batch.concat([self.run(child) for child in node.inputs])

    def _distinct(self, node: Distinct) -> Batch:
        batch = self.run(node.child)
        subset = node.columns if node.columns is not None else batch.columns
        key_vectors = [batch.data.get(c, [None] * batch.length) for c in subset]

        if key_vectors and all(isinstance(v, TypedColumn) for v in key_vectors):
            codes = [_factorize(v) for v in key_vectors]
            if all(c is not None for c in codes):
                combined = _combine_codes(codes)  # type: ignore[arg-type]
                if combined is not None:
                    _, first_idx = np.unique(combined, return_index=True)
                    if len(first_idx) == batch.length:
                        return batch
                    first_idx.sort()
                    return batch.take(first_idx)

        key_columns = [pylist(v) for v in key_vectors]
        seen = set()
        indices: List[int] = []
        if len(key_columns) == 1:
            for i, value in enumerate(key_columns[0]):
                key = _group_marker(value)
                if key in seen:
                    continue
                seen.add(key)
                indices.append(i)
        else:
            for i in range(batch.length):
                key = tuple(_group_marker(column[i]) for column in key_columns)
                if key in seen:
                    continue
                seen.add(key)
                indices.append(i)
        if len(indices) == batch.length:
            return batch
        return batch.take(indices)

    def _sort(self, node: Sort) -> Batch:
        batch = self.run(node.child)
        order = list(range(batch.length))
        for column, ascending in reversed(node.keys):
            values = pylist(batch.data.get(column, [None] * batch.length))
            order.sort(
                key=lambda i: (values[i] is None, values[i]),
                reverse=not ascending,
            )
        return batch.take(order)

    def _limit(self, node: Limit) -> Batch:
        batch = self.run(node.child)
        return batch.slice(node.offset, node.offset + node.count)

    def _materialize(self, node: Materialize) -> Batch:
        cached = self._materialized.get(id(node))
        if cached is None:
            cached = self.run(node.child)
            self._materialized[id(node)] = cached
        return cached


# ---------------------------------------------------------------------------
# Vectorized grouped aggregation
# ---------------------------------------------------------------------------

#: Aggregate functions the numpy reduction path can compute.
_FAST_AGG_FUNCTIONS = {"count", "count_star", "sum", "avg", "min", "max"}


def _aggregate_fast(
    node: HashAggregate,
    batch: Batch,
    group_vectors: List[Tuple[str, ColumnVector]],
    argument_vectors: List[Optional[ColumnVector]],
) -> Optional[Batch]:
    """Grouped aggregation via ``np.unique`` + ``np.bincount``, or None.

    Parity notes: groups are emitted in first-seen order (like the row
    executor's insertion-ordered dict); SUM accumulates in float64 *in row
    order within each group* — ``np.bincount`` adds weights sequentially —
    which reproduces the row executor's ``total += value`` float results
    bit-for-bit; MIN/MAX return the stored values.  Falls back (returns
    None) for DISTINCT aggregates, array_agg/collect, object-path columns,
    and float group keys containing NaN.
    """

    for spec in node.aggregates:
        if spec.distinct or spec.function not in _FAST_AGG_FUNCTIONS:
            return None
    for vec in argument_vectors:
        if vec is None:
            continue
        if not isinstance(vec, TypedColumn) or not vec.is_numeric:
            return None
    code_columns: List[np.ndarray] = []
    for _, vec in group_vectors:
        if not isinstance(vec, TypedColumn):
            return None
        codes = _factorize(vec)
        if codes is None:
            return None
        code_columns.append(codes)

    length = batch.length
    if code_columns:
        combined = _combine_codes(code_columns)
        if combined is None:
            return None
        gids, first_rows = _first_seen_groups(combined)
        ngroups = len(first_rows)
    else:
        gids = np.zeros(length, dtype=np.int64)
        first_rows = np.zeros(1 if length else 0, dtype=np.int64)
        ngroups = 1  # global aggregation: one row even over empty input

    columns = [name for name, _ in node.group_by] + [a.output for a in node.aggregates]
    data: Dict[str, List[Any]] = {}
    first_list = first_rows.tolist()
    for name, vec in group_vectors:
        assert isinstance(vec, TypedColumn)
        data[name] = [vec[i] for i in first_list]

    for spec, vec in zip(node.aggregates, argument_vectors):
        data[spec.output] = _reduce_aggregate(spec.function, vec, gids, ngroups, length)
    return Batch(columns, data, ngroups if not node.group_by else len(first_rows))


def _reduce_aggregate(
    function: str,
    vec: Optional[TypedColumn],
    gids: np.ndarray,
    ngroups: int,
    length: int,
) -> List[Any]:
    if function == "count_star":
        return np.bincount(gids, minlength=ngroups).tolist()
    assert vec is not None
    validity = vec.validity
    if validity is None:
        valid_gids, valid_values = gids, vec.values
    else:
        valid_gids, valid_values = gids[validity], vec.values[validity]
    counts = np.bincount(valid_gids, minlength=ngroups)
    if function == "count":
        return counts.tolist()
    if function in ("sum", "avg"):
        totals = np.bincount(
            valid_gids, weights=valid_values.astype(np.float64, copy=False),
            minlength=ngroups,
        )
        if function == "avg":
            with np.errstate(divide="ignore", invalid="ignore"):
                totals = totals / counts
        out = totals.tolist()
        return [v if c else None for v, c in zip(out, counts.tolist())]
    # min / max: scatter-reduce into sentinel-initialized buffers, then mask
    # empty groups back to None.
    values = valid_values
    if values.dtype == np.bool_:
        values = values.astype(np.int64)
    if function == "min":
        if np.issubdtype(values.dtype, np.integer):
            out_array = np.full(ngroups, np.iinfo(np.int64).max, dtype=np.int64)
        else:
            out_array = np.full(ngroups, math.inf, dtype=np.float64)
        np.minimum.at(out_array, valid_gids, values)
    else:
        if np.issubdtype(values.dtype, np.integer):
            out_array = np.full(ngroups, np.iinfo(np.int64).min, dtype=np.int64)
        else:
            out_array = np.full(ngroups, -math.inf, dtype=np.float64)
        np.maximum.at(out_array, valid_gids, values)
    out = out_array.tolist()
    result = [v if c else None for v, c in zip(out, counts.tolist())]
    if vec.kind == "bool":
        result = [bool(v) if v is not None else None for v in result]
    return result


_DISPATCH: Dict[type, Callable[[BatchExecutor, Any], Batch]] = {
    SeqScan: BatchExecutor._seq_scan,
    IndexLookup: BatchExecutor._index_lookup,
    ValuesScan: BatchExecutor._values_scan,
    Filter: BatchExecutor._filter,
    Project: BatchExecutor._project,
    Rename: BatchExecutor._rename,
    Unnest: BatchExecutor._unnest,
    HashJoin: BatchExecutor._hash_join,
    NestedLoopJoin: BatchExecutor._nested_loop_join,
    IndexNestedLoopJoin: BatchExecutor._index_nested_loop_join,
    HashAggregate: BatchExecutor._hash_aggregate,
    Union: BatchExecutor._union,
    Distinct: BatchExecutor._distinct,
    Sort: BatchExecutor._sort,
    Limit: BatchExecutor._limit,
    Materialize: BatchExecutor._materialize,
}


def execute_batch(plan: PlanNode, db: "Database") -> Batch:
    """Execute ``plan`` with the vectorized executor and return the result batch."""

    return BatchExecutor(db).run(plan)
