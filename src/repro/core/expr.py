"""Integer expressions over a batch's columns, compiled to numpy and to
Spark SQL.

The partition functions of the radix exchanges (``pmod(k, n)``, the local
radix bits) and the compressed wire word of ``CompressionSpec`` are data,
not Python callables: each is one tree of int64 operations with two
compilers, so both substrates compute it from one definition.

* ``eval(frame)`` — numpy, for the evaluator: an int64 array with one value
  per row of ``frame`` (a ``RowVector`` batch, or any mapping of name to
  equal-length arrays);
* ``sql()`` — one Spark SQL expression string, which the Spark lowering
  passes to ``selectExpr``, so Catalyst computes the column natively and no
  Python runs for it.

Both compilers give int64 two's-complement semantics. ``pmod`` is the
non-negative remainder (numpy's ``%`` floors and Spark's ``%`` truncates,
so neither is used); ``>>`` is the arithmetic shift on both (numpy on
int64, Spark's ``shiftright``), so a mask must clear the sign bits it
copies; shifts and moduli are constants. ``in_range(e, lo, hi, msg)``
passes ``e`` through and fails when a value lies outside ``[lo, hi]``:
``ValueError(msg)`` in numpy, ``raise_error(msg)`` on Spark.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


class Expr:
    """An int64-valued expression over the columns of a frame."""

    def columns(self) -> Tuple[str, ...]:
        """The columns the expression reads, in order of first use."""
        return tuple(dict.fromkeys(c for e in self._children() for c in e.columns()))

    def eval(self, frame) -> np.ndarray:
        """The value for every row of ``frame``."""
        return np.asarray(self._np(frame), dtype=np.int64)

    def sql(self) -> str:
        """The expression as Spark SQL over columns of type bigint."""
        raise NotImplementedError

    def _np(self, frame):
        """The value as an int64 array or scalar. Nodes apply numpy through
        Python operators on their children's results, never as ufunc calls
        on named temporaries, so numpy reuses a temporary operand's buffer
        (temporary elision) as in a hand-written expression."""
        raise NotImplementedError

    def _children(self) -> Tuple["Expr", ...]:
        return ()

    def __and__(self, other) -> "Expr":
        return _Bitwise("&", self, _expr(other))

    def __or__(self, other) -> "Expr":
        return _Bitwise("|", self, _expr(other))

    def __lshift__(self, bits: int) -> "Expr":
        return _Shift("<<", self, bits)

    def __rshift__(self, bits: int) -> "Expr":
        """The arithmetic shift: the sign bit fills the high bits."""
        return _Shift(">>", self, bits)

    def __repr__(self) -> str:
        return str(self)


@dataclass(frozen=True, repr=False)
class _Col(Expr):
    name: str

    def columns(self) -> Tuple[str, ...]:
        return (self.name,)

    def _np(self, frame):
        return np.asarray(frame[self.name]).astype(np.int64, copy=False)

    def sql(self) -> str:
        return quote(self.name)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, repr=False)
class _Lit(Expr):
    value: int

    def __post_init__(self) -> None:
        if not _INT64_MIN < self.value <= _INT64_MAX:
            raise ValueError(f"literal {self.value} outside (-2**63, 2**63)")

    def _np(self, frame):
        return np.int64(self.value)

    def sql(self) -> str:
        return f"{self.value}L"

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, repr=False)
class _Bitwise(Expr):
    op: str
    left: Expr
    right: Expr

    def _children(self):
        return (self.left, self.right)

    def _np(self, frame):
        if self.op == "&":
            return self.left._np(frame) & self.right._np(frame)
        return self.left._np(frame) | self.right._np(frame)

    def sql(self) -> str:
        return f"({self.left.sql()} {self.op} {self.right.sql()})"

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True, repr=False)
class _Shift(Expr):
    op: str
    operand: Expr
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits < 64:
            raise ValueError(f"shift by {self.bits} bits: need 0 <= bits < 64")

    def _children(self):
        return (self.operand,)

    def _np(self, frame):
        if self.op == "<<":
            return self.operand._np(frame) << self.bits
        return self.operand._np(frame) >> self.bits

    def sql(self) -> str:
        fn = "shiftleft" if self.op == "<<" else "shiftright"
        return f"{fn}({self.operand.sql()}, {self.bits})"

    def __str__(self) -> str:
        return f"({self.operand} {self.op} {self.bits})"


@dataclass(frozen=True, repr=False)
class _Pmod(Expr):
    operand: Expr
    n: int

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError(f"pmod by {self.n}: need a positive modulus")

    def _children(self):
        return (self.operand,)

    def _np(self, frame):
        return self.operand._np(frame) % self.n

    def sql(self) -> str:
        return f"pmod({self.operand.sql()}, {self.n}L)"

    def __str__(self) -> str:
        return f"pmod({self.operand}, {self.n})"


@dataclass(frozen=True, repr=False)
class _InRange(Expr):
    operand: Expr
    lo: _Lit
    hi: _Lit
    msg: str

    def _children(self):
        return (self.operand,)

    def _np(self, frame):
        values = self.operand._np(frame)
        seen = np.atleast_1d(values)
        if seen.size and (seen.min() < self.lo.value or seen.max() > self.hi.value):
            raise ValueError(self.msg)
        return values

    def sql(self) -> str:
        v = self.operand.sql()
        return (f"CASE WHEN {v} < {self.lo.sql()} OR {v} > {self.hi.sql()} "
                f"THEN raise_error({_string(self.msg)}) ELSE {v} END")

    def __str__(self) -> str:
        return f"in_range({self.operand}, {self.lo}, {self.hi})"


def col(name: str) -> Expr:
    """The int64 value of column ``name``."""
    return _Col(name)


def pmod(e: Expr, n: int) -> Expr:
    """The remainder of ``e`` modulo ``n`` in ``[0, n)``, also for
    negative ``e``."""
    return _Pmod(e, n)


def in_range(e: Expr, lo: int, hi: int, msg: str) -> Expr:
    """``e``, checked to lie in ``[lo, hi]``: a value outside raises
    ``ValueError(msg)`` (numpy) or fails the Spark task with ``msg``."""
    return _InRange(e, _Lit(lo), _Lit(hi), msg)


def quote(name: str) -> str:
    """``name`` as a Spark SQL identifier."""
    return "`" + name.replace("`", "``") + "`"


def _string(text: str) -> str:
    return "'" + text.replace("\\", "\\\\").replace("'", "\\'") + "'"


def _expr(value) -> Expr:
    return value if isinstance(value, Expr) else _Lit(int(value))
