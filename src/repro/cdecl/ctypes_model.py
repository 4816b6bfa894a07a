"""C type model.

The wrapper generator needs "the C type of all arguments and return
value of the function" (paper section 3).  This module defines a small
structural tree for C types sufficient for the POSIX API surface: base
types (including struct/union/enum tags), pointers, arrays, and
function types, each rendering back to legal C syntax.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence


class CType:
    """Base class for all C types (structural equality, C rendering)."""

    def render(self, declarator: str = "") -> str:
        """Render this type around an optional declarator name,
        producing legal C (e.g. ``const struct tm *tp``)."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.render()

    # Convenience predicates used throughout the pipeline -------------
    @property
    def is_void(self) -> bool:
        return isinstance(self, BaseType) and self.name == "void"

    def unqualified(self) -> "CType":
        """The same type with top-level ``const`` stripped."""
        return self


@dataclass(frozen=True)
class BaseType(CType):
    """A named scalar or aggregate type.

    ``name`` is the canonical spelling: ``int``, ``unsigned long``,
    ``double``, ``void``, ``struct tm``, ``FILE`` (after typedef
    resolution this may still be a typedef name — the pipeline keeps
    the original spelling plus, separately, a resolved view).
    """

    name: str
    const: bool = False

    def render(self, declarator: str = "") -> str:
        prefix = "const " if self.const else ""
        if declarator:
            return f"{prefix}{self.name} {declarator}"
        return f"{prefix}{self.name}"

    def unqualified(self) -> "BaseType":
        return BaseType(self.name) if self.const else self

    @property
    def is_floating(self) -> bool:
        return self.name in {"float", "double", "long double"}


@dataclass(frozen=True)
class PointerType(CType):
    """Pointer to ``pointee``; ``const`` is the pointer's own qualifier
    (``T * const``), while a const pointee is ``const T *``."""

    pointee: CType
    const: bool = False

    def render(self, declarator: str = "") -> str:
        inner = "*" + (" const" if self.const else "")
        if declarator:
            inner = f"{inner}{declarator}" if not self.const else f"{inner} {declarator}"
        if isinstance(self.pointee, (ArrayType, FunctionType)):
            return self.pointee.render(f"({inner})")
        return self.pointee.render(inner)


@dataclass(frozen=True)
class ArrayType(CType):
    """Array of ``element``; ``length`` is None for ``[]``."""

    element: CType
    length: Optional[int] = None

    def render(self, declarator: str = "") -> str:
        suffix = f"[{self.length}]" if self.length is not None else "[]"
        return self.element.render(f"{declarator}{suffix}")


@dataclass(frozen=True)
class Parameter:
    """One function parameter: an optional name plus its type."""

    ctype: CType
    name: str = ""

    def render(self) -> str:
        return self.ctype.render(self.name)


@dataclass(frozen=True)
class FunctionType(CType):
    """A function prototype's type: return type plus parameters."""

    return_type: CType
    parameters: tuple[Parameter, ...] = field(default_factory=tuple)
    variadic: bool = False

    def render(self, declarator: str = "") -> str:
        params = [p.render() for p in self.parameters]
        if self.variadic:
            params.append("...")
        if not params:
            params = ["void"]
        return self.return_type.render(f"{declarator}({', '.join(params)})")

    @property
    def arity(self) -> int:
        return len(self.parameters)


@dataclass(frozen=True)
class FunctionPrototype:
    """A named prototype as extracted from a header file."""

    name: str
    ftype: FunctionType

    def render(self) -> str:
        return self.ftype.render(self.name) + ";"


def make_prototype(
    name: str,
    return_type: CType,
    parameters: Sequence[tuple[CType, str]] = (),
    variadic: bool = False,
) -> FunctionPrototype:
    """Convenience constructor used heavily by tests and the synthetic
    library builder."""
    params = tuple(Parameter(ctype, pname) for ctype, pname in parameters)
    return FunctionPrototype(name, FunctionType(return_type, params, variadic))


# Canonical shared instances for the common POSIX types ----------------
VOID = BaseType("void")
CHAR = BaseType("char")
CONST_CHAR = BaseType("char", const=True)
INT = BaseType("int")
UNSIGNED = BaseType("unsigned int")
LONG = BaseType("long")
UNSIGNED_LONG = BaseType("unsigned long")
DOUBLE = BaseType("double")
SIZE_T = BaseType("unsigned long")  # LP64 resolution of size_t

CHAR_PTR = PointerType(CHAR)
CONST_CHAR_PTR = PointerType(CONST_CHAR)
VOID_PTR = PointerType(VOID)
CONST_VOID_PTR = PointerType(BaseType("void", const=True))
