"""Test case generator for C string arguments.

Covers terminated strings (read-only and writable), valid fopen mode
strings, directive-free format strings, plus NULL/INVALID.  The
unterminated-buffer cases come from the fixed-array generator, which
is always paired with this one for ``char*`` arguments.

String content is chosen so that the different roles an argument can
play are all exercised: existing and missing filesystem paths, a
numeric-overflow string (drives strtol's ERANGE path), an ``A=B``
assignment (drives setenv's EINVAL path), and strings that are *not*
valid fopen modes (they must start with something other than r/w/a so
the mode-string finding of section 6 reproduces).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.generators.base import (
    Materialized,
    OWNERSHIP_SLACK,
    TestCaseGenerator,
    TestCaseTemplate,
    ValueTemplate,
)
from repro.libc.runtime import LibcRuntime
from repro.memory import INVALID_POINTER, NULL, Protection, RegionKind
from repro.typelattice import registry
from repro.typelattice.instances import TypeInstance

#: Read-only string values (fundamental STRING_RO).
RO_STRINGS: tuple[bytes, ...] = (
    b"hello world",
    b"/tmp/input.txt",
    b"/tmp",
    b"/nonexistent/path",
    b"A=B",
    b"9" * 40,
    b"100%q",  # unknown directive: drives strftime's EINVAL path
)

#: Writable string values (fundamental STRING_RW).
RW_STRINGS: tuple[bytes, ...] = (
    b"hello world",
    b"/tmp/input.txt",
    b"token one,two;three",
)

#: Valid fopen modes (fundamental VALID_MODE).
MODE_STRINGS: tuple[bytes, ...] = (b"r", b"w", b"a", b"r+", b"w+")

#: Directive-free format strings (fundamental VALID_FORMAT): safe to
#: pass to printf-family functions with no variadic arguments.
FORMAT_STRINGS: tuple[bytes, ...] = (b"progress 100%% done", b"plain text")


@dataclass
class StringTemplate(TestCaseTemplate):
    """A NUL-terminated string materialized with a given protection."""

    content: bytes
    prot: Protection
    fundamental: TypeInstance

    @property
    def label(self) -> str:  # type: ignore[override]
        return f"{self.fundamental.render()}={self.content[:16]!r}"

    def materialize(self, runtime: LibcRuntime) -> Materialized:
        region = runtime.space.map_region(
            len(self.content) + 1, Protection.RW, RegionKind.TEST, label=self.label
        )
        region.poke(region.base, self.content + b"\x00")
        runtime.space.protect(region, self.prot)
        ranges = ((region.base, region.base + region.size + OWNERSHIP_SLACK),)
        return Materialized(region.base, self.fundamental, ranges)

    def identity(self) -> tuple:
        # The label truncates long contents; identity must not.
        return (
            type(self).__module__,
            type(self).__qualname__,
            self.content,
            self.prot.value,
            self.fundamental.render(),
        )


class CStringGenerator(TestCaseGenerator):
    """Generator for ``const char*`` / ``char*`` arguments."""

    name = "cstring"

    def __init__(self) -> None:
        templates: list[TestCaseTemplate] = [
            ValueTemplate(
                NULL, registry.NULL, "NULL", owned_ranges=((0, OWNERSHIP_SLACK),)
            ),
            ValueTemplate(
                INVALID_POINTER,
                registry.INVALID,
                "INVALID",
                owned_ranges=((INVALID_POINTER, INVALID_POINTER + OWNERSHIP_SLACK),),
            ),
        ]
        for content in RO_STRINGS:
            templates.append(
                StringTemplate(content, Protection.READ, registry.STRING_RO)
            )
        for content in RW_STRINGS:
            templates.append(StringTemplate(content, Protection.RW, registry.STRING_RW))
        for content in MODE_STRINGS:
            templates.append(
                StringTemplate(content, Protection.READ, registry.VALID_MODE)
            )
        for content in FORMAT_STRINGS:
            templates.append(
                StringTemplate(content, Protection.READ, registry.VALID_FORMAT)
            )
        self._templates = templates

    def templates(self):
        return self._templates
