"""Shared diagnostic records and the package-wide error base class."""

from __future__ import annotations

import enum
from typing import Iterable, NamedTuple


class LerilError(Exception):
    """Base class for errors raised anywhere in this package."""


def utf8_text(data: bytes, source) -> str:
    """``data`` decoded as UTF-8 without a leading byte order mark; a
    LerilError naming ``source`` and the file offset of the first byte that
    is not UTF-8 text otherwise."""
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise LerilError(f"{source}: not UTF-8 text at byte {exc.start}") from None


class Severity(enum.IntEnum):
    """Diagnostic severity, ordered so that ``max()`` picks the worst."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()


class Diagnostic(NamedTuple):
    """One finding produced by a parser or validator.

    ``line`` and ``column`` are 1-based where known; ``field`` names the
    record field involved, for formats that have named fields.
    """

    severity: Severity
    message: str
    line: int | None = None
    column: int | None = None
    field: str | None = None

    def render(self) -> str:
        where = ""
        if self.line is not None and self.column is not None:
            where = f" (line {self.line}, col {self.column})"
        elif self.line is not None:
            where = f" (line {self.line})"
        elif self.column is not None:
            where = f" (col {self.column})"
        fieldpart = f" [{self.field}]" if self.field else ""
        return f"{self.severity.label}: {self.message}{fieldpart}{where}"


def info(message: str, **kw) -> Diagnostic:
    return Diagnostic(Severity.INFO, message, **kw)


def warning(message: str, **kw) -> Diagnostic:
    return Diagnostic(Severity.WARNING, message, **kw)


def error(message: str, **kw) -> Diagnostic:
    return Diagnostic(Severity.ERROR, message, **kw)


def worst_severity(diagnostics: Iterable[Diagnostic]) -> Severity | None:
    return max((d.severity for d in diagnostics), default=None)


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    return any(d.severity >= Severity.ERROR for d in diagnostics)
