"""Shared diagnostic records, the package-wide error base class, how input
text is read (UTF-8, in lines ended by ``\\n``, ``\\r\\n`` or ``\\r``) and
how output strings are written in JSON."""

from __future__ import annotations

import enum
from typing import Iterable, NamedTuple

try:  # the C function of json.encoder, without loading the json package
    from _json import encode_basestring as json_string
except ImportError:  # pragma: no cover - an interpreter without the accelerator
    from json.encoder import encode_basestring as json_string


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


def split_lines(text: str, keepends: bool = False) -> list[str]:
    """The lines of ``text``, with their ends when ``keepends``. A line ends at
    ``\\n``, ``\\r\\n`` or ``\\r`` only, as with universal newlines, so that a
    line number is the one an editor shows; a final end starts no line.
    ``corpus_store._ends_line`` is this rule on bytes. A list: a generator
    would cost ``parse_tlg`` about 9%."""
    flat = text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text
    lines = flat.split("\n")
    if not lines[-1]:
        lines.pop()  # the end of the last line, or an empty text
    if keepends:  # each line with the end that follows it in ``text``
        at = 0
        for k, line in enumerate(lines):
            start, at = at, at + len(line) + 1 + text.startswith("\r\n", at + len(line))
            lines[k] = text[start:at]
    return lines


class Severity(enum.IntEnum):
    """Diagnostic severity, ordered so that ``max()`` picks the worst."""

    INFO = 10
    WARNING = 20
    ERROR = 30


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
        places = [f"line {self.line}"] if self.line is not None else []
        if self.column is not None:
            places.append(f"col {self.column}")
        where = f" ({', '.join(places)})" if places else ""
        fieldpart = f" [{self.field}]" if self.field else ""
        return f"{self.severity.name.lower()}: {self.message}{fieldpart}{where}"


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
