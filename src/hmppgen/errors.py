"""Exception types shared across the pipeline."""

from __future__ import annotations

from pathlib import Path


class SourceError(Exception):
    """Error tied to a position in a source file."""

    def __init__(self, message: str, line: int | None = None,
                 col: int | None = None, filename: str | None = None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col
        self.filename = filename

    def format(self) -> str:
        parts = [self.filename or "<input>"]
        if self.line is not None:
            parts.append(str(self.line))
            if self.col is not None:
                parts.append(str(self.col))
        return "%s: %s" % (":".join(parts), self.message)

    def __str__(self) -> str:
        return self.format()


def read_text(path) -> str:
    """A file's UTF-8 text with universal newlines; a byte that does not
    decode is a SourceError naming the file and the byte's line."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise SourceError("not UTF-8 text: byte 0x%02x" % data[e.start],
                          data.count(b"\n", 0, e.start) + 1,
                          filename=str(path))
    return text.replace("\r\n", "\n").replace("\r", "\n")


class CParseError(SourceError):
    pass


class UnsupportedConstructError(CParseError):
    """Input uses a C construct outside the supported subset."""

    def __init__(self, construct: str, line=None, col=None, filename=None):
        super().__init__("unsupported construct: %s" % construct, line, col, filename)
        self.construct = construct


class PragmaError(CParseError):
    pass


class TransformError(SourceError):
    pass


class AnalysisError(SourceError):
    pass


class PlanError(Exception):
    pass


class ExploreError(Exception):
    pass


class ReportError(Exception):
    pass
