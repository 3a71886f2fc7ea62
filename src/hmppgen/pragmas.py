"""The two directive vocabularies: OpenMP pragmas and HMPP directives.

Spelling drift seen in the wild (`hmpc`, `hmpcpg`, `delegatstore`) is
accepted on input and canonicalized to `hmpp` / `hmppcg` /
`delegatedstore` on output.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from .errors import PragmaError

OMP_KINDS = ("parallel", "parallel_for", "for", "none")
REDUCTION_OPS = ("+", "*", "-", "min", "max")

HMPP_KINDS = (
    "codelet", "callsite", "group", "mapbyname", "advancedload",
    "delegatedstore", "synchronize", "release", "gridify",
)

_SPELLING_FIXES = {
    "hmpc": "hmpp",
    "hmpcpg": "hmppcg",
    "delegatstore": "delegatedstore",
}

MAX_PRAGMA_WIDTH = 100


def _split_words(text: str) -> list[str]:
    """Lexes pragma text into words, punctuation and quoted strings."""
    toks = re.findall(r'"[^"]*"|[A-Za-z_]\w*|\d+\.?\d*|[^\sA-Za-z_0-9]', text)
    return [_SPELLING_FIXES.get(t, t) for t in toks]


class _Cursor:
    def __init__(self, words: list[str], raw: str, line: int = 0):
        self.words = words
        self.i = 0
        self.raw = raw
        self.line = line

    def peek(self, k: int = 0) -> str:
        j = self.i + k
        return self.words[j] if j < len(self.words) else ""

    def next(self) -> str:
        w = self.peek()
        self.i += 1
        return w

    def expect(self, w: str):
        got = self.next()
        if got != w:
            self.fail("expected %r, got %r" % (w, got or "<end>"))

    def accept(self, w: str) -> bool:
        if self.peek() == w:
            self.i += 1
            return True
        return False

    def done(self) -> bool:
        return self.i >= len(self.words)

    def fail(self, msg: str):
        raise PragmaError("%s (in %r)" % (msg, self.raw), self.line)


# ---------------------------------------------------------------------------
# OpenMP


@dataclass
class OmpPragma:
    kind: str = "none"
    shared: list[str] = field(default_factory=list)
    private: list[str] = field(default_factory=list)
    reduction: Optional[tuple[str, str]] = None  # (op, symbol)
    check: bool = False
    fixed: Optional[tuple[int, int, int]] = None
    raw: str = ""
    line: int = 0

    def validate(self):
        if self.check and self.fixed is not None:
            raise PragmaError("check and fixed are mutually exclusive on one block",
                              self.line)
        if self.reduction is not None and self.reduction[0] not in REDUCTION_OPS:
            raise PragmaError("unsupported reduction operator %r" % self.reduction[0],
                              self.line)

    def render(self) -> str:
        if self.raw:
            return self.raw
        head = {"parallel_for": "parallel for"}.get(self.kind, self.kind)
        parts = ["#pragma omp " + head]
        if self.reduction:
            parts.append("reduction(%s:%s)" % self.reduction)
        if self.shared:
            parts.append("shared(%s)" % ", ".join(self.shared))
        if self.private:
            parts.append("private(%s)" % ", ".join(self.private))
        if self.check:
            parts.append("check")
        if self.fixed is not None:
            parts.append("fixed(%d, %d, %d)" % self.fixed)
        return " ".join(parts)


def _parse_id_list(cur: _Cursor) -> list[str]:
    cur.expect("(")
    names = []
    while True:
        w = cur.next()
        if not w or not re.match(r"[A-Za-z_]\w*$", w):
            cur.fail("expected identifier in clause list, got %r" % w)
        names.append(w)
        if cur.accept(")"):
            return names
        cur.expect(",")


def parse_omp_pragma(text: str, line: int = 0) -> OmpPragma:
    """Parses one `#pragma omp ...` line into an OmpPragma."""
    words = _split_words(text)
    cur = _Cursor(words, text, line)
    cur.expect("#")
    cur.expect("pragma")
    cur.expect("omp")
    kind = cur.next()
    if kind == "parallel":
        kind = "parallel_for" if cur.accept("for") else "parallel"
    elif kind != "for":
        cur.fail("unknown OpenMP construct %r" % kind)
    p = OmpPragma(kind=kind, raw=" ".join(text.split()), line=line)
    while not cur.done():
        clause = cur.next()
        if clause == ",":
            continue
        if clause == "shared":
            p.shared.extend(_parse_id_list(cur))
        elif clause == "private":
            p.private.extend(_parse_id_list(cur))
        elif clause == "reduction":
            cur.expect("(")
            op = cur.next()
            if op in ("min", "max") and cur.peek() != ":":
                cur.fail("malformed reduction clause")
            if op not in REDUCTION_OPS:
                cur.fail("unsupported reduction operator %r" % op)
            cur.expect(":")
            var = cur.next()
            cur.expect(")")
            if p.reduction is not None:
                cur.fail("multiple reduction clauses")
            p.reduction = (op, var)
        elif clause == "check":
            if p.fixed is not None:
                cur.fail("check and fixed are mutually exclusive")
            p.check = True
        elif clause == "fixed":
            if p.check:
                cur.fail("check and fixed are mutually exclusive")
            cur.expect("(")
            nums = []
            while True:
                w = cur.next()
                if not w.isdigit():
                    cur.fail("fixed() takes non-negative integers, got %r" % w)
                nums.append(int(w))
                if cur.accept(")"):
                    break
                cur.expect(",")
            if len(nums) != 3:
                cur.fail("fixed() takes exactly 3 flags, got %d" % len(nums))
            p.fixed = tuple(nums)
        else:
            cur.fail("unknown OpenMP clause %r" % clause)
    p.validate()
    return p


# ---------------------------------------------------------------------------
# HMPP


@dataclass
class HmppArg:
    name: str
    io: Optional[str] = None  # in | out | inout
    size: Optional[str] = None  # rendered size expression, e.g. "(row*col)" or "1"
    addr: Optional[str] = None  # quoted address expression, without quotes
    noupdate: bool = False


@dataclass
class HmppDirective:
    kind: str
    group: Optional[str] = None  # <group> name
    label: Optional[str] = None  # codelet label
    target: Optional[str] = None  # CUDA
    args: list[HmppArg] = field(default_factory=list)
    star_transfer: bool = False  # args[*].transfer=auto
    symbols: list[str] = field(default_factory=list)  # mapbyname
    asynchronous: bool = False  # callsite property
    gridify_dims: list[str] = field(default_factory=list)
    reduce: Optional[tuple[str, str]] = None  # hmppcg reduce(op:local)
    raw: str = ""
    line: int = 0

    def validate(self):
        if self.kind not in HMPP_KINDS:
            raise PragmaError("unknown HMPP directive kind %r" % self.kind, self.line)
        if self.kind == "mapbyname" and self.group is None:
            raise PragmaError("mapbyname only appears inside a group", self.line)
        if any(a.noupdate for a in self.args) and self.kind != "callsite":
            raise PragmaError("noupdate appears only as a callsite arg property",
                              self.line)
        if self.target not in (None, "CUDA"):
            raise PragmaError("target value is always CUDA", self.line)

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        if self.raw:
            return self.raw
        if self.kind == "gridify":
            text = "#pragma hmppcg gridify(%s)" % ", ".join(self.gridify_dims)
            if self.reduce is not None:
                text += ", reduce(%s:%s)" % self.reduce
            return text
        head = "#pragma hmpp"
        if self.group:
            head += " <%s>" % self.group
        if self.label:
            head += " " + self.label
        head += " " + self.kind
        clauses = self._clauses()
        return _wrap(head, clauses)

    def _clauses(self) -> list[str]:
        out = []
        if self.target:
            out.append("target=%s" % self.target)
        if self.kind == "mapbyname":
            out.extend(self.symbols)
            return out
        if self.kind in ("advancedload", "delegatedstore"):
            out.append("args[%s]" % ", ".join(a.name for a in self.args))
            for a in self.args:
                if a.addr:
                    out.append('args[%s].addr="%s"' % (a.name, a.addr))
            return out
        # codelet / callsite properties, coalescing identical ones
        for value, names in _grouped(self.args, lambda a: a.io):
            out.append("args[%s].io=%s" % (", ".join(names), value))
        for a in self.args:
            if a.size is not None:
                out.append("args[%s].size=%s" % (a.name, a.size))
        for value, names in _grouped(self.args, lambda a: a.noupdate or None):
            out.append("args[%s].noupdate=true" % ", ".join(names))
        if self.asynchronous:
            out.append("asynchronous")
        if self.star_transfer:
            out.append("args[*].transfer=auto")
        return out


def _grouped(args: list[HmppArg], key) -> list[tuple[object, list[str]]]:
    order: list = []
    groups: dict = {}
    for a in args:
        k = key(a)
        if k is None:
            continue
        if k not in groups:
            groups[k] = []
            order.append(k)
        groups[k].append(a.name)
    return [(k, groups[k]) for k in order]


def _wrap(head: str, clauses: list[str]) -> str:
    """Joins clauses onto the head, breaking with `&` continuations at the
    width limit.  A single clause longer than the limit stays whole on its
    own continuation line."""
    lines = [head]
    for i, c in enumerate(clauses):
        reserve = 0 if i == len(clauses) - 1 else 3  # room for ", &"
        cand = lines[-1] + ", " + c
        if len(cand) + reserve <= MAX_PRAGMA_WIDTH:
            lines[-1] = cand
        else:
            lines[-1] += ", &"
            lines.append("#pragma hmpp & " + c)
    return "\n".join(lines)


def parse_hmpp_pragma(text: str, line: int = 0) -> HmppDirective:
    """Parses one `#pragma hmpp ...` / `#pragma hmppcg ...` line."""
    words = _split_words(text)
    cur = _Cursor(words, text, line)
    cur.expect("#")
    cur.expect("pragma")
    vocab = cur.next()
    if vocab == "hmppcg":
        return _parse_hmppcg(cur, text, line)
    if vocab != "hmpp":
        cur.fail("not an HMPP pragma")
    d = HmppDirective(kind="", raw=" ".join(text.split()), line=line)
    if cur.accept("<"):
        d.group = cur.next()
        cur.expect(">")
    if cur.peek() not in HMPP_KINDS and re.match(r"[A-Za-z_]\w*$", cur.peek() or ""):
        d.label = cur.next()
    d.kind = cur.next()
    if d.kind == "mapbyname":
        while not cur.done():
            w = cur.next()
            if w != ",":
                d.symbols.append(w)
    else:
        _parse_props(cur, d)
    d.validate()
    return d


def _parse_hmppcg(cur: _Cursor, text: str, line: int) -> HmppDirective:
    d = HmppDirective(kind="gridify", raw=" ".join(text.split()), line=line)
    cur.expect("gridify")
    cur.expect("(")
    while True:
        w = cur.next()
        if w == ")":
            break
        if w != ",":
            d.gridify_dims.append(w)
    if cur.accept(","):
        cur.expect("reduce")
        cur.expect("(")
        op = cur.next()
        cur.expect(":")
        var = cur.next()
        cur.expect(")")
        d.reduce = (op, var)
    return d


def _parse_props(cur: _Cursor, d: HmppDirective):
    by_name: dict[str, HmppArg] = {}

    def arg(name: str) -> HmppArg:
        if name not in by_name:
            by_name[name] = HmppArg(name)
            d.args.append(by_name[name])
        return by_name[name]

    while not cur.done():
        if cur.accept(","):
            continue
        w = cur.next()
        if w == "target":
            cur.expect("=")
            d.target = cur.next()
        elif w == "asynchronous":
            d.asynchronous = True
        elif w == "args":
            cur.expect("[")
            names = []
            star = False
            while True:
                t = cur.next()
                if t == "]":
                    break
                if t == "*":
                    star = True
                elif t != ",":
                    names.append(t)
            if not cur.accept("."):
                for n in names:
                    arg(n)
                continue
            prop = cur.next()
            cur.expect("=")
            if prop == "io":
                v = cur.next()
                if v not in ("in", "out", "inout"):
                    cur.fail("bad io value %r" % v)
                for n in names:
                    arg(n).io = v
            elif prop == "size":
                v = cur.next()
                if v == "(":
                    depth, parts = 1, ["("]
                    while depth:
                        t = cur.next()
                        if not t:
                            cur.fail("unterminated size expression")
                        depth += (t == "(") - (t == ")")
                        parts.append(t)
                    v = "".join(parts)
                for n in names:
                    arg(n).size = v
            elif prop == "addr":
                v = cur.next()
                if not (v.startswith('"') and v.endswith('"')):
                    cur.fail("addr value must be a quoted string")
                for n in names:
                    arg(n).addr = v[1:-1]
            elif prop == "noupdate":
                v = cur.next()
                if v not in ("true", "false"):
                    cur.fail("noupdate takes true/false")
                for n in names:
                    arg(n).noupdate = v == "true"
            elif prop == "transfer":
                cur.next()  # a per-argument transfer value is not kept
                if star:
                    d.star_transfer = True
                else:
                    for n in names:
                        arg(n)
            else:
                cur.fail("unknown args property %r" % prop)
        else:
            cur.fail("unknown HMPP clause %r" % w)


# ---------------------------------------------------------------------------


def parse_pragma(text: str, line: int = 0):
    """Dispatches on vocabulary; returns OmpPragma or HmppDirective."""
    words = _split_words(text)
    if len(words) < 3 or words[0] != "#" or words[1] != "pragma":
        raise PragmaError("not a pragma line: %r" % text, line)
    if words[2] == "omp":
        return parse_omp_pragma(text, line)
    if words[2] in ("hmpp", "hmppcg"):
        return parse_hmpp_pragma(text, line)
    raise PragmaError("unknown pragma vocabulary %r" % words[2], line)
