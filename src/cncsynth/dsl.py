"""Textual DSL for models (.cnc), views (.cncview) and specifications
(.cncspec), plus pretty-printing and DOT export.

Grammar sketch (shared core)::

    model      := component+                      // one top unless styled
    component  := "component" ID ("{" element* "}")? ";"?
    element    := portDecl | component | connDecl
    portDecl   := "port" ("in"|"out") (ID | "?") ID ";"   // type, then name
    connDecl   := "connect" endpoint "->" endpoint ";"
    endpoint   := ID ("." ID)?                    // bare component: views only

View files allow several top-level components and top-level connects; a
component may carry the ``<<interface-complete>>`` stereotype.  Spec files::

    spec ID "{" "views" "{" ID ("," ID)* "}" "formula" ":" bexpr ";" block* "}"

with ``patterns``/``library``/``style``/``scope`` blocks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from cncsynth.model import (
    AbstractConnector,
    CncModel,
    CncView,
    Component,
    Connector,
    Direction,
    Port,
    PortRef,
    validate_model,
)
from cncsynth.speclang import (
    And,
    Formula,
    Not,
    Or,
    Pattern,
    PatternKind,
    ScopeHints,
    StyleConfig,
    StyleKind,
    Var,
)


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int  # 1-based
    column: int  # 1-based
    length: int = 1

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


class DslError(Exception):
    """Syntax or semantic error with a source position."""

    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|//[^\n]*)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>\d+)
  | (?P<punct><<|>>|->|&&|\|\||[{}()\[\];,.:!?=\-])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # 'id' | 'int' | 'punct' | 'eof'
    value: str
    span: SourceSpan


def _lex(text: str, filename: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DslError(f"unexpected character {text[pos]!r}", SourceSpan(filename, line, col))
        lexeme = m.group(0)
        if m.lastgroup != "ws":
            tokens.append(Token(m.lastgroup, lexeme, SourceSpan(filename, line, col, len(lexeme))))
        nl = lexeme.count("\n")
        if nl:
            line += nl
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("eof", "", SourceSpan(filename, line, col, 0)))
    return tokens


class _Parser:
    def __init__(self, text: str, filename: str):
        self.tokens = _lex(text, filename)
        self.i = 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.i]

    def at(self, value: str) -> bool:
        return self.cur.value == value and self.cur.kind in ("punct", "id")

    def advance(self) -> Token:
        tok = self.cur
        if tok.kind != "eof":
            self.i += 1
        return tok

    def accept(self, value: str) -> bool:
        if self.at(value):
            self.advance()
            return True
        return False

    def expect(self, value: str) -> Token:
        if not self.at(value):
            self.fail(f"expected {value!r}, found {self.cur.value!r}" if self.cur.kind != "eof"
                      else f"expected {value!r}, found end of input")
        return self.advance()

    def ident(self, what: str = "identifier") -> Token:
        if self.cur.kind != "id":
            self.fail(f"expected {what}, found {self.cur.value!r}" if self.cur.kind != "eof"
                      else f"expected {what}, found end of input")
        return self.advance()

    def integer(self) -> int:
        if self.cur.kind != "int":
            self.fail(f"expected integer, found {self.cur.value!r}")
        return int(self.advance().value)

    def hyphen_word(self) -> str:
        """An identifier possibly containing hyphens, e.g. client-server."""
        parts = [self.ident().value]
        while self.accept("-"):
            parts.append(self.ident().value)
        return "-".join(parts)

    def fail(self, message: str, span: SourceSpan | None = None) -> None:
        raise DslError(message, span or self.cur.span)

    def end(self) -> None:
        if self.cur.kind != "eof":
            self.fail(f"unexpected trailing input {self.cur.value!r}")


# --- Component bodies (shared between models and views) ----------------------

@dataclass
class _RawPort:
    direction: Direction
    type: str | None
    name: str
    span: SourceSpan


@dataclass
class _RawComponent:
    name: str
    span: SourceSpan
    interface_complete: bool = False
    ports: list[_RawPort] = field(default_factory=list)
    children: list["_RawComponent"] = field(default_factory=list)


@dataclass
class _RawConnect:
    src_cmp: str
    src_port: str | None
    tgt_cmp: str
    tgt_port: str | None
    span: SourceSpan


def _parse_component(p: _Parser, connects: list[_RawConnect], allow_stereotype: bool) -> _RawComponent:
    stereo = False
    if p.at("<<"):
        if not allow_stereotype:
            p.fail("stereotypes are only allowed in view files")
        span = p.advance().span
        word = p.hyphen_word()
        if word != "interface-complete":
            p.fail(f"unknown stereotype {word!r}", span)
        p.expect(">>")
        stereo = True
    p.expect("component")
    name_tok = p.ident("component name")
    raw = _RawComponent(name_tok.value, name_tok.span, interface_complete=stereo)
    if p.accept("{"):
        while not p.accept("}"):
            if p.at("port"):
                raw.ports.append(_parse_port(p))
            elif p.at("connect"):
                connects.append(_parse_connect(p))
            elif p.at("component") or p.at("<<"):
                raw.children.append(_parse_component(p, connects, allow_stereotype))
            else:
                p.fail(f"expected port, component or connect, found {p.cur.value!r}")
        p.accept(";")
    else:
        p.expect(";")
    return raw


def _parse_port(p: _Parser) -> _RawPort:
    span = p.expect("port").span
    if p.accept("in"):
        direction = Direction.IN
    elif p.accept("out"):
        direction = Direction.OUT
    else:
        p.fail("expected 'in' or 'out'")
    ptype = None if p.accept("?") else p.ident("type name").value
    name = p.ident("port name").value
    p.expect(";")
    return _RawPort(direction, ptype, name, span)


def _parse_roots(p: _Parser, allow_stereotype: bool) -> tuple[list[_RawComponent], list[_RawConnect]]:
    """The top-level components and connects of a model or view file."""
    roots: list[_RawComponent] = []
    connects: list[_RawConnect] = []
    while p.cur.kind != "eof":
        if p.at("connect"):
            connects.append(_parse_connect(p))
        else:
            roots.append(_parse_component(p, connects, allow_stereotype))
    return roots, connects


def _parse_connect(p: _Parser) -> _RawConnect:
    span = p.expect("connect").span
    src_cmp = p.ident("component name").value
    src_port = p.ident("port name").value if p.accept(".") else None
    p.expect("->")
    tgt_cmp = p.ident("component name").value
    tgt_port = p.ident("port name").value if p.accept(".") else None
    p.expect(";")
    return _RawConnect(src_cmp, src_port, tgt_cmp, tgt_port, span)


# --- Models ------------------------------------------------------------------

def parse_model(text: str, filename: str = "<model>") -> CncModel:
    """Parse a .cnc model file; the result is well-formed or parsing fails."""
    p = _Parser(text, filename)
    roots, connects = _parse_roots(p, allow_stereotype=False)
    if not roots:
        p.fail("expected a component declaration")

    components: dict[str, Component] = {}
    spans: dict[str, SourceSpan] = {}

    def walk(raw: _RawComponent) -> None:
        if raw.name in components:
            raise DslError(f"duplicate component {raw.name!r}", raw.span)
        ports = []
        seen = set()
        for rp in raw.ports:
            if rp.type is None:
                raise DslError("model ports must have a concrete type", rp.span)
            if rp.name in seen:
                raise DslError(f"duplicate port {rp.name!r} in component {raw.name!r}", rp.span)
            seen.add(rp.name)
            ports.append(Port(rp.name, rp.direction, rp.type))
        components[raw.name] = Component(raw.name, tuple(ports),
                                         frozenset(ch.name for ch in raw.children))
        spans[raw.name] = raw.span
        for ch in raw.children:
            walk(ch)

    for root in roots:
        walk(root)

    connectors = []
    incoming: set[PortRef] = set()
    for rc in connects:
        for cmp, port in ((rc.src_cmp, rc.src_port), (rc.tgt_cmp, rc.tgt_port)):
            if cmp not in components:
                raise DslError(f"unknown component {cmp!r}", rc.span)
            if port is None:
                raise DslError("model connectors must name ports on both endpoints", rc.span)
            if components[cmp].port(port) is None:
                raise DslError(f"component {cmp!r} has no port {port!r}", rc.span)
        tgt = PortRef(rc.tgt_cmp, rc.tgt_port)
        if tgt in incoming:
            raise DslError(f"port {tgt} already has an incoming connector", rc.span)
        incoming.add(tgt)
        connectors.append(Connector(PortRef(rc.src_cmp, rc.src_port), tgt))

    model = CncModel(tuple(components.values()), tuple(connectors))
    violations = validate_model(model, allow_multiple_tops=len(roots) > 1)
    if violations:
        v = violations[0]
        span = spans.get(v.subject.split(".")[0], roots[0].span)
        raise DslError(f"ill-formed model: {v}", span)
    return model


# --- Views -------------------------------------------------------------------

def parse_view(text: str, name: str = "view", filename: str = "<view>") -> CncView:
    """Parse a .cncview file, with its ``<<interface-complete>>`` marks."""
    roots, connects = _parse_roots(_Parser(text, filename), allow_stereotype=True)

    # Views may mention a component in several places; merge the fragments.
    ports: dict[str, dict[str, _RawPort]] = {}
    children: dict[str, set[str]] = {}
    marked: set[str] = set()

    def walk(raw: _RawComponent) -> None:
        ports.setdefault(raw.name, {})
        children.setdefault(raw.name, set())
        if raw.interface_complete:
            marked.add(raw.name)
        for rp in raw.ports:
            prev = ports[raw.name].get(rp.name)
            if prev is not None and (prev.direction, prev.type) != (rp.direction, rp.type):
                raise DslError(f"conflicting declarations for port {rp.name!r} of {raw.name!r}", rp.span)
            ports[raw.name][rp.name] = rp
        for ch in raw.children:
            if ch.name == raw.name:
                raise DslError(f"component {raw.name!r} cannot contain itself", ch.span)
            children[raw.name].add(ch.name)
            walk(ch)

    for root in roots:
        walk(root)

    abs_connectors = []
    for rc in connects:
        for cmp in (rc.src_cmp, rc.tgt_cmp):
            if cmp not in ports:
                raise DslError(f"unknown component {cmp!r}", rc.span)
        src_type = ports[rc.src_cmp].get(rc.src_port).type if rc.src_port in ports[rc.src_cmp] else None
        tgt_type = ports[rc.tgt_cmp].get(rc.tgt_port).type if rc.tgt_port in ports[rc.tgt_cmp] else None
        abs_connectors.append(AbstractConnector(
            rc.src_cmp, rc.tgt_cmp, rc.src_port, rc.tgt_port, src_type, tgt_type))

    components = [
        Component(cname,
                  tuple(Port(rp.name, rp.direction, rp.type) for rp in sorted(ports[cname].values(), key=lambda r: r.name)),
                  frozenset(children[cname]))
        for cname in sorted(ports)
    ]
    return CncView(name, tuple(components), tuple(abs_connectors), frozenset(marked))


# --- Specifications ----------------------------------------------------------

@dataclass(frozen=True)
class SpecSource:
    """A parsed .cncspec file; view bodies live in separate .cncview files."""

    name: str
    view_names: tuple[str, ...]
    formula: Formula
    patterns: tuple[Pattern, ...] = ()
    library: tuple[Component, ...] = ()
    style: StyleConfig = StyleConfig()
    scope_hints: ScopeHints = ScopeHints()


def parse_spec(text: str, filename: str = "<spec>") -> SpecSource:
    p = _Parser(text, filename)
    p.expect("spec")
    name = p.ident("specification name").value
    p.expect("{")
    p.expect("views")
    p.expect("{")
    view_names = [p.ident("view name").value]
    while p.accept(","):
        view_names.append(p.ident("view name").value)
    p.expect("}")
    formula_span = p.expect("formula").span
    p.expect(":")
    if p.at(";"):
        p.fail("formula required", formula_span)
    formula = _parse_bexpr(p)
    p.expect(";")

    patterns: list[Pattern] = []
    library: list[Component] = []
    style = StyleConfig()
    hints = ScopeHints()
    while not p.accept("}"):
        if p.accept("patterns"):
            p.expect("{")
            while not p.accept("}"):
                patterns.append(_parse_pattern(p))
        elif p.accept("library"):
            p.expect("{")
            while not p.accept("}"):
                library.append(_parse_libdecl(p))
        elif p.at("style"):
            span = p.advance().span
            if style.kind is not StyleKind.NONE:
                p.fail("style given twice", span)
            style = _parse_style(p, span)
            p.expect(";")
        elif p.accept("scope"):
            hints = _parse_scope(p, hints)
        else:
            p.fail(f"expected patterns, library, style or scope block, found {p.cur.value!r}")
    p.end()
    return SpecSource(name, tuple(view_names), formula, tuple(patterns), tuple(library), style, hints)


def _parse_bexpr(p: _Parser) -> Formula:
    terms = [_parse_bterm(p)]
    while p.accept("||"):
        terms.append(_parse_bterm(p))
    return terms[0] if len(terms) == 1 else Or(terms)


def _parse_bterm(p: _Parser) -> Formula:
    factors = [_parse_bfac(p)]
    while p.accept("&&"):
        factors.append(_parse_bfac(p))
    return factors[0] if len(factors) == 1 else And(factors)


def _parse_bfac(p: _Parser) -> Formula:
    if p.accept("!"):
        return Not(_parse_bfac(p))
    if p.accept("("):
        inner = _parse_bexpr(p)
        p.expect(")")
        return inner
    return Var(p.ident("view name").value)


def _parse_pattern(p: _Parser) -> Pattern:
    span = p.cur.span
    kind = p.ident("pattern name").value
    p.expect("(")
    try:
        if kind in ("alt", "xalt"):
            args = [p.ident().value]
            while p.accept(","):
                args.append(p.ident().value)
            p.expect(")")
            p.expect(";")
            return Pattern(PatternKind(kind), tuple(args))
        if kind == "imp":
            a = p.ident().value
            p.expect(",")
            negated = p.accept("!")
            b = p.ident().value
            p.expect(")")
            p.expect(";")
            return Pattern(PatternKind.IMP, (a, b), negated_second=negated)
        if kind == "nocomp":
            c = p.ident().value
            p.expect(")")
            p.expect(";")
            return Pattern(PatternKind.NOCOMP, (c,))
    except ValueError as exc:
        raise DslError(str(exc), span) from None
    p.fail(f"unknown pattern {kind!r}", span)


def _parse_libdecl(p: _Parser) -> Component:
    p.expect("component")
    name = p.ident("component name").value
    p.expect("{")
    ports = []
    while not p.accept("}"):
        rp = _parse_port(p)
        if rp.type is None:
            raise DslError("library ports must have a concrete type", rp.span)
        ports.append(Port(rp.name, rp.direction, rp.type))
    return Component(name, tuple(ports))


def parse_style(text: str, filename: str = "<style>") -> StyleConfig:
    """Parse a style as a spec's ``style`` clause writes it, without the
    keyword and the closing ``;``, e.g. ``layered([A]; [B])``."""
    p = _Parser(text, filename)
    style = _parse_style(p, p.cur.span)
    p.end()
    return style


def _parse_style(p: _Parser, span: SourceSpan) -> StyleConfig:
    kind = p.hyphen_word()
    try:
        if kind == "hierarchical":
            return StyleConfig(StyleKind.HIERARCHICAL)
        if kind == "client-server":
            p.expect("(")
            p.expect("server")
            p.expect("=")
            server = p.ident().value
            p.expect(",")
            p.expect("clients")
            p.expect("=")
            clients = [p.ident().value]
            while p.accept(","):
                clients.append(p.ident().value)
            p.expect(")")
            return StyleConfig(StyleKind.CLIENT_SERVER, server=server, clients=tuple(clients))
        if kind == "layered":
            p.expect("(")
            layers = [_parse_layer(p)]
            while p.accept(";"):
                layers.append(_parse_layer(p))
            p.expect(")")
            return StyleConfig(StyleKind.LAYERED, layers=tuple(layers))
    except ValueError as exc:
        raise DslError(str(exc), span) from None
    p.fail(f"unknown style {kind!r}", span)


def _parse_layer(p: _Parser) -> tuple[str, ...]:
    p.expect("[")
    names = [p.ident().value]
    while p.accept(","):
        names.append(p.ident().value)
    p.expect("]")
    return tuple(names)


def _parse_scope(p: _Parser, hints: ScopeHints) -> ScopeHints:
    p.expect("{")
    values = {"ports": hints.ports, "extra-names": hints.extra_names, "extra-types": hints.extra_types}
    while not p.accept("}"):
        span = p.cur.span
        key = p.hyphen_word()
        if key not in values:
            raise DslError(f"unknown scope key {key!r}", span)
        if values[key] is not None:
            raise DslError(f"scope key {key!r} given twice", span)
        p.expect("=")
        values[key] = p.integer()
        p.expect(";")
    return ScopeHints(values["ports"], values["extra-names"], values["extra-types"])


# --- Printing and DOT export -------------------------------------------------

def print_model(m: CncModel) -> str:
    """Render a model in the .cnc syntax; parse_model round-trips a
    well-formed one.  A component met again, on a containment cycle or under
    a second parent, is printed as a bare ``component C;``."""
    printed: set[str] = set()
    lines: list[str] = []

    def emit(name: str, indent: int) -> None:
        pad = "  " * indent
        if name in printed:
            lines.append(f"{pad}component {name};")
            return
        printed.add(name)
        c = m.by_name[name]
        lines.append(f"{pad}component {name} {{")
        for p in c.ports:
            lines.append(f"{pad}  port {p.direction.value} {p.type if p.type is not None else '?'} {p.name};")
        for child in sorted(c.subcomponents):
            emit(child, indent + 1)
        lines.append(f"{pad}}}")

    # The tops first; a component left after them is on a containment cycle.
    for c in sorted(m.components, key=lambda c: c.name in m.parent_map):
        if c.name not in printed:
            emit(c.name, 0)
    # The connectors go inside the last top-level component.
    lines[-1:-1] = [f"  connect {conn.src} -> {conn.tgt};" for conn in m.connectors]
    return "\n".join(lines) + "\n"


def print_view(v: CncView) -> str:
    """Render a view in the .cncview syntax; parse_view round-trips it.  A
    component under several parents is printed in full once and as a bare
    ``component C;`` fragment, which parse_view merges, under the others."""
    nested = {ch for c in v.components for ch in c.subcomponents}
    printed: set[str] = set()
    lines: list[str] = []

    def emit(name: str, indent: int) -> None:
        pad = "  " * indent
        if name in printed:
            lines.append(f"{pad}component {name};")
            return
        printed.add(name)
        c = v.by_name[name]
        stereo = "<<interface-complete>> " if name in v.interface_complete else ""
        children = sorted(c.subcomponents)
        if not c.ports and not children:
            lines.append(f"{pad}{stereo}component {name};")
            return
        lines.append(f"{pad}{stereo}component {name} {{")
        for p in c.ports:
            lines.append(f"{pad}  port {p.direction.value} {p.type if p.type is not None else '?'} {p.name};")
        for ch in children:
            emit(ch, indent + 1)
        lines.append(f"{pad}}}")

    # The tops first; a component left after them is on a containment cycle.
    for c in sorted(v.components, key=lambda c: c.name in nested):
        if c.name not in printed:
            emit(c.name, 0)
    for ac in v.abs_connectors:
        lines.append(f"connect {ac};")
    return "\n".join(lines) + "\n"


def export_dot(m: CncModel, name: str = "cnc") -> str:
    """Clustered DOT digraph: components as clusters, ports as nodes,
    connectors as edges."""
    lines = [f"digraph \"{name}\" {{", "  compound=true;", "  node [shape=box, fontsize=10];"]

    printed: set[str] = set()

    def emit(cname: str, indent: int) -> None:
        if cname in printed:
            return
        printed.add(cname)
        pad = "  " * indent
        c = m.by_name[cname]
        lines.append(f"{pad}subgraph \"cluster_{cname}\" {{")
        lines.append(f"{pad}  label=\"{cname}\";")
        if not c.ports:
            lines.append(f"{pad}  \"{cname}\" [shape=point, style=invis];")
        for p in c.ports:
            lines.append(f"{pad}  \"{cname}.{p.name}\" [label=\"{p.direction.value} {p.name}: {p.type}\"];")
        for child in sorted(c.subcomponents):
            emit(child, indent + 1)
        lines.append(f"{pad}}}")

    # The tops first; a component left after them is on a containment cycle.
    for c in sorted(m.components, key=lambda c: c.name in m.parent_map):
        emit(c.name, 1)
    for conn in m.connectors:
        lines.append(f"  \"{conn.src}\" -> \"{conn.tgt}\";")
    lines.append("}")
    return "\n".join(lines) + "\n"
