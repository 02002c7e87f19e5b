"""Lexer, recursive-descent parser and name resolution for ``.mac`` sources.

The concrete grammar is Java-flavoured: braces, semicolons, ``sync<a>``
before a parameter type, ``!`` for asynchronous calls and a postfix ``?``
for the resolved test.  Whitespace is insignificant and ``//`` starts a
line comment.  :func:`parse_program` raises :class:`ParseError` with line
and column for token-level trouble and :class:`ResolutionError` for name
problems (undeclared interfaces, duplicate names, missing method bodies,
misplaced calls or returns).
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .syntax import (
    ActorType,
    Assign,
    AsyncCall,
    BinOp,
    BOOL,
    BoolLit,
    ClassDecl,
    Expr,
    FutType,
    GetStmt,
    If,
    INT,
    IntLit,
    InterfaceDecl,
    InterfaceType,
    MethodDef,
    MethodSig,
    NewActor,
    NewObject,
    NullLit,
    Param,
    Program,
    Resolved,
    Return,
    Stmt,
    SyncCall,
    This,
    Type,
    Var,
    VarDecl,
    While,
    walk_stmts,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, filename: str | None = None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col
        self.filename = filename

    def __str__(self) -> str:
        prefix = f"{self.filename}:" if self.filename else ""
        return f"{prefix}{self.line}:{self.col}: {self.message}"


class ResolutionError(Exception):
    pass


KEYWORDS = frozenset(
    """interface class implements new actor sync if else while return
       this null true false Bool Int Fut Actor""".split()
)

# Identifiers reserved for the machine's own bookkeeping.
RESERVED_NAMES = frozenset({"this", "dest", "myactor"})


class Token(NamedTuple):
    kind: str  # "int" | "ident" | "kw" | "op" | "eof"
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>//[^\n]*)
      | (?P<int>\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>==|!=|<=|>=|&&|[{}()<>,;=.!?+\-])
    """,
    re.VERBOSE,
)


def tokenize(source: str, filename: str | None = None) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line, col, filename)
        text = m.group()
        kind = m.lastgroup
        if kind == "int":
            tokens.append(Token("int", text, line, col))
        elif kind == "ident":
            tokens.append(Token("kw" if text in KEYWORDS else "ident", text, line, col))
        elif kind == "op":
            tokens.append(Token("op", text, line, col))
        # ws and comments are skipped, but still advance line/col
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rindex("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], filename: str | None):
        self.tokens = tokens
        self.pos = 0
        self.filename = filename

    # ---- token plumbing

    def peek(self, ahead: int = 0) -> Token:
        i = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[i]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, tok.line, tok.col, self.filename)

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        if self.at(kind, text):
            return self.advance()
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if not self.at(kind, text):
            want = text if text is not None else kind
            raise self.error(f"expected {want!r}, found {tok.text or tok.kind!r}")
        return self.advance()

    def expect_ident(self, what: str) -> str:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.error(f"expected {what}, found {tok.text or tok.kind!r}")
        self.advance()
        return tok.text

    # ---- declarations

    def program(self) -> Program:
        interfaces = []
        while self.at("kw", "interface"):
            interfaces.append(self.interface_decl())
        classes = []
        while self.at("kw", "class"):
            classes.append(self.class_decl())
        main_vars, main_body = self.block(allow_decls=True)
        if not self.at("eof"):
            raise self.error("expected end of input")
        return Program(tuple(interfaces), tuple(classes), main_vars, main_body)

    def interface_decl(self) -> InterfaceDecl:
        self.expect("kw", "interface")
        name = self.expect_ident("interface name")
        self.expect("op", "{")
        sigs = []
        while not self.at("op", "}"):
            sigs.append(self.signature())
            self.expect("op", ";")
        self.expect("op", "}")
        return InterfaceDecl(name, tuple(sigs))

    def sync_label(self) -> str | None:
        if self.accept("kw", "sync"):
            self.expect("op", "<")
            label = self.expect_ident("sync label")
            self.expect("op", ">")
            return label
        return None

    def signature(self) -> MethodSig:
        return_label = self.sync_label()
        return_type = self.type_ann()
        name = self.expect_ident("method name")
        self.expect("op", "(")
        params = []
        if not self.at("op", ")"):
            while True:
                label = self.sync_label()
                ptype = self.type_ann()
                pname = self.expect_ident("parameter name")
                params.append(Param(label, ptype, pname))
                if not self.accept("op", ","):
                    break
        self.expect("op", ")")
        return MethodSig(return_label, return_type, name, tuple(params))

    def type_ann(self) -> Type:
        if self.accept("kw", "Bool"):
            return BOOL
        if self.accept("kw", "Int"):
            return INT
        if self.accept("kw", "Fut"):
            self.expect("op", "<")
            inner = self.type_ann()
            self.expect("op", ">")
            return FutType(inner)
        if self.accept("kw", "Actor"):
            self.expect("op", "<")
            name = self.expect_ident("interface name")
            self.expect("op", ">")
            return ActorType(name)
        name = self.expect_ident("type")
        return InterfaceType(name)

    def class_decl(self) -> ClassDecl:
        self.expect("kw", "class")
        name = self.expect_ident("class name")
        params: list[VarDecl] = []
        if self.accept("op", "("):
            if not self.at("op", ")"):
                while True:
                    ptype = self.type_ann()
                    pname = self.expect_ident("parameter name")
                    params.append(VarDecl(ptype, pname))
                    if not self.accept("op", ","):
                        break
            self.expect("op", ")")
        self.expect("kw", "implements")
        implements = [self.expect_ident("interface name")]
        while self.accept("op", ","):
            implements.append(self.expect_ident("interface name"))
        self.expect("op", "{")
        attributes: list[VarDecl] = []
        methods: list[MethodDef] = []
        while not self.at("op", "}"):
            if self.at("kw", "sync"):
                methods.append(self.method_def())
                continue
            mark = self.pos
            dtype = self.type_ann()
            dname = self.expect_ident("name")
            if self.accept("op", ";"):
                attributes.append(VarDecl(dtype, dname))
            elif self.at("op", "("):
                self.pos = mark
                methods.append(self.method_def())
            else:
                raise self.error("expected ';' or '(' in class body")
        self.expect("op", "}")
        return ClassDecl(name, tuple(params), tuple(implements), tuple(attributes), tuple(methods))

    def method_def(self) -> MethodDef:
        sig = self.signature()
        locals_, body = self.block(allow_decls=True)
        return MethodDef(sig, locals_, body)

    def _starts_decl(self) -> bool:
        tok = self.peek()
        if tok.kind == "kw" and tok.text in ("Bool", "Int", "Fut", "Actor"):
            return True
        return tok.kind == "ident" and self.peek(1).kind == "ident"

    def block(self, allow_decls: bool) -> tuple[tuple[VarDecl, ...], tuple[Stmt, ...]]:
        self.expect("op", "{")
        decls: list[VarDecl] = []
        if allow_decls:
            while self._starts_decl():
                dtype = self.type_ann()
                dname = self.expect_ident("variable name")
                self.expect("op", ";")
                decls.append(VarDecl(dtype, dname))
        stmts: list[Stmt] = []
        while not self.at("op", "}"):
            stmts.append(self.statement())
        self.expect("op", "}")
        return tuple(decls), tuple(stmts)

    # ---- statements

    def statement(self) -> Stmt:
        if self.accept("kw", "if"):
            cond = self.expression()
            _, then = self.block(allow_decls=False)
            self.expect("kw", "else")
            _, orelse = self.block(allow_decls=False)
            return If(cond, then, orelse)
        if self.accept("kw", "while"):
            cond = self.expression()
            _, body = self.block(allow_decls=False)
            return While(cond, body)
        if self.accept("kw", "return"):
            value = self.expression()
            self.expect("op", ";")
            return Return(value)
        if self.at("ident") and self.peek(1).kind == "op" and self.peek(1).text == "=":
            target = self.advance().text
            self.advance()  # '='
            value = self.expression()
            self.expect("op", ";")
            return Assign(target, value)
        # Only e.get remains; the postfix parser stops in front of ".get".
        value = self.expression()
        if self.accept("op", "."):
            self.expect("ident", "get")
            self.expect("op", ";")
            return GetStmt(value)
        raise self.error("expected a statement")

    # ---- expressions (precedence: && < comparisons < additive < postfix)

    def expression(self) -> Expr:
        left = self.comparison()
        while self.at("op", "&&"):
            self.advance()
            left = BinOp("&&", left, self.comparison())
        return left

    def comparison(self) -> Expr:
        left = self.additive()
        tok = self.peek()
        if tok.kind == "op" and tok.text in ("==", "!=", "<", "<=", ">", ">="):
            self.advance()
            return BinOp(tok.text, left, self.additive())
        return left

    def additive(self) -> Expr:
        left = self.postfix()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in ("+", "-"):
                self.advance()
                left = BinOp(tok.text, left, self.postfix())
            else:
                return left

    def postfix(self) -> Expr:
        e = self.primary()
        while True:
            if self.at("op", "."):
                nxt = self.peek(1)
                after = self.peek(2)
                if nxt.kind == "ident" and nxt.text == "get" and not (
                    after.kind == "op" and after.text == "("
                ):
                    return e  # leave ".get" for the statement parser
                self.advance()
                method = self.expect_ident("method name")
                self.expect("op", "(")
                args = self.call_args()
                e = SyncCall(e, method, args)
            elif self.at("op", "!"):
                self.advance()
                method = self.expect_ident("method name")
                self.expect("op", "(")
                args = self.call_args()
                e = AsyncCall(e, method, args)
            elif self.at("op", "?"):
                self.advance()
                e = Resolved(e)
            else:
                return e

    def call_args(self) -> tuple[Expr, ...]:
        args: list[Expr] = []
        if not self.at("op", ")"):
            while True:
                args.append(self.expression())
                if not self.accept("op", ","):
                    break
        self.expect("op", ")")
        return tuple(args)

    def primary(self) -> Expr:
        if self.accept("kw", "null"):
            return NullLit()
        if self.accept("kw", "true"):
            return BoolLit(True)
        if self.accept("kw", "false"):
            return BoolLit(False)
        if self.accept("kw", "this"):
            return This()
        if self.at("int"):
            return IntLit(int(self.advance().text))
        if self.accept("kw", "new"):
            is_actor = self.accept("kw", "actor") is not None
            name = self.expect_ident("class name")
            args: tuple[Expr, ...] = ()
            if self.accept("op", "("):
                args = self.call_args()
            return NewActor(name, args) if is_actor else NewObject(name, args)
        if self.accept("op", "("):
            e = self.expression()
            self.expect("op", ")")
            return e
        if self.at("ident"):
            return Var(self.advance().text)
        raise self.error(f"expected an expression, found {self.peek().text or self.peek().kind!r}")


def parse_program(source: str, filename: str | None = None) -> Program:
    """Parse and resolve a program, returning its AST.

    Raises ParseError for syntax trouble and ResolutionError when names,
    arities or statement placement rules are violated.
    """
    tokens = tokenize(source, filename)
    program = _Parser(tokens, filename).program()
    resolve(program)
    return program


# --------------------------------------------------------------------------
# name resolution


def _walk_exprs(e: Expr):
    yield e
    if isinstance(e, BinOp):
        yield from _walk_exprs(e.left)
        yield from _walk_exprs(e.right)
    elif isinstance(e, Resolved):
        yield from _walk_exprs(e.target)
    elif isinstance(e, (NewObject, NewActor)):
        for a in e.args:
            yield from _walk_exprs(a)
    elif isinstance(e, (SyncCall, AsyncCall)):
        yield from _walk_exprs(e.target)
        for a in e.args:
            yield from _walk_exprs(a)


class _Resolver:
    def __init__(self, program: Program):
        self.program = program
        self.ifaces: dict[str, InterfaceDecl] = {}
        self.classes: dict[str, ClassDecl] = {}
        # method name -> set of arities, across all interfaces and classes
        self.method_arities: dict[str, set[int]] = {}

    def fail(self, message: str) -> None:
        raise ResolutionError(message)

    def run(self) -> None:
        self.collect_names()
        for iface in self.program.interfaces:
            self.check_interface(iface)
        for cls in self.program.classes:
            self.check_class(cls)
        self.check_main()

    def collect_names(self) -> None:
        for iface in self.program.interfaces:
            if iface.name in self.ifaces:
                self.fail(f"duplicate interface name '{iface.name}'")
            self.ifaces[iface.name] = iface
        for cls in self.program.classes:
            if cls.name in self.classes:
                self.fail(f"duplicate class name '{cls.name}'")
            if cls.name in self.ifaces:
                self.fail(f"'{cls.name}' is declared both as an interface and a class")
            self.classes[cls.name] = cls
        for iface in self.program.interfaces:
            for sig in iface.signatures:
                self.method_arities.setdefault(sig.name, set()).add(sig.arity)
        for cls in self.program.classes:
            for m in cls.methods:
                self.method_arities.setdefault(m.sig.name, set()).add(m.sig.arity)

    def check_type(self, t: Type, where: str) -> None:
        if isinstance(t, FutType):
            self.check_type(t.inner, where)
        elif isinstance(t, ActorType):
            if t.interface not in self.ifaces:
                self.fail(f"undeclared interface '{t.interface}' in {where}")
        elif isinstance(t, InterfaceType):
            if t.name in self.classes:
                self.fail(f"class name '{t.name}' used as a type in {where}")
            if t.name not in self.ifaces:
                self.fail(f"undeclared interface '{t.name}' in {where}")

    def check_sig(self, sig: MethodSig, where: str) -> None:
        self.check_type(sig.return_type, where)
        seen: set[str] = set()
        for p in sig.params:
            self.check_name(p.name, f"parameter of {where}")
            if p.name in seen:
                self.fail(f"duplicate parameter '{p.name}' in {where}")
            seen.add(p.name)
            self.check_type(p.type, where)

    def check_name(self, name: str, where: str) -> None:
        if name in RESERVED_NAMES:
            self.fail(f"reserved name '{name}' declared as {where}")

    def check_interface(self, iface: InterfaceDecl) -> None:
        seen: set[str] = set()
        for sig in iface.signatures:
            if sig.name in seen:
                self.fail(f"duplicate method '{sig.name}' in interface '{iface.name}'")
            seen.add(sig.name)
            self.check_sig(sig, f"interface '{iface.name}'")

    def check_class(self, cls: ClassDecl) -> None:
        for name in cls.implements:
            if name not in self.ifaces:
                self.fail(f"class '{cls.name}' implements undeclared interface '{name}'")
        field_names: set[str] = set()
        for d in cls.fields:
            self.check_name(d.name, f"field of class '{cls.name}'")
            if d.name in field_names:
                self.fail(f"duplicate field '{d.name}' in class '{cls.name}'")
            field_names.add(d.name)
            self.check_type(d.type, f"class '{cls.name}'")
        by_name: dict[str, MethodDef] = {}
        for m in cls.methods:
            if m.sig.name in by_name:
                self.fail(f"duplicate method '{m.sig.name}' in class '{cls.name}'")
            by_name[m.sig.name] = m
            self.check_sig(m.sig, f"class '{cls.name}'")
        for iname in cls.implements:
            for sig in self.ifaces[iname].signatures:
                got = by_name.get(sig.name)
                if got is None:
                    self.fail(
                        f"class '{cls.name}' is missing method '{sig.name}' "
                        f"required by interface '{iname}'"
                    )
                if got.sig != sig:
                    self.fail(
                        f"method '{sig.name}' of class '{cls.name}' does not match "
                        f"the signature declared in interface '{iname}'"
                    )
        for m in cls.methods:
            self.check_method(cls, m, field_names)

    def check_method(self, cls: ClassDecl, m: MethodDef, field_names: set[str]) -> None:
        where = f"method '{cls.name}.{m.sig.name}'"
        scope = {p.name for p in m.sig.params}
        for d in m.locals:
            self.check_name(d.name, f"local of {where}")
            if d.name in scope:
                self.fail(f"duplicate local '{d.name}' in {where}")
            scope.add(d.name)
            self.check_type(d.type, where)
        self.check_body(m.body, scope | field_names, where, allow_this=True)
        self.check_returns(m.body, where)

    def check_returns(self, body: tuple[Stmt, ...], where: str) -> None:
        if not body or not isinstance(body[-1], Return):
            self.fail(f"{where} must end with a return statement")
        for s in walk_stmts(body):
            if isinstance(s, Return) and s is not body[-1]:
                self.fail(f"{where} has a return before the final statement")

    def check_main(self) -> None:
        scope: set[str] = set()
        for d in self.program.main_vars:
            self.check_name(d.name, "main variable")
            if d.name in scope:
                self.fail(f"duplicate variable '{d.name}' in main")
            scope.add(d.name)
            self.check_type(d.type, "main")
        for s in walk_stmts(self.program.main_body):
            if isinstance(s, Return):
                self.fail("return is not allowed in the main block")
        self.check_body(self.program.main_body, scope, "main", allow_this=False)

    # ---- statement and expression checks

    def check_body(self, body: tuple[Stmt, ...], scope: set[str], where: str, allow_this: bool) -> None:
        for s in walk_stmts(body):
            if isinstance(s, Assign):
                if s.target not in scope:
                    self.fail(f"assignment to undeclared variable '{s.target}' in {where}")
                self.check_rhs(s.value, scope, where, allow_this)
            elif isinstance(s, GetStmt):
                self.check_pure(s.value, scope, where, allow_this)
            elif isinstance(s, If):
                self.check_pure(s.cond, scope, where, allow_this)
            elif isinstance(s, While):
                self.check_pure(s.cond, scope, where, allow_this)
            elif isinstance(s, Return):
                self.check_pure(s.value, scope, where, allow_this)

    def check_rhs(self, e: Expr, scope: set[str], where: str, allow_this: bool) -> None:
        """The right side of an assignment: the only place calls and news go."""
        if isinstance(e, (NewObject, NewActor)):
            cls = self.classes.get(e.class_name)
            if cls is None:
                kind = "an interface" if e.class_name in self.ifaces else "undeclared"
                self.fail(f"'new' on {kind} name '{e.class_name}' in {where}")
            if len(e.args) != len(cls.params):
                self.fail(
                    f"constructor of '{e.class_name}' takes {len(cls.params)} "
                    f"argument(s), got {len(e.args)} in {where}"
                )
            for a in e.args:
                self.check_pure(a, scope, where, allow_this)
            return
        if isinstance(e, (SyncCall, AsyncCall)):
            arities = self.method_arities.get(e.method)
            if arities is None:
                self.fail(f"call to undeclared method '{e.method}' in {where}")
            if len(e.args) not in arities:
                self.fail(f"no method '{e.method}' takes {len(e.args)} argument(s) in {where}")
            self.check_pure(e.target, scope, where, allow_this)
            for a in e.args:
                self.check_pure(a, scope, where, allow_this)
            return
        self.check_pure(e, scope, where, allow_this)

    def check_pure(self, e: Expr, scope: set[str], where: str, allow_this: bool) -> None:
        """A call-free expression position: guards, arguments, operands."""
        for sub in _walk_exprs(e):
            if isinstance(sub, (SyncCall, AsyncCall, NewObject, NewActor)):
                self.fail(
                    f"calls and 'new' may appear only as the whole right-hand "
                    f"side of an assignment ({where})"
                )
            if isinstance(sub, Var) and sub.name not in scope:
                self.fail(f"undeclared variable '{sub.name}' in {where}")
            if isinstance(sub, This) and not allow_this:
                self.fail("'this' is not available in the main block")


def resolve(program: Program) -> Program:
    """Check naming, arity and placement rules; returns the program unchanged."""
    _Resolver(program).run()
    return program
