"""Lexer, recursive-descent parser and name resolution for ``.mac`` sources.

The concrete grammar is Java-flavoured: braces, semicolons, ``sync<a>``
before a parameter type, ``!`` for asynchronous calls and a postfix ``?``
for the resolved test.  Sources are ASCII: identifiers are
``[A-Za-z_][A-Za-z0-9_]*``, integers ``[0-9]+``, whitespace is space, tab,
CR, LF, FF or VT and is insignificant, and ``//`` starts a comment that runs
to the end of the line (only a comment may hold other characters).

Operators bind, loosest first: ``&&`` (left-associative), the comparisons
``== != < <= > >=`` (two operands, never chained), ``+`` and ``-``
(left-associative), then an operand's postfix ``.m(..)``, ``!m(..)`` and
``?``.  At most :data:`MAX_NESTING` brackets may be open around a token: the
``(`` of a parenthesized expression or of an argument or parameter list,
the ``{`` of a block or a declaration body, the ``<`` of a ``Fut`` or
``Actor`` type.  An expression counts, besides the brackets open around
it, the parentheses :func:`mactor.syntax.pretty_print` writes inside it,
one around each operand that is not a name or a literal, so the same
limit bounds a chain such as ``1 + 1 + ...`` or ``f??``, and whatever
parses prints and parses again.  Every layer below the parser recurses on
nesting, and at this depth each stays well inside Python's recursion
limit.

:func:`tokenize` scans the source once with one regular expression into the
token stream: the tokens' texts, as a text fixes its kind.  Tokens keep no
offset; only when an error is raised is its token's offset found, by
scanning the source again up to that token.

:func:`parse_program` raises :class:`ParseError` for token-level trouble
and :class:`ResolutionError` for name problems (undeclared interfaces,
duplicate names, missing method bodies, misplaced calls or returns).  A
ParseError has a 1-based line and column; a column counts characters, so a
tab is one column, and ``\\r\\n`` is one line break.
"""

from __future__ import annotations

import itertools
import re

from .syntax import (
    _ATOMS,
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

# Brackets that may be open around a token (see the module docstring).
MAX_NESTING = 100

# One match is the whitespace and comments before a token, then the token,
# the one group.  The last branch takes the first character no token starts
# with together with the rest of the source, so only eof ("") follows it.
_TOKEN_RE = re.compile(
    r"""\s*(?://[^\n]*\s*)*
      ( [A-Za-z_]\w* | \d+ | [{}();,.?+\-] | [<>=!]=? | && | \Z | .+ )""",
    re.ASCII | re.DOTALL | re.VERBOSE,
)
_OPERATORS = frozenset("== != <= >= && { } ( ) < > , ; = . ! ? + -".split())
_WORD_START = frozenset("_0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_COMPARISONS = frozenset(("==", "!=", "<", "<=", ">", ">="))


def _error_at(source: str, offset: int, message: str, filename: str | None) -> ParseError:
    line_start = source.rfind("\n", 0, offset) + 1
    return ParseError(message, source.count("\n", 0, offset) + 1, offset - line_start + 1, filename)


def tokenize(source: str, filename: str | None = None) -> list[str]:
    """The text of each token, then at least three eof tokens (``""``) so
    that the parser looks two tokens ahead without a bounds check."""
    tokens = _TOKEN_RE.findall(source)
    # eof comes twice after trailing whitespace, and once after the last
    # branch's match, which is then the token before it
    last = tokens[-2] if len(tokens) > 1 else ""
    if last and last[0] not in _WORD_START and last not in _OPERATORS:
        raise _error_at(source, len(source) - len(last), f"unexpected character {last[0]!r}", filename)
    tokens += ("", "")
    return tokens


def _is_name(text: str) -> bool:
    """Whether a token is an identifier (tokens are ASCII)."""
    return text.isidentifier() and text not in KEYWORDS


def _offset(source: str, index: int) -> int:
    """Where token ``index`` starts, found again for an error."""
    return next(itertools.islice(_TOKEN_RE.finditer(source), index, None)).start(1)


class _Parser:
    # Keywords and operators are reserved spellings, so a wanted one, or
    # "get", is matched on the text alone.  The parser steps only over
    # tokens it has matched, so it never passes the first eof and looking
    # two tokens ahead stays inside the eof padding.

    def __init__(self, source: str, filename: str | None):
        self.source = source
        self.filename = filename
        self.tokens = tokenize(source, filename)
        self.pos = 0
        self.depth = 0  # brackets open around the current token
        # the parentheses pretty_print writes inside the expression just parsed
        self.inner = 0

    # ---- token plumbing

    def error(self, message: str) -> ParseError:
        return _error_at(self.source, _offset(self.source, self.pos), message, self.filename)

    def unexpected(self, wanted: str) -> ParseError:
        return self.error(f"expected {wanted}, found {self.tokens[self.pos] or 'eof'!r}")

    def accept(self, text: str) -> bool:
        if self.tokens[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> None:
        if self.tokens[self.pos] != text:
            raise self.unexpected(repr(text))
        self.pos += 1

    def expect_ident(self, what: str) -> str:
        text = self.tokens[self.pos]
        if not _is_name(text):
            raise self.unexpected(what)
        self.pos += 1
        return text

    def open(self, bracket: str) -> None:
        """Step over an opening bracket, one level deeper."""
        if self.tokens[self.pos] != bracket:
            raise self.unexpected(repr(bracket))
        if self.depth == MAX_NESTING:
            raise self.error(f"brackets nested more than {MAX_NESTING} deep")
        self.depth += 1
        self.pos += 1

    def close(self, bracket: str) -> None:
        self.expect(bracket)
        self.depth -= 1

    def nested(self, e: Expr, inner: int, at: int) -> Expr:
        """``e``, built by the operator at token ``at``, with ``inner``
        parentheses inside it when printed; a ParseError at that operator
        if they and the brackets open around it pass the limit."""
        if self.depth + inner > MAX_NESTING:
            self.pos = at
            raise self.error(f"expression nested more than {MAX_NESTING} deep")
        self.inner = inner
        return e

    # ---- declarations

    def program(self) -> Program:
        interfaces = []
        while self.tokens[self.pos] == "interface":
            interfaces.append(self.interface_decl())
        classes = []
        while self.tokens[self.pos] == "class":
            classes.append(self.class_decl())
        main_vars, main_body = self.block(allow_decls=True)
        if self.tokens[self.pos]:
            raise self.error("expected end of input")
        return Program(tuple(interfaces), tuple(classes), main_vars, main_body)

    def interface_decl(self) -> InterfaceDecl:
        self.pos += 1
        name = self.expect_ident("interface name")
        self.open("{")
        sigs = []
        while self.tokens[self.pos] != "}":
            sigs.append(self.signature())
            self.expect(";")
        self.close("}")
        return InterfaceDecl(name, tuple(sigs))

    def sync_label(self) -> str | None:
        if self.accept("sync"):
            self.expect("<")
            label = self.expect_ident("sync label")
            self.expect(">")
            return label
        return None

    def signature(self) -> MethodSig:
        return_label = self.sync_label()
        return_type = self.type_ann()
        name = self.expect_ident("method name")
        self.open("(")
        params = []
        if self.tokens[self.pos] != ")":
            while True:
                label = self.sync_label()
                ptype = self.type_ann()
                pname = self.expect_ident("parameter name")
                params.append(Param(label, ptype, pname))
                if not self.accept(","):
                    break
        self.close(")")
        return MethodSig(return_label, return_type, name, tuple(params))

    def type_ann(self) -> Type:
        text = self.tokens[self.pos]
        if text == "Int":
            self.pos += 1
            return INT
        if text == "Bool":
            self.pos += 1
            return BOOL
        if text == "Fut":
            self.pos += 1
            self.open("<")
            inner = self.type_ann()
            self.close(">")
            return FutType(inner)
        if text == "Actor":
            self.pos += 1
            self.open("<")
            name = self.expect_ident("interface name")
            self.close(">")
            return ActorType(name)
        name = self.expect_ident("type")
        return InterfaceType(name)

    def class_decl(self) -> ClassDecl:
        self.pos += 1
        name = self.expect_ident("class name")
        params: list[VarDecl] = []
        if self.tokens[self.pos] == "(":
            self.open("(")
            if self.tokens[self.pos] != ")":
                while True:
                    ptype = self.type_ann()
                    pname = self.expect_ident("parameter name")
                    params.append(VarDecl(ptype, pname))
                    if not self.accept(","):
                        break
            self.close(")")
        self.expect("implements")
        implements = [self.expect_ident("interface name")]
        while self.accept(","):
            implements.append(self.expect_ident("interface name"))
        self.open("{")
        attributes: list[VarDecl] = []
        methods: list[MethodDef] = []
        while self.tokens[self.pos] != "}":
            if self.tokens[self.pos] == "sync":
                methods.append(self.method_def())
                continue
            mark = self.pos
            dtype = self.type_ann()
            dname = self.expect_ident("name")
            if self.accept(";"):
                attributes.append(VarDecl(dtype, dname))
            elif self.tokens[self.pos] == "(":
                self.pos = mark
                methods.append(self.method_def())
            else:
                raise self.error("expected ';' or '(' in class body")
        self.close("}")
        return ClassDecl(name, tuple(params), tuple(implements), tuple(attributes), tuple(methods))

    def method_def(self) -> MethodDef:
        sig = self.signature()
        locals_, body = self.block(allow_decls=True)
        return MethodDef(sig, locals_, body)

    def block(self, allow_decls: bool) -> tuple[tuple[VarDecl, ...], tuple[Stmt, ...]]:
        self.open("{")
        tokens = self.tokens
        decls: list[VarDecl] = []
        if allow_decls:
            # a declaration starts with a type: a type keyword, or an
            # interface name followed by the variable's name
            while (text := tokens[self.pos]) in ("Bool", "Int", "Fut", "Actor") or (
                _is_name(tokens[self.pos + 1]) and _is_name(text)
            ):
                dtype = self.type_ann()
                dname = self.expect_ident("variable name")
                self.expect(";")
                decls.append(VarDecl(dtype, dname))
        stmts: list[Stmt] = []
        while tokens[self.pos] != "}":
            stmts.append(self.statement())
        self.close("}")
        return tuple(decls), tuple(stmts)

    # ---- statements

    def statement(self) -> Stmt:
        tokens = self.tokens
        text = tokens[self.pos]
        if text == "if":
            self.pos += 1
            cond = self.expression()
            _, then = self.block(allow_decls=False)
            self.expect("else")
            _, orelse = self.block(allow_decls=False)
            return If(cond, then, orelse)
        if text == "while":
            self.pos += 1
            cond = self.expression()
            _, body = self.block(allow_decls=False)
            return While(cond, body)
        if text == "return":
            self.pos += 1
            value = self.expression()
            self.expect(";")
            return Return(value)
        if tokens[self.pos + 1] == "=" and _is_name(text):
            self.pos += 2
            value = self.expression()
            self.expect(";")
            return Assign(text, value)
        # Only e.get remains; an operand stops in front of ".get".
        value = self.expression()
        if self.tokens[self.pos] == ".":
            value = self.nested(value, self.inner + (type(value) not in _ATOMS), self.pos)
            self.pos += 1
            self.expect("get")
            self.expect(";")
            return GetStmt(value)
        raise self.error("expected a statement")

    # ---- expressions, by precedence (see the module docstring)

    def expression(self) -> Expr:
        left = self.comparison()
        while self.tokens[self.pos] == "&&":
            left = self.operator(left, self.comparison)
        return left

    def comparison(self) -> Expr:
        left = self.sum()
        if self.tokens[self.pos] in _COMPARISONS:
            left = self.operator(left, self.sum)
        return left

    def sum(self) -> Expr:
        left = self.operand()
        tokens = self.tokens
        while (op := tokens[self.pos]) == "+" or op == "-":
            left = self.operator(left, self.operand)
        return left

    def operator(self, left: Expr, operand) -> BinOp:
        """``left``, then the operator at the current token and the
        operand after it, which ``operand`` parses.  pretty_print writes
        an operand that is not atomic in parentheses."""
        at = self.pos
        inner = self.inner + (type(left) not in _ATOMS)
        self.pos += 1
        right = operand()
        if type(right) not in _ATOMS and self.inner >= inner:
            inner = self.inner + 1
        return self.nested(BinOp(self.tokens[at], left, right), inner, at)

    def operand(self) -> Expr:
        """A primary expression, then its calls, sends and ``?`` tests."""
        tokens = self.tokens
        text = tokens[self.pos]
        self.inner = 0
        if text == "new":
            self.pos += 1
            is_actor = self.accept("actor")
            name = self.expect_ident("class name")
            args = self.call_args() if tokens[self.pos] == "(" else ()
            e = NewActor(name, args) if is_actor else NewObject(name, args)
        elif text == "(":
            self.open("(")
            e = self.expression()
            self.close(")")
        else:
            if _is_name(text):
                e = Var(text)
            elif text[:1].isdigit():  # only ASCII digits get past tokenize
                e = IntLit(int(text))
            elif text == "this":
                e = This()
            elif text == "true" or text == "false":
                e = BoolLit(text == "true")
            elif text == "null":
                e = NullLit()
            else:
                raise self.unexpected("an expression")
            self.pos += 1
        while True:
            text = tokens[self.pos]
            if text == "." or text == "!":
                if text == "." and tokens[self.pos + 1] == "get" and tokens[self.pos + 2] != "(":
                    return e  # leave ".get" for the statement parser
                at = self.pos
                inner = self.inner + (type(e) not in _ATOMS)
                self.pos += 1
                method = self.expect_ident("method name")
                args = self.call_args()
                e = SyncCall(e, method, args) if text == "." else AsyncCall(e, method, args)
                e = self.nested(e, inner if inner > self.inner else self.inner, at)
            elif text == "?":
                e = self.nested(Resolved(e), self.inner + (type(e) not in _ATOMS), self.pos)
                self.pos += 1
            else:
                return e

    def call_args(self) -> tuple[Expr, ...]:
        """The arguments; ``inner`` counts the list's parenthesis."""
        self.open("(")
        args: list[Expr] = []
        inner = 0
        if self.tokens[self.pos] != ")":
            while True:
                args.append(self.expression())
                if self.inner >= inner:
                    inner = self.inner + 1
                if not self.accept(","):
                    break
        self.close(")")
        self.inner = inner
        return tuple(args)


def parse_program(source: str, filename: str | None = None) -> Program:
    """Parse and resolve a program, returning its AST.

    Raises ParseError for syntax trouble and ResolutionError when names,
    arities or statement placement rules are violated.
    """
    program = _Parser(source, filename).program()
    resolve(program)
    return program


# --------------------------------------------------------------------------
# name resolution

class _Resolver:
    def __init__(self):
        self.ifaces: dict[str, InterfaceDecl] = {}
        self.classes: dict[str, ClassDecl] = {}
        # method name -> set of arities, across all interfaces and classes
        self.method_arities: dict[str, set[int]] = {}

    def fail(self, message: str) -> None:
        raise ResolutionError(message)

    def run(self, program: Program) -> None:
        for iface in program.interfaces:
            if iface.name in self.ifaces:
                self.fail(f"duplicate interface name '{iface.name}'")
            self.ifaces[iface.name] = iface
        for cls in program.classes:
            if cls.name in self.classes:
                self.fail(f"duplicate class name '{cls.name}'")
            if cls.name in self.ifaces:
                self.fail(f"'{cls.name}' is declared both as an interface and a class")
            self.classes[cls.name] = cls
        sigs = [sig for iface in program.interfaces for sig in iface.signatures]
        for sig in sigs + [m.sig for cls in program.classes for m in cls.methods]:
            self.method_arities.setdefault(sig.name, set()).add(sig.arity)
        for iface in program.interfaces:
            self.check_sigs(iface.signatures, f"interface '{iface.name}'")
        for cls in program.classes:
            self.check_class(cls)
        scope = self.declare(program.main_vars, set(), "variable", "main")
        try:
            has_return = self.check_stmts(program.main_body, scope, "main", None)
        except ResolutionError:
            # a return anywhere in main outranks the body error met first
            has_return = any(type(s) is Return for s in walk_stmts(program.main_body))
            if not has_return:
                raise
        if has_return:
            self.fail("return is not allowed in the main block")

    def check_type(self, t: Type, where: str) -> None:
        while type(t) is FutType:
            t = t.inner
        if type(t) is ActorType:
            if t.interface not in self.ifaces:
                self.fail(f"undeclared interface '{t.interface}' in {where}")
        elif type(t) is InterfaceType:
            if t.name in self.classes:
                self.fail(f"class name '{t.name}' used as a type in {where}")
            if t.name not in self.ifaces:
                self.fail(f"undeclared interface '{t.name}' in {where}")

    def declare(self, decls: tuple, scope: set[str], noun: str, where: str) -> set[str]:
        """Add each name to ``scope`` in order, checking it and its type."""
        for d in decls:
            if d.name in RESERVED_NAMES:
                role = f"main {noun}" if where == "main" else f"{noun} of {where}"
                self.fail(f"reserved name '{d.name}' declared as {role}")
            if d.name in scope:
                self.fail(f"duplicate {noun} '{d.name}' in {where}")
            scope.add(d.name)
            self.check_type(d.type, where)
        return scope

    def check_sigs(self, sigs: tuple[MethodSig, ...], where: str) -> dict[str, MethodSig]:
        """Check each method name is new, then its signature; returns them by name."""
        by_name: dict[str, MethodSig] = {}
        for sig in sigs:
            if sig.name in by_name:
                self.fail(f"duplicate method '{sig.name}' in {where}")
            by_name[sig.name] = sig
            self.check_type(sig.return_type, where)
            self.declare(sig.params, set(), "parameter", where)
        return by_name

    def check_class(self, cls: ClassDecl) -> None:
        for name in cls.implements:
            if name not in self.ifaces:
                self.fail(f"class '{cls.name}' implements undeclared interface '{name}'")
        where = f"class '{cls.name}'"
        field_names = self.declare(cls.fields, set(), "field", where)
        sigs = self.check_sigs(tuple(m.sig for m in cls.methods), where)
        for iname in cls.implements:
            for sig in self.ifaces[iname].signatures:
                got = sigs.get(sig.name)
                if got is None:
                    self.fail(
                        f"class '{cls.name}' is missing method '{sig.name}' "
                        f"required by interface '{iname}'"
                    )
                if got != sig:
                    self.fail(
                        f"method '{sig.name}' of class '{cls.name}' does not match "
                        f"the signature declared in interface '{iname}'"
                    )
        for m in cls.methods:
            where = f"method '{cls.name}.{m.sig.name}'"
            params = {p.name for p in m.sig.params}
            scope = self.declare(m.locals, params, "local", where)
            final = m.body[-1] if m.body else None
            early = self.check_stmts(m.body, scope | field_names, where, final)
            if type(final) is not Return:
                self.fail(f"{where} must end with a return statement")
            if early:
                self.fail(f"{where} has a return before the final statement")

    def check_stmts(self, body: tuple[Stmt, ...], scope: set[str], where: str, final: Stmt | None) -> bool:
        """Check statements, nested ones included, in source order; true if a
        return other than ``final`` was met, for the caller to report last."""
        early = False
        for s in body:
            kind = type(s)
            if kind is Assign:
                if s.target not in scope:
                    self.fail(f"assignment to undeclared variable '{s.target}' in {where}")
                self.check_rhs(s.value, scope, where)
            elif kind is If:
                self.check_expr(s.cond, scope, where)
                early |= self.check_stmts(s.then + s.orelse, scope, where, final)
            elif kind is While:
                self.check_expr(s.cond, scope, where)
                early |= self.check_stmts(s.body, scope, where, final)
            else:  # GetStmt or Return
                self.check_expr(s.value, scope, where)
                early |= kind is Return and s is not final
        return early

    def check_rhs(self, e: Expr, scope: set[str], where: str) -> None:
        """The right side of an assignment: the only place calls and news go."""
        kind = type(e)
        if kind is NewObject or kind is NewActor:
            cls = self.classes.get(e.class_name)
            if cls is None:
                what = "an interface" if e.class_name in self.ifaces else "undeclared"
                self.fail(f"'new' on {what} name '{e.class_name}' in {where}")
            if len(e.args) != len(cls.params):
                self.fail(
                    f"constructor of '{e.class_name}' takes {len(cls.params)} "
                    f"argument(s), got {len(e.args)} in {where}"
                )
            for a in e.args:
                self.check_expr(a, scope, where)
        elif kind is SyncCall or kind is AsyncCall:
            arities = self.method_arities.get(e.method)
            if arities is None:
                self.fail(f"call to undeclared method '{e.method}' in {where}")
            if len(e.args) not in arities:
                self.fail(f"no method '{e.method}' takes {len(e.args)} argument(s) in {where}")
            self.check_expr(e.target, scope, where)
            for a in e.args:
                self.check_expr(a, scope, where)
        else:
            self.check_expr(e, scope, where)

    def check_expr(self, e: Expr, scope: set[str], where: str) -> None:
        """A call-free expression position: guards, arguments, operands."""
        kind = type(e)
        if kind is Var and e.name not in scope:
            self.fail(f"undeclared variable '{e.name}' in {where}")
        elif kind is BinOp:
            self.check_expr(e.left, scope, where)
            self.check_expr(e.right, scope, where)
        elif kind is Resolved:
            self.check_expr(e.target, scope, where)
        elif kind is This and where == "main":
            self.fail("'this' is not available in the main block")
        elif kind in (SyncCall, AsyncCall, NewObject, NewActor):
            self.fail(
                f"calls and 'new' may appear only as the whole right-hand "
                f"side of an assignment ({where})"
            )


def resolve(program: Program) -> Program:
    """Check naming, arity and placement rules; returns the program unchanged.

    Names are declared once and none is reserved; types name declared
    interfaces, which each implementing class matches signature for signature;
    variables are declared, ``this`` is used in methods only; calls and
    ``new``, of a declared method or class with a matching argument count,
    stand only as a whole assignment right-hand side; a method ends in its one
    ``return`` and main has none.

    The first error is raised.  Order: interface and class names; per
    interface each method's name then signature; per class ``implements``,
    fields, each method's name then signature, conformance, bodies; main.  In
    a method, body errors come in source order, then "must end with a return
    statement", then "has a return before the final statement"; in main, a
    ``return`` comes before any other body error.
    """
    _Resolver().run(program)
    return program
