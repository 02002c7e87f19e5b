"""Abstract syntax for the MAC object language.

A program declares interfaces, classes and a main block.  Classes group
constructor parameters, attributes and method bodies; method signatures may
mark parameters with ``sync<label>``, which the scheduler later turns into
(label, value) lock entries.  Statement sequences are plain tuples (if/while
branches included), so every node is immutable, hashable and compares
structurally.  None of the nodes carry source positions; parse errors do,
which keeps round-tripping through :func:`pretty_print` an exact identity.

:func:`_node` makes each node class a ``dataclass(frozen=True, slots=True)``:
assigning to a field raises ``FrozenInstanceError``, and ``__eq__``,
``__hash__`` and ``__repr__`` are the dataclass ones.  Its ``__init__``,
which takes the fields by position or keyword, stores each in its slot
through the slot's member descriptor: in about half the time of a frozen
dataclass's, which goes through ``object.__setattr__``, and the parser
builds hundreds of nodes per program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


def _node(cls: type) -> type:
    """``cls`` as a node class (see above); no node field has a default."""
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    names = cls.__slots__
    setters = {f"_set_{name}": getattr(cls, name).__set__ for name in names}
    body = "".join(f"\n    _set_{name}(self, {name})" for name in names) or " pass"
    exec(f"def __init__({', '.join(('self', *names))}):{body}", setters)
    cls.__init__ = setters["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return cls


# --------------------------------------------------------------------------
# types

class Type:
    __slots__ = ()


@_node
class BoolType(Type):
    def __str__(self) -> str:
        return "Bool"


@_node
class IntType(Type):
    def __str__(self) -> str:
        return "Int"


@_node
class InterfaceType(Type):
    name: str

    def __str__(self) -> str:
        return self.name


@_node
class ActorType(Type):
    """Reference to an actor group whose members serve interface `interface`."""

    interface: str

    def __str__(self) -> str:
        return f"Actor<{self.interface}>"


@_node
class FutType(Type):
    inner: Type

    def __str__(self) -> str:
        return f"Fut<{self.inner}>"


BOOL = BoolType()
INT = IntType()


# --------------------------------------------------------------------------
# expressions

class Expr:
    __slots__ = ()


@_node
class NullLit(Expr):
    pass


@_node
class BoolLit(Expr):
    value: bool


@_node
class IntLit(Expr):
    value: int


@_node
class Var(Expr):
    name: str


@_node
class This(Expr):
    pass


@_node
class BinOp(Expr):
    """Binary operator; op is one of + - == != < <= > >= &&."""

    op: str
    left: Expr
    right: Expr


@_node
class Resolved(Expr):
    """The postfix ``e?`` test: true once the future held by e has a value."""

    target: Expr


@_node
class NewObject(Expr):
    """``new C(args)``: a new active object inside the creator's own group."""

    class_name: str
    args: tuple[Expr, ...]


@_node
class NewActor(Expr):
    """``new actor C(args)``: a fresh group whose identity is its first object."""

    class_name: str
    args: tuple[Expr, ...]


@_node
class SyncCall(Expr):
    target: Expr
    method: str
    args: tuple[Expr, ...]


@_node
class AsyncCall(Expr):
    target: Expr
    method: str
    args: tuple[Expr, ...]


# --------------------------------------------------------------------------
# statements

class Stmt:
    __slots__ = ()


@_node
class Assign(Stmt):
    target: str
    value: Expr


@_node
class GetStmt(Stmt):
    """``e.get;`` blocks the executing object until the future resolves."""

    value: Expr


@_node
class If(Stmt):
    cond: Expr
    then: tuple[Stmt, ...]
    orelse: tuple[Stmt, ...]


@_node
class While(Stmt):
    cond: Expr
    body: tuple[Stmt, ...]


@_node
class Return(Stmt):
    value: Expr


def walk_stmts(stmts: tuple[Stmt, ...]) -> Iterator[Stmt]:
    """Every statement of ``stmts``, nested ones included, in source order."""
    for s in stmts:
        yield s
        if isinstance(s, If):
            yield from walk_stmts(s.then + s.orelse)
        elif isinstance(s, While):
            yield from walk_stmts(s.body)


# --------------------------------------------------------------------------
# declarations

@_node
class VarDecl:
    type: Type
    name: str


@_node
class Param:
    """Signature parameter; label is the sync lock name or None."""

    label: str | None
    type: Type
    name: str


@_node
class MethodSig:
    # A label on the return position is accepted by the grammar and kept
    # here, but nothing in scheduling consumes it.
    return_label: str | None
    return_type: Type
    name: str
    params: tuple[Param, ...]

    @property
    def arity(self) -> int:
        return len(self.params)

    @property
    def param_labels(self) -> tuple[str | None, ...]:
        return tuple(p.label for p in self.params)


@_node
class MethodDef:
    sig: MethodSig
    locals: tuple[VarDecl, ...]
    body: tuple[Stmt, ...]


@_node
class InterfaceDecl:
    name: str
    signatures: tuple[MethodSig, ...]


@_node
class ClassDecl:
    name: str
    params: tuple[VarDecl, ...]
    implements: tuple[str, ...]
    attributes: tuple[VarDecl, ...]
    methods: tuple[MethodDef, ...]

    @property
    def fields(self) -> tuple[VarDecl, ...]:
        """Object fields: constructor parameters followed by attributes."""
        return self.params + self.attributes


@_node
class Program:
    interfaces: tuple[InterfaceDecl, ...]
    classes: tuple[ClassDecl, ...]
    main_vars: tuple[VarDecl, ...]
    main_body: tuple[Stmt, ...]


# --------------------------------------------------------------------------
# pretty printer

_ATOMS = (NullLit, BoolLit, IntLit, Var, This)


def _operand(e: Expr) -> str:
    """Format a subexpression, parenthesized unless atomic.

    Full parentheses make the printed form re-parse to the identical tree,
    whatever the nesting of operators.
    """
    text = format_expr(e)
    if isinstance(e, _ATOMS):
        return text
    return f"({text})"


def format_expr(e: Expr) -> str:
    if isinstance(e, NullLit):
        return "null"
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, This):
        return "this"
    if isinstance(e, BinOp):
        return f"{_operand(e.left)} {e.op} {_operand(e.right)}"
    if isinstance(e, Resolved):
        return f"{_operand(e.target)}?"
    if isinstance(e, NewObject):
        return f"new {e.class_name}({_args(e.args)})"
    if isinstance(e, NewActor):
        return f"new actor {e.class_name}({_args(e.args)})"
    if isinstance(e, SyncCall):
        return f"{_operand(e.target)}.{e.method}({_args(e.args)})"
    if isinstance(e, AsyncCall):
        return f"{_operand(e.target)}!{e.method}({_args(e.args)})"
    raise TypeError(f"cannot print expression {e!r}")


def _args(args: tuple[Expr, ...]) -> str:
    return ", ".join(format_expr(a) for a in args)


def _param(p: Param) -> str:
    label = f"sync<{p.label}> " if p.label else ""
    return f"{label}{p.type} {p.name}"


def format_sig(sig: MethodSig) -> str:
    ret = f"sync<{sig.return_label}> " if sig.return_label else ""
    params = ", ".join(_param(p) for p in sig.params)
    return f"{ret}{sig.return_type} {sig.name}({params})"


def _stmts(body: tuple[Stmt, ...], indent: str, out: list[str]) -> None:
    for s in body:
        _stmt(s, indent, out)


def _stmt(s: Stmt, indent: str, out: list[str]) -> None:
    if isinstance(s, Assign):
        out.append(f"{indent}{s.target} = {format_expr(s.value)};")
    elif isinstance(s, GetStmt):
        out.append(f"{indent}{_operand(s.value)}.get;")
    elif isinstance(s, If):
        out.append(f"{indent}if {format_expr(s.cond)} {{")
        _stmts(s.then, indent + "  ", out)
        out.append(f"{indent}}} else {{")
        _stmts(s.orelse, indent + "  ", out)
        out.append(f"{indent}}}")
    elif isinstance(s, While):
        out.append(f"{indent}while {format_expr(s.cond)} {{")
        _stmts(s.body, indent + "  ", out)
        out.append(f"{indent}}}")
    elif isinstance(s, Return):
        out.append(f"{indent}return {format_expr(s.value)};")
    else:
        raise TypeError(f"cannot print statement {s!r}")


def pretty_print(program: Program) -> str:
    """Render a program as canonical source text.

    Parsing the result yields a structurally identical tree: optional
    constructor argument lists come out normalized to ``()`` and all operator
    nesting is made explicit with parentheses.
    """
    out: list[str] = []
    for iface in program.interfaces:
        out.append(f"interface {iface.name} {{")
        for sig in iface.signatures:
            out.append(f"  {format_sig(sig)};")
        out.append("}")
        out.append("")
    for cls in program.classes:
        params = ""
        if cls.params:
            params = "(" + ", ".join(f"{d.type} {d.name}" for d in cls.params) + ")"
        impls = ", ".join(cls.implements)
        out.append(f"class {cls.name}{params} implements {impls} {{")
        for attr in cls.attributes:
            out.append(f"  {attr.type} {attr.name};")
        for m in cls.methods:
            out.append(f"  {format_sig(m.sig)} {{")
            for d in m.locals:
                out.append(f"    {d.type} {d.name};")
            _stmts(m.body, "    ", out)
            out.append("  }")
        out.append("}")
        out.append("")
    if not program.main_vars and not program.main_body:
        out.append("{ }")
    else:
        out.append("{")
        for d in program.main_vars:
            out.append(f"  {d.type} {d.name};")
        _stmts(program.main_body, "  ", out)
        out.append("}")
    return "\n".join(out) + "\n"
