"""Small-step interpreter for MAC programs.

The machine state (:class:`Configuration`) mirrors the runtime structure of
the language: a heap of active-object records, one event queue per actor
group, a store of futures, and per group the call-stack thread of each
member object.  :func:`enabled_steps` enumerates every transition rule
instance whose premises hold in a configuration, :func:`step` applies one,
and :func:`run` drives the machine under a schedule policy.  Steps are pure:
they build a new configuration and never touch the old one, which is what
lets the explorer fan out over all interleavings.

Runtime errors in the interpreted program (calling a method on null, an
asynchronous call on a plain object, a non-boolean guard) do not raise in
the host; they produce a terminal configuration whose ``fault`` field holds
the diagnostic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter, itemgetter
from typing import Callable, NamedTuple, Optional, Sequence

from .scheduler import (
    EMPTY_LOCKS,
    QueuedMessage,
    SyncEntry,
    lock_union,
    select as default_select,
    sync_set_of,
)
from .syntax import (
    Assign,
    AsyncCall,
    BinOp,
    BoolLit,
    BoolType,
    ClassDecl,
    Expr,
    GetStmt,
    If,
    IntLit,
    IntType,
    MethodDef,
    MethodSig,
    NewActor,
    NewObject,
    NullLit,
    Program,
    Resolved,
    Return,
    Stmt,
    SyncCall,
    This,
    Type,
    Var,
    While,
    walk_stmts,
)


# --------------------------------------------------------------------------
# runtime values

class _Ref(tuple):
    """A reference: the tuple ``(tag, id)``, so that hashing and equality
    run in C.  Each kind sets its own int ``_tag`` and repr ``_prefix``, so
    references of two kinds never compare equal, a reference never equals
    an int or a bool, and hashes do not depend on ``PYTHONHASHSEED``."""

    __slots__ = ()

    def __new__(cls, id: int):
        return tuple.__new__(cls, (cls._tag, id))

    id = property(itemgetter(1))

    def __repr__(self) -> str:
        return f"{self._prefix}{self[1]}"

    def __getnewargs__(self):  # copy and pickle rebuild from the id
        return (self[1],)


class ObjRef(_Ref):
    """Reference to an active object.  A group is identified by the
    reference of its first object, so actor references are ObjRefs too;
    whether a reference names a group is decided by the queue domain."""

    __slots__ = ()
    _tag = 0
    _prefix = "obj"


class FutRef(_Ref):
    __slots__ = ()
    _tag = 1
    _prefix = "fut"


class _PendingType:
    __slots__ = ()

    def __repr__(self) -> str:
        return "<pending>"


PENDING = _PendingType()

# Values flowing through the machine: None, bool, int, ObjRef, FutRef.
Value = object


def default_value(t: Type) -> Value:
    if isinstance(t, BoolType):
        return False
    if isinstance(t, IntType):
        return 0
    return None


def _method_frame(mdef: MethodDef, env: dict, args: Sequence) -> dict:
    """The environment a method starts in: ``env`` (``this``, and ``dest``
    for a message), the parameters bound to ``args``, the locals at their
    default value."""
    for p, v in zip(mdef.sig.params, args):
        env[p.name] = v
    for d in mdef.locals:
        env[d.name] = default_value(d.type)
    return env


# Internal expression forms used only by the step rules, never produced by
# the parser and never printed.

@dataclass(frozen=True, slots=True)
class ValueLit(Expr):
    """Wraps an already-computed runtime value (synchronous return rewrite)."""

    value: Value


@dataclass(frozen=True, slots=True)
class Hole(Expr):
    """Placeholder right-hand side while a synchronous callee runs."""


# --------------------------------------------------------------------------
# machine state

class Closure:
    """A frame of a thread.  Treat as immutable; steps build new ones."""

    __slots__ = ("env", "stmts", "_id", "_env_id", "_access")

    def __init__(self, env: dict, stmts: tuple[Stmt, ...]):
        self.env = env  # var name -> Value; includes 'this' and, in message bodies, 'dest'
        self.stmts = stmts
        # interned keys of the closure and of its env, set by
        # ProgramIndex.closure_id on first use
        self._id = self._env_id = None
        # what the rest of the closure may access, set by _closure_access
        self._access = None

    def with_stmts(self, stmts: tuple) -> "Closure":
        """This environment running ``stmts``; the env's key carries over."""
        out = Closure(self.env, stmts)
        out._env_id = self._env_id
        return out


Thread = tuple  # of Closure; empty tuple means idle


class ObjectState:
    """An object's record.  Treat as immutable; steps build new ones."""

    __slots__ = ("cls", "myactor", "locks", "fields", "_id")

    def __init__(self, cls: Optional[str], myactor: ObjRef, locks: frozenset, fields: dict):
        self.cls = cls
        self.myactor = myactor
        self.locks = locks
        self.fields = fields  # field name -> Value
        self._id = None  # interned key, set by ProgramIndex.object_id on first use


class StepLabel(NamedTuple):
    """Identity of one enabled rule instance."""

    rule: str
    actor: ObjRef
    obj: ObjRef
    method: Optional[str] = None
    priority: Optional[int] = None


class StepNotEnabled(Exception):
    pass


class FuelExhausted(Exception):
    """Raised by run() when the step budget runs out with steps still enabled."""

    def __init__(self, config: "Configuration", trace: list[StepLabel]):
        super().__init__(f"fuel exhausted after {len(trace)} step(s)")
        self.config = config
        self.trace = trace


class _EvalFault(Exception):
    def __init__(self, diagnostic: str):
        super().__init__(diagnostic)
        self.diagnostic = diagnostic


class _Id(int):
    """Number of an interned key.  An int, but of its own type, so that
    :meth:`ProgramIndex.expand` can tell it from the plain ints in a key."""

    __slots__ = ()


_ref_id = _Ref.id.fget  # the id of an ObjRef or FutRef
_cached_id = attrgetter("_id")  # of a Closure or ObjectState, None until keyed


def _by_id(refs: dict, *keys) -> tuple:
    """``(id, key...)`` for each entry of a dict keyed by ObjRef, in the
    dict's order, which is id order; ``keys`` are iterables over the dict's
    values."""
    return tuple(zip(map(_ref_id, refs), *keys))


# Machine values are keyed as themselves next to their types, because
# Python equality merges True with 1 and False with 0.  ObjRef and FutRef
# compare by tag and id, so a reference never equals the int of its id.

def _items_key(d: dict) -> tuple:
    """Key of a name -> value dict (an environment or the fields), in the
    dict's order, which its method or class declares."""
    values = d.values()
    return tuple(zip(d, map(type, values), values))


class ProgramIndex:
    """Lookup tables derived once from a resolved program, and the intern
    table behind :meth:`Configuration.canonical`.

    Interning (hash-consing) maps each distinct component key to a small
    :class:`_Id`, so a state key is a flat tuple of ints that hashes and
    compares in C.  Statements are numbered once, when first met; closures
    and object states cache their number; heap, queues, futures and each
    group are interned as parts, and a configuration reuses the part of its
    parent for every dict a step did not replace.  The table lives and dies
    with its index: numbers from two indexes are not comparable.
    """

    def __init__(self, program: Program):
        self.program = program
        interfaces = {i.name: i for i in program.interfaces}
        self.classes: dict[str, ClassDecl] = {c.name: c for c in program.classes}
        self.class_methods: dict[str, dict[str, MethodDef]] = {
            c.name: {m.sig.name: m for m in c.methods} for c in program.classes
        }
        # Signatures an object of a class supports, for the select filter
        # and for the signature of an event sent to its group.
        self.class_supported: dict[str, frozenset[MethodSig]] = {
            c.name: frozenset(
                sig for iname in c.implements for sig in interfaces[iname].signatures
            )
            for c in program.classes
        }
        self._ids: dict = {}  # key -> _Id
        self._keys: list = []  # _Id -> key
        # id() of each statement met so far -> its number, by structure, so
        # structurally equal statements share a number.  Numbering happens
        # on first sight, not here, to keep set-up cheap; _numbered holds
        # each statement so that its id() is not reused.
        self._stmt_ids: dict[int, _Id] = {}
        self._numbered: list[Stmt] = []
        # id() of a statement of the program -> its head_reads; the program
        # holds every statement, so no other object takes one of these ids
        self._heads: dict[int, Optional[frozenset[str]]] = {}
        # id() of a queued message -> (the message, its accesses)
        self._messages: dict[int, tuple] = {}

    # ---- interning

    def intern(self, key) -> _Id:
        found = self._ids.get(key)
        if found is None:
            found = self._ids[key] = _Id(len(self._keys))
            self._keys.append(key)
        return found

    def expand(self, key):
        """``key`` with every interned number replaced by the structure it
        stands for: comparable across indexes, and slow."""
        if type(key) is _Id:
            return self.expand(self._keys[key])
        if type(key) is tuple:
            return tuple([self.expand(k) for k in key])
        return key

    def _stmt_key(self, s: Stmt):
        # First sight of a statement.  The heads the step rules build for a
        # caller waiting on a synchronous call, then holding its result,
        # are new objects every time: keyed by structure, never numbered.
        value = s.value if type(s) is Assign else None
        if type(value) is Hole:
            return ("hole", s.target)
        if type(value) is ValueLit:
            return ("value", s.target, type(value.value), value.value)
        number = self._stmt_ids[id(s)] = self.intern(s)
        self._numbered.append(s)
        return number

    def closure_id(self, c: Closure) -> _Id:
        found = c._id
        if found is None:
            env = c._env_id
            if env is None:
                env = c._env_id = self.intern(_items_key(c.env))
            code = tuple(map(self._stmt_ids.get, map(id, c.stmts)))
            if None in code:
                code = tuple(
                    [k if k is not None else self._stmt_key(s) for k, s in zip(code, c.stmts)]
                )
            found = c._id = self.intern((env, code))
        return found

    def object_id(self, st: ObjectState) -> _Id:
        found = st._id
        if found is None:
            locks = frozenset([(e.label, type(e.value), e.value) for e in st.locks])
            found = st._id = self.intern((st.cls, st.myactor.id, locks, _items_key(st.fields)))
        return found

    def heap_id(self, heap: dict) -> _Id:
        ids = list(map(_cached_id, heap.values()))
        if None in ids:
            ids = [i if i is not None else self.object_id(st) for i, st in zip(ids, heap.values())]
        return self.intern(tuple(ids))

    def queues_id(self, queues: dict) -> _Id:
        # A message's signature and sync set follow from its method and
        # args, and its future's id is its priority (see _async_call).
        return self.intern(
            _by_id(
                queues,
                [
                    tuple([(m.priority, m.method, tuple(map(type, m.args)), m.args) for m in q])
                    for q in queues.values()
                ],
            )
        )

    def futures_id(self, futures: dict) -> _Id:
        values = futures.values()
        return self.intern(tuple(zip(map(type, values), values)))

    def group_id(self, actor: int, group: dict) -> _Id:
        threads = []
        for thread in group.values():
            ids = tuple(map(_cached_id, thread))
            if None in ids:
                ids = tuple(map(self.closure_id, thread))
            threads.append(ids)
        return self.intern((actor, _by_id(group, threads)))

    # ---- independence facts for the explorer, derived on first use

    @cached_property
    def stable_fields(self) -> dict[str, frozenset[str]]:
        """Per class, the fields no statement of the class assigns.  Only
        code of an object's own class runs with it as ``this``, so after
        creation nothing changes these fields."""
        out = {}
        for c in self.program.classes:
            written: set = set()
            for m in c.methods:
                env = {p.name for p in m.sig.params} | {d.name for d in m.locals}
                written.update(
                    s.target
                    for s in walk_stmts(m.body)
                    if isinstance(s, Assign) and s.target not in env
                )
            out[c.name] = frozenset(d.name for d in c.fields) - written
        return out

    @cached_property
    def method_classes(self) -> dict[str, tuple[str, ...]]:
        """Per method name, the classes that define a method of that name."""
        out: dict = {}
        for c in self.program.classes:
            for m in c.methods:
                out.setdefault(m.sig.name, []).append(c.name)
        return {name: tuple(classes) for name, classes in out.items()}

    @cached_property
    def methods_send(self) -> bool:
        """Whether any class method holds an asynchronous call.  If none
        does, the main block is the program's only sender."""
        return any(
            isinstance(s, Assign) and isinstance(s.value, AsyncCall)
            for c in self.program.classes
            for m in c.methods
            for s in walk_stmts(m.body)
        )

    def head_reads(self, head: Stmt, env: dict, cls: Optional[str]) -> Optional[frozenset[str]]:
        """The fields that are not stable which ``head`` reads at the top of
        a closure of environment ``env`` run by an object of class ``cls``;
        None when its expressions hold anything but literals, names and
        operators.  Kept per statement of the program: a statement only
        runs in frames of its own method, which all bind the same names,
        with ``this`` of its own class.  The heads SYNC-CALL and SYNC-RETURN
        build anew each time are not kept."""
        stable = self.stable_fields.get(cls, frozenset())
        reads: set = set()
        if all(_field_reads(e, env, stable, reads) for e in _head_exprs(head)):
            reads = frozenset(reads)
        else:
            reads = None
        value = head.value if type(head) is Assign else None
        if type(value) is not Hole and type(value) is not ValueLit:
            self._heads[id(head)] = reads
        return reads

    # ---- program lookups

    def event_signature(self, cls: str, method: str, nargs: int) -> MethodSig:
        """Signature attached to an event sent to a group whose first object
        is of class ``cls``.  Ambiguity across interfaces is a fault."""
        found = {
            sig for sig in self.class_supported[cls] if sig.name == method and sig.arity == nargs
        }
        if not found:
            raise _EvalFault(f"actor does not accept '{method}' with {nargs} argument(s)")
        if len(found) > 1:
            raise _EvalFault(f"ambiguous signature for '{method}' across interfaces")
        return next(iter(found))


class Configuration:
    """One machine state.  Treat as immutable; steps build new ones.

    Every dict of a state is in id order: the heap and the futures hold
    ids 0, 1, ... in turn, and the queues, the groups and each group's
    threads list their ids ascending.  This holds because a fresh id is the
    length of the heap or of the futures, and a step either replaces a
    value in place (a copied dict keeps its order) or adds the next id at
    the end.  So the next object and future ids are ``len(heap)`` and
    ``len(futures)``, and :meth:`canonical` keys each dict in its own order
    without sorting it.  A queued message's priority is its future's id:
    ASYNC-CALL, the one rule that makes a future, also queues the message.
    """

    __slots__ = (
        "index",
        "heap",
        "queues",
        "futures",
        "actors",
        "fault",
        "_canon",
        "_groups",
        "_base",
    )

    def __init__(
        self,
        index: ProgramIndex,
        heap: dict,
        queues: dict,
        futures: dict,
        actors: dict,
        fault: Optional[str] = None,
    ):
        self.index = index
        self.heap = heap  # ObjRef -> ObjectState
        self.queues = queues  # ObjRef (group id) -> tuple[QueuedMessage, ...]
        self.futures = futures  # FutRef -> Value | PENDING
        self.actors = actors  # ObjRef (group id) -> {ObjRef: Thread}
        self.fault = fault
        self._canon = None
        self._groups: Optional[dict] = None  # id(group dict) -> its interned part
        # nearest ancestor whose key is known, until this key is computed
        self._base: Optional[Configuration] = None

    def evolve(
        self,
        *,
        heap: Optional[dict] = None,
        queues: Optional[dict] = None,
        futures: Optional[dict] = None,
        actors: Optional[dict] = None,
        fault: Optional[str] = None,
    ) -> "Configuration":
        """This state with the given parts replaced; a part left None is
        kept (no step sets a part to None)."""
        out = object.__new__(Configuration)
        out.index = self.index
        out.heap = self.heap if heap is None else heap
        out.queues = self.queues if queues is None else queues
        out.futures = self.futures if futures is None else futures
        out.actors = self.actors if actors is None else actors
        out.fault = self.fault if fault is None else fault
        out._canon = None
        out._groups = None
        out._base = self if self._canon is not None else self._base
        return out

    def canonical(self):
        """Key of this state for the explorer's visited set.

        ``(fault, heap, queues, futures, group...)``, with
        one interned part per group, in group id order; all but ``fault``
        are ints.  The heap's part is the tuple of its object records'
        numbers and the futures' part the tuple of their ``(type, value)``,
        each by position, which is id (see the class docstring).  Two
        configurations of one ProgramIndex have equal keys exactly when
        they are structurally equal, values compared with their type
        (``True`` is not ``1``).
        """
        if self._canon is None:
            index = self.index
            base = self._base
            if base is None:
                heap = queues = futures = None
                known: dict = {}
            else:
                heap = base._canon[1] if base.heap is self.heap else None
                queues = base._canon[2] if base.queues is self.queues else None
                futures = base._canon[3] if base.futures is self.futures else None
                known = base._groups
                self._base = None
            groups = {}
            for a, group in self.actors.items():
                part = known.get(id(group))
                groups[id(group)] = index.group_id(a.id, group) if part is None else part
            self._groups = groups
            self._canon = (
                self.fault,
                index.heap_id(self.heap) if heap is None else heap,
                index.queues_id(self.queues) if queues is None else queues,
                index.futures_id(self.futures) if futures is None else futures,
                *groups.values(),
            )
        return self._canon

    def mentioned(self) -> frozenset[int]:
        """Ids of the objects some value of this state refers to: in an
        environment, a field, a lock, a queued argument, a future or a
        ``ValueLit`` head."""
        values = list(self.futures.values())
        for st in self.heap.values():
            values += st.fields.values()
            values += [e.value for e in st.locks]
        for queue in self.queues.values():
            for msg in queue:
                values += msg.args
        for group in self.actors.values():
            for thread in group.values():
                for closure in thread:
                    values += closure.env.values()
                    head = closure.stmts[0] if closure.stmts else None
                    if type(head) is Assign and type(head.value) is ValueLit:
                        values.append(head.value.value)
        return frozenset([v.id for v in values if type(v) is ObjRef])

    def _structure(self):
        return self.index.expand(self.canonical())

    # Equality is structural, also between configurations of separate
    # initial_config calls, whose interned numbers differ.
    def __eq__(self, other) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._structure() == other._structure()

    def __hash__(self) -> int:
        return hash(self._structure())

    # ---- inspection helpers

    def main_env(self) -> dict:
        """Environment of the main block's closure (anonymous object)."""
        anon = ObjRef(0)
        thread = self.actors[anon][anon]
        return dict(thread[0].env) if thread else {}

    def group_locks(self, actor: ObjRef) -> frozenset[SyncEntry]:
        return lock_union(self.heap[o].locks for o in self.actors[actor])


ANONYMOUS = ObjRef(0)


def initial_config(program: Program) -> Configuration:
    """The starting state: one anonymous group holding the main process.

    The anonymous object has no class and no interfaces, and its group has
    no event queue, so it can never be sent or scheduled a message.  Objects
    created from main (and transitively from those) join this group.
    """
    index = ProgramIndex(program)
    env: dict = {"this": ANONYMOUS}
    for d in program.main_vars:
        env[d.name] = default_value(d.type)
    heap = {ANONYMOUS: ObjectState(cls=None, myactor=ANONYMOUS, locks=EMPTY_LOCKS, fields={})}
    actors = {ANONYMOUS: {ANONYMOUS: (Closure(env, program.main_body),)}}
    return Configuration(
        index=index,
        heap=heap,
        queues={},
        futures={},
        actors=actors,
    )


# --------------------------------------------------------------------------
# expression evaluation

_INT_CMP = {"<", "<=", ">", ">="}


def _eval(config: Configuration, env: dict, e: Expr) -> Value:
    # expression classes are final, so their exact type is tested
    t = type(e)
    if t is Var:
        name = e.name
        if name in env:
            return env[name]
        fields = config.heap[env["this"]].fields
        if name in fields:
            return fields[name]
        raise _EvalFault(f"unbound variable '{name}'")
    if t is IntLit or t is BoolLit or t is ValueLit:
        return e.value
    if t is BinOp:
        return _binop(e.op, _eval(config, env, e.left), _eval(config, env, e.right))
    if t is NullLit:
        return None
    if t is This:
        return env["this"]
    if t is Resolved:
        v = _eval(config, env, e.target)
        if not isinstance(v, FutRef):
            raise _EvalFault("'?' applied to a non-future value")
        return config.futures[v] is not PENDING
    raise _EvalFault(f"expression {type(e).__name__} cannot be evaluated in place")


def _binop(op: str, left: Value, right: Value) -> Value:
    if op == "&&":
        if not isinstance(left, bool) or not isinstance(right, bool):
            raise _EvalFault("'&&' applied to non-boolean operands")
        return left and right
    # values of different types are never equal: true is not 1
    if op == "==":
        return type(left) is type(right) and left == right
    if op == "!=":
        return type(left) is not type(right) or left != right
    # arithmetic and ordering are integer-only; bool is not an Int here
    if isinstance(left, bool) or isinstance(right, bool) or not (
        isinstance(left, int) and isinstance(right, int)
    ):
        raise _EvalFault(f"'{op}' applied to non-integer operands")
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op in _INT_CMP:
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        return left >= right
    raise _EvalFault(f"unknown operator '{op}'")


def _eval_guard(config: Configuration, env: dict, e: Expr) -> bool:
    v = _eval(config, env, e)
    if not isinstance(v, bool):
        raise _EvalFault("guard did not evaluate to a boolean")
    return v


# --------------------------------------------------------------------------
# enabled-step enumeration

def enabled_steps(
    config: Configuration,
    select_fn: Callable = default_select,
    known: Optional[tuple[ObjRef, Optional[StepLabel]]] = None,
) -> list[StepLabel]:
    """All rule instances whose premises hold, in deterministic order
    (group id, then object id).  A faulted configuration has none.

    ``known`` is ``(obj, label)``: the answer :func:`object_step` already
    gave on ``config`` for object ``obj``, a label or None, which is used
    instead of asking again."""
    if config.fault is not None:
        return []
    mover, answer = known or (None, None)
    labels: list[StepLabel] = []
    for actor, group in config.actors.items():
        for obj in group:
            label = answer if obj == mover else object_step(config, actor, obj, select_fn)
            if label is not None:
                labels.append(label)
    return labels


def object_step(
    config: Configuration,
    actor: ObjRef,
    obj: ObjRef,
    select_fn: Callable = default_select,
) -> Optional[StepLabel]:
    """The step of object ``obj`` of group ``actor`` among
    :func:`enabled_steps`, or None.  An object has at most one: an idle
    object schedules the message ``select_fn`` picks, and a busy one runs
    the head statement of its top closure."""
    if config.fault is not None:
        return None
    thread = config.actors[actor][obj]
    if not thread:
        return _sched_label(config, actor, obj, select_fn)
    top = thread[-1]
    if not top.stmts:
        return None  # the main closure after its last statement
    return _stmt_label(config, actor, obj, thread, top)


def _sched_label(
    config: Configuration, actor: ObjRef, obj: ObjRef, select_fn: Callable
) -> Optional[StepLabel]:
    queue = config.queues.get(actor)
    if not queue:
        return None
    held = config.group_locks(actor)
    supported = config.index.class_supported[config.heap[obj].cls]
    msg = select_fn(supported, held, queue)
    if msg is None:
        return None
    return StepLabel("SCHED-MSG", actor, obj, msg.method, msg.priority)


def _stmt_label(
    config: Configuration, actor: ObjRef, obj: ObjRef, thread: Thread, top: Closure
) -> Optional[StepLabel]:
    s = top.stmts[0]
    t = type(s)  # statement and expression classes are final
    if t is Assign:
        rhs = type(s.value)
        if rhs is SyncCall:
            return StepLabel("SYNC-CALL", actor, obj, s.value.method)
        if rhs is AsyncCall:
            return StepLabel("ASYNC-CALL", actor, obj, s.value.method)
        if rhs is NewObject:
            return StepLabel("NEW-ACTOB", actor, obj)
        if rhs is NewActor:
            return StepLabel("NEW-ACTOR", actor, obj)
        rule = "ASSIGN-LOCAL" if s.target in top.env else "ASSIGN-FIELD"
        return StepLabel(rule, actor, obj)
    if t is GetStmt:
        # a bad expression or a non-future is enabled, and the step faults
        try:
            v = _eval(config, top.env, s.value)
        except _EvalFault:
            v = None
        if isinstance(v, FutRef) and config.futures[v] is PENDING:
            return None  # blocked until the future resolves
        return StepLabel("READ-FUT", actor, obj)
    if t is If or t is While:
        try:
            value = _eval_guard(config, top.env, s.cond)
        except _EvalFault:
            value = True  # the step faults
        return StepLabel("COND-TRUE" if value else "COND-FALSE", actor, obj)
    if t is Return:
        return StepLabel("SYNC-RETURN" if len(thread) > 1 else "ASYNC-RETURN", actor, obj)
    raise TypeError(f"unhandled statement {s!r}")


# --------------------------------------------------------------------------
# independence

# Rules that change nothing but their own thread.  READ-FUT only runs on a
# resolved future, and a future is written once.  SYNC-CALL also reads the
# callee's class and group, which never change.
_LOCAL_RULES = frozenset(
    {"ASSIGN-LOCAL", "COND-TRUE", "COND-FALSE", "READ-FUT", "SYNC-CALL", "SYNC-RETURN"}
)
_CONSTANTS = (NullLit, BoolLit, IntLit, ValueLit, This)


def is_safe(config: Configuration, label: StepLabel) -> bool:
    """Whether ``label``, a step enabled in ``config``, commutes with every
    step the other objects can take before it.  Such a step stays enabled
    until it is taken, and taking it first reaches every state, terminal
    and violation that taking it later would.

    The step's expressions may read only literals, ``this``, names in the
    top closure's environment and fields of ``this`` (never ``e?``, whose
    answer another object changes).  Fields that
    :attr:`ProgramIndex.stable_fields` holds for the class of ``this``
    never change.  Three kinds of step qualify:

    * a rule of ``_LOCAL_RULES``, which changes only its own thread;
    * an ASSIGN-FIELD, which also writes one field of ``this``;
    * an ASYNC-CALL reading only stable fields, in a program whose class
      methods never send: its sender is the main block, so no other step
      takes a future number or priority, and it only appends to a queue,
      which leaves a prefix-stable selection's answer alone.

    A step that reads a field that is not stable, or writes one, qualifies
    only when nothing else can write what it reads, or read or write what
    it writes, before it is taken: no other object's thread, no queued
    message and no message those may still send (:func:`_reached_first`).
    The stepping object's own thread does nothing else before the step.

    A queued message of the stepping object's own group whose sync set
    overlaps that object's locks is not asked.  ``scheduler.select`` passes
    it over until the object's ASYNC-RETURN, which comes after the step.
    Under a ``select_fn`` that ignores held locks it could start first,
    but only into a state whose lock sets overlap.  The step changes no
    lock, queue or idle object, so the search still reaches such a state
    and reports a theorem1 violation there.  A message of another group is
    always asked: lock sets are kept apart only inside a group, so it may
    hold the same entry at the same time.

    The facts that depend on one immutable value are derived once per
    value, not per state: what a head reads, once per statement of the
    program (:meth:`ProgramIndex.head_reads`), and what the rest of a
    closure or a queued message may access, once per closure or message
    object (:func:`_closure_access`, :func:`_message_access`).  Objects
    never die, an object's class and stable fields never change, and an
    access walk reads nothing else of the state.  A closure or message is
    made by one step and shared only by that step's descendants, so every
    state that holds it gives the same answer.  A message is therefore
    kept by identity, not by value: two equal messages made on two
    branches may name an object id that each branch gave to an object of
    another class.

    The step may still fault; the caller checks its successor.
    """
    index = config.index
    rule = label.rule
    main_send = rule == "ASYNC-CALL" and not index.methods_send
    if not (main_send or rule in _LOCAL_RULES or rule == "ASSIGN-FIELD"):
        return False
    top = config.actors[label.actor][label.obj][-1]
    this = top.env["this"]
    head = top.stmts[0]
    reads = index._heads.get(id(head), _UNSEEN)
    if reads is _UNSEEN:
        reads = index.head_reads(head, top.env, config.heap[this].cls)
    if reads is None:
        return False
    if rule == "ASSIGN-FIELD":
        return not _reached_first(config, label, this.id, reads, head.target)
    if reads:
        return not main_send and not _reached_first(config, label, this.id, reads, None)
    return True


_UNSEEN = object()  # a head ProgramIndex.head_reads has not kept


def _head_exprs(s: Stmt) -> tuple:
    if isinstance(s, (If, While)):
        return (s.cond,)
    value = s.value  # Assign, GetStmt and Return
    if isinstance(value, (SyncCall, AsyncCall)):
        return (value.target,) + value.args
    return (value,)


def _field_reads(e: Expr, env: dict, stable: frozenset, out: set) -> bool:
    """Add to ``out`` the fields ``e`` reads that are not in ``stable``;
    False when ``e`` holds anything but literals, names and operators."""
    if isinstance(e, Var):
        if e.name not in env and e.name not in stable:
            out.add(e.name)
        return True
    if isinstance(e, BinOp):
        return _field_reads(e.left, env, stable, out) and _field_reads(e.right, env, stable, out)
    return isinstance(e, _CONSTANTS)


def _reached_first(
    config: Configuration, label: StepLabel, this: int, reads: frozenset, write: Optional[str]
) -> bool:
    """Whether, before ``label`` is taken, another object's thread, a
    queued message or a message they may still send can write a field of
    object ``this`` named in ``reads``, or read or write its field
    ``write``.  Skips the queued messages :func:`is_safe` says it may."""
    for group in config.actors.values():
        for obj, thread in group.items():
            if obj != label.obj:
                for closure in thread:
                    if _touches(_closure_access(config, closure), this, reads, write):
                        return True
    held = config.heap[label.obj].locks
    for actor, queue in config.queues.items():
        for msg in queue:
            if (actor != label.actor or held.isdisjoint(msg.sync)) and _touches(
                _message_access(config, msg), this, reads, write
            ):
                return True
    return False


def _touches(access, this: int, reads: frozenset, write: Optional[str]) -> bool:
    if access is _ANY:
        return True
    for obj, name, wrote in access:
        if (obj is None or obj == this) and (name == write or (wrote and name in reads)):
            return True
    return False


def _closure_access(config: Configuration, closure: Closure):
    """What the rest of ``closure`` may access, walked once and kept on the
    closure (:func:`is_safe` says why)."""
    access = closure._access
    if access is None:
        access = closure._access = _AccessWalk(config).closure(closure)
    return access


def _message_access(config: Configuration, msg: QueuedMessage):
    """What the queued ``msg`` may access, walked once and kept by its
    identity (:func:`is_safe` says why); the table holds the message, so
    its id is not reused."""
    messages = config.index._messages
    found = messages.get(id(msg))
    if found is None:
        found = messages[id(msg)] = (msg, _AccessWalk(config).message(msg))
    return found[1]


_UNKNOWN = object()  # a value the walk below cannot know


class _Unbounded(Exception):
    """A walk met a method inside its own call: it may touch anything."""


_ANY = object()  # the accesses of a walk that met an _Unbounded


class _AccessWalk:
    """The field accesses code may still make, as ``(object id or None,
    field, written)`` triples in :attr:`found`; None stands for any object.
    :meth:`closure` and :meth:`message` walk once and give the accesses as
    a frozenset of those triples, or ``_ANY``.

    One abstract pass over the statements.  Locals, arguments and stable
    fields of a known ``this`` keep their values, so ``acc == 1`` and
    ``acc == 2`` take different branches; every other value is
    ``_UNKNOWN``.  A known guard takes one branch, an unknown one takes
    both, and a local the branches leave with different values (by
    identity, so ``True`` and ``1`` stay apart) becomes unknown.  A ``while`` walks its body once,
    with the locals the body assigns unknown, so that any later iteration
    is covered.  A synchronous call walks the callee's method, on every
    class that has the method when the target is unknown; an asynchronous
    call walks the sent method on every class that has it, run by an
    unknown object.  A method met inside its own walk raises
    :class:`_Unbounded`.  Of the state, a walk reads only the class and
    stable fields of a known ``this`` or callee.
    """

    def __init__(self, config: Configuration):
        self.index = config.index
        self.heap = config.heap
        self.found: set = set()
        self._active: set = set()  # (class, method) being walked

    def closure(self, closure: Closure):
        """The rest of ``closure``.  A caller below the top of a thread
        resumes with the returned value unknown: its head holds a Hole."""
        this = closure.env["this"]
        return self._summary(
            self._stmts, closure.stmts, dict(closure.env), this, self.heap[this].cls
        )

    def message(self, msg: QueuedMessage):
        """The queued ``msg``, run by an unknown object of any class."""
        return self._summary(self.any_object, msg.method, msg.args)

    def _summary(self, walk: Callable, *args):
        try:
            walk(*args)
        except _Unbounded:
            return _ANY
        return frozenset(self.found)

    def any_object(self, method: str, args: Sequence) -> None:
        """``method`` run by an unknown object of any class that has it."""
        for cls in self.index.method_classes.get(method, ()):
            self._method(cls, method, _UNKNOWN, args)

    def _method(self, cls: str, method: str, this, args: Sequence) -> None:
        mdef = self.index.class_methods[cls].get(method)
        if mdef is None or len(args) != mdef.sig.arity:
            return  # the call faults
        key = (cls, method)
        if key in self._active:
            raise _Unbounded
        self._active.add(key)
        self._stmts(mdef.body, _method_frame(mdef, {"this": this}, args), this, cls)
        self._active.remove(key)

    def _stmts(self, stmts: tuple, env: dict, this, cls: Optional[str]) -> None:
        for s in stmts:
            t = type(s)
            if t is Assign:
                self._assign(s, env, this, cls)
            elif t is If:
                taken = self._expr(s.cond, env, this, cls)
                if taken is True:
                    self._stmts(s.then, env, this, cls)
                elif taken is False:
                    self._stmts(s.orelse, env, this, cls)
                else:
                    other = dict(env)
                    self._stmts(s.then, env, this, cls)
                    self._stmts(s.orelse, other, this, cls)
                    for name, v in other.items():
                        if env[name] is not v:
                            env[name] = _UNKNOWN
            elif t is While:
                if self._expr(s.cond, env, this, cls) is not False:
                    assigned = [
                        a.target
                        for a in walk_stmts(s.body)
                        if type(a) is Assign and a.target in env
                    ]
                    for name in assigned:
                        env[name] = _UNKNOWN
                    self._stmts(s.body, env, this, cls)
                    for name in assigned:
                        env[name] = _UNKNOWN
            else:  # GetStmt and Return
                self._expr(s.value, env, this, cls)

    def _assign(self, s: Assign, env: dict, this, cls: Optional[str]) -> None:
        value = s.value
        t = type(value)
        if t is SyncCall or t is AsyncCall:
            target = self._expr(value.target, env, this, cls)
            args = [self._expr(a, env, this, cls) for a in value.args]
            if t is AsyncCall or target is _UNKNOWN:
                self.any_object(value.method, args)
            elif type(target) is ObjRef and self.heap[target].cls is not None:
                self._method(self.heap[target].cls, value.method, target, args)
            result = _UNKNOWN
        elif t is NewObject or t is NewActor:
            for a in value.args:
                self._expr(a, env, this, cls)
            result = _UNKNOWN
        else:
            result = self._expr(value, env, this, cls)
        if s.target in env:
            env[s.target] = result
        else:
            self.found.add((None if this is _UNKNOWN else this.id, s.target, True))

    def _expr(self, e: Expr, env: dict, this, cls: Optional[str]):
        t = type(e)
        if t is Var:
            name = e.name
            if name in env:
                return env[name]
            if name in self.index.stable_fields.get(cls, ()):
                return _UNKNOWN if this is _UNKNOWN else self.heap[this].fields[name]
            self.found.add((None if this is _UNKNOWN else this.id, name, False))
            return _UNKNOWN
        if t is BinOp:
            left = self._expr(e.left, env, this, cls)
            right = self._expr(e.right, env, this, cls)
            if left is _UNKNOWN or right is _UNKNOWN:
                return _UNKNOWN
            try:
                return _binop(e.op, left, right)
            except _EvalFault:
                return _UNKNOWN  # the step faults
        if t is IntLit or t is BoolLit or t is ValueLit:
            return e.value
        if t is NullLit:
            return None
        if t is This:
            return this
        if t is Resolved:
            self._expr(e.target, env, this, cls)
        return _UNKNOWN  # e? and the Hole of a waiting caller


# --------------------------------------------------------------------------
# the step function

def step(
    config: Configuration,
    label: StepLabel,
    select_fn: Callable = default_select,
) -> Configuration:
    """Apply one enabled rule instance; returns the successor configuration.

    A label that is not enabled raises StepNotEnabled: ``label`` must be the
    step :func:`object_step` gives its object, which is the only statement
    of the rules' premises.  Evaluation errors in the program surface as a
    faulted successor configuration.
    """
    group = config.actors.get(label.actor)
    if group is None or label.obj not in group:
        raise StepNotEnabled(f"no process for {label.obj} in {label.actor}")
    if label != object_step(config, label.actor, label.obj, select_fn):
        raise StepNotEnabled(f"{label} is not enabled")
    return _apply(config, label)


def _apply(config: Configuration, label: StepLabel) -> Configuration:
    """:func:`step` without its check: for a label that
    :func:`object_step` or :func:`enabled_steps` has just given on
    ``config``, which the explorer and :func:`run` apply without deriving
    it again.  A SCHED-MSG label names its message by priority, so no
    rule needs the selection."""
    thread = config.actors[label.actor][label.obj]
    top = thread[-1] if thread else None  # SCHED-MSG runs on an idle object
    head = top.stmts[0] if top else None
    try:
        return _RULES[label.rule](config, label, thread, top, head)
    except _EvalFault as fault:
        return config.evolve(fault=fault.diagnostic)


# ---- rule bodies

def _with_thread(config: Configuration, actor: ObjRef, obj: ObjRef, thread: Thread, **more):
    actors = dict(config.actors)
    group = dict(actors[actor])
    group[obj] = thread
    actors[actor] = group
    return config.evolve(actors=actors, **more)


def _with_top(
    config: Configuration, label: StepLabel, thread: Thread, env: dict, stmts: tuple, **more
) -> Configuration:
    top = thread[-1]
    new_top = top.with_stmts(stmts) if env is top.env else Closure(env, stmts)
    new_thread = thread[:-1] + (new_top,)
    return _with_thread(config, label.actor, label.obj, new_thread, **more)


def _assign(
    config: Configuration,
    label: StepLabel,
    thread: Thread,
    target: str,
    value: Value,
    rest: tuple,
    **more,
) -> Configuration:
    """Write ``target`` either in the local environment or, failing that, in
    the fields of the closure's own object, then drop the statement.
    ``more`` holds the other parts the step replaces, never the heap."""
    top = thread[-1]
    if target in top.env:
        env = dict(top.env)
        env[target] = value
        return _with_top(config, label, thread, env, rest, **more)
    this = top.env["this"]
    state = config.heap[this]
    if target not in state.fields:
        raise _EvalFault(f"assignment to unknown field '{target}'")
    fields = dict(state.fields)
    fields[target] = value
    heap = dict(config.heap)
    heap[this] = ObjectState(state.cls, state.myactor, state.locks, fields)
    return _with_top(config, label, thread, top.env, rest, heap=heap, **more)


def _plain_assign(config, label, thread, top, s) -> Configuration:
    v = _eval(config, top.env, s.value)
    return _assign(config, label, thread, s.target, v, top.stmts[1:])


def _cond(config, label, thread, top, s) -> Configuration:
    taken = _eval_guard(config, top.env, s.cond)
    if type(s) is If:
        rest = (s.then if taken else s.orelse) + top.stmts[1:]
    else:
        rest = s.body + top.stmts if taken else top.stmts[1:]
    return _with_top(config, label, thread, top.env, rest)


def _read_fut(config, label, thread, top, s) -> Configuration:
    if not isinstance(_eval(config, top.env, s.value), FutRef):
        raise _EvalFault("'.get' applied to a non-future value")
    return _with_top(config, label, thread, top.env, top.stmts[1:])


def _sync_call(config, label, thread, top, s) -> Configuration:
    call: SyncCall = s.value
    callee = _eval(config, top.env, call.target)
    if callee is None:
        raise _EvalFault(f"synchronous call to '{call.method}' on null")
    if not isinstance(callee, ObjRef):
        raise _EvalFault(f"synchronous call target is not an object")
    caller_actor = config.heap[top.env["this"]].myactor
    if config.heap[callee].myactor != caller_actor:
        raise _EvalFault(
            f"synchronous call to '{call.method}' crosses an actor boundary"
        )
    cls = config.heap[callee].cls
    mdef = config.index.class_methods.get(cls, {}).get(call.method) if cls else None
    if mdef is None:
        raise _EvalFault(f"object has no method '{call.method}'")
    if len(call.args) != mdef.sig.arity:
        raise _EvalFault(f"'{call.method}' expects {mdef.sig.arity} argument(s)")
    args = [_eval(config, top.env, a) for a in call.args]
    callee_env = _method_frame(mdef, {"this": callee}, args)
    waiting = top.with_stmts((Assign(s.target, Hole()),) + top.stmts[1:])
    new_thread = thread[:-1] + (waiting, Closure(callee_env, mdef.body))
    return _with_thread(config, label.actor, label.obj, new_thread)


def _sync_return(config, label, thread, top, s) -> Configuration:
    # the caller below waits with a Hole at its head, put there by SYNC-CALL
    below = thread[-2]
    v = _eval(config, top.env, s.value)
    resumed = below.with_stmts((Assign(below.stmts[0].target, ValueLit(v)),) + below.stmts[1:])
    new_thread = thread[:-2] + (resumed,)
    return _with_thread(config, label.actor, label.obj, new_thread)


def _async_call(config, label, thread, top, s) -> Configuration:
    call: AsyncCall = s.value
    target = _eval(config, top.env, call.target)
    if target is None:
        raise _EvalFault(f"asynchronous call to '{call.method}' on null")
    if not isinstance(target, ObjRef) or target not in config.queues:
        raise _EvalFault(f"asynchronous call target is not an actor")
    args = tuple(_eval(config, top.env, a) for a in call.args)
    sig = config.index.event_signature(config.heap[target].cls, call.method, len(args))
    fut = FutRef(len(config.futures))
    msg = QueuedMessage(
        method=call.method,
        args=args,
        future=fut,
        sync=sync_set_of(sig.param_labels, args),
        signature=sig,
        priority=fut.id,
    )
    futures = dict(config.futures)
    futures[fut] = PENDING
    queues = dict(config.queues)
    queues[target] = queues[target] + (msg,)
    return _assign(
        config,
        label,
        thread,
        s.target,
        fut,
        top.stmts[1:],
        futures=futures,
        queues=queues,
    )


def _async_return(config, label, thread, top, s) -> Configuration:
    dest = top.env["dest"]  # the resolver keeps return out of the main block
    v = _eval(config, top.env, s.value)
    assert config.futures[dest] is PENDING, "future written twice"
    futures = dict(config.futures)
    futures[dest] = v
    obj = label.obj
    state = config.heap[obj]
    heap = dict(config.heap)
    heap[obj] = ObjectState(state.cls, state.myactor, EMPTY_LOCKS, state.fields)
    return _with_thread(config, label.actor, obj, (), futures=futures, heap=heap)


def _new(config, label, thread, top, s) -> Configuration:
    """NEW-ACTOB and NEW-ACTOR: ``new C(..)`` joins the caller's group, and
    ``new actor C(..)`` is the first object of a fresh group."""
    new = s.value
    cls = config.index.classes.get(new.class_name)
    if cls is None:
        raise _EvalFault(f"unknown class '{new.class_name}'")
    if len(new.args) != len(cls.params):
        raise _EvalFault(f"constructor of '{new.class_name}' arity mismatch")
    fields = {d.name: _eval(config, top.env, a) for d, a in zip(cls.params, new.args)}
    for d in cls.attributes:
        fields[d.name] = default_value(d.type)
    obj = ObjRef(len(config.heap))
    is_actor = label.rule == "NEW-ACTOR"
    owner = obj if is_actor else config.heap[top.env["this"]].myactor
    heap = dict(config.heap)
    heap[obj] = ObjectState(cls=cls.name, myactor=owner, locks=EMPTY_LOCKS, fields=fields)
    actors = dict(config.actors)
    actors[owner] = {**actors.get(owner, {}), obj: ()}
    changes = dict(heap=heap, actors=actors)
    if is_actor:
        # The creation event is consumed on the spot: the fresh group
        # starts with its first object initialized, idle, and an empty queue.
        changes["queues"] = {**config.queues, obj: ()}
    return _assign(config.evolve(**changes), label, thread, s.target, obj, top.stmts[1:])


def _sched_msg(config, label, *_) -> Configuration:
    actor, obj = label.actor, label.obj
    queue = config.queues[actor]
    msg = next(m for m in queue if m.priority == label.priority)
    queues = dict(config.queues)
    queues[actor] = tuple(m for m in queue if m is not msg)
    mdef = config.index.class_methods[config.heap[obj].cls][msg.method]
    env = _method_frame(mdef, {"this": obj, "dest": msg.future}, msg.args)
    state = config.heap[obj]
    heap = dict(config.heap)
    heap[obj] = ObjectState(state.cls, state.myactor, msg.sync, state.fields)
    return _with_thread(
        config, actor, obj, (Closure(env, mdef.body),), queues=queues, heap=heap
    )


_RULES = {
    "ASSIGN-LOCAL": _plain_assign,
    "ASSIGN-FIELD": _plain_assign,
    "COND-TRUE": _cond,
    "COND-FALSE": _cond,
    "READ-FUT": _read_fut,
    "SYNC-CALL": _sync_call,
    "SYNC-RETURN": _sync_return,
    "ASYNC-CALL": _async_call,
    "ASYNC-RETURN": _async_return,
    "NEW-ACTOB": _new,
    "NEW-ACTOR": _new,
    "SCHED-MSG": _sched_msg,
}


# --------------------------------------------------------------------------
# driving

def run(
    config: Configuration,
    policy: str | Sequence[StepLabel] = "fifo",
    *,
    seed: Optional[int] = None,
    fuel: int = 100_000,
    select_fn: Callable = default_select,
) -> tuple[Configuration, list[StepLabel]]:
    """Repeatedly apply an enabled step chosen by ``policy``.

    Policies: "fifo" picks the first label in deterministic order (lowest
    group id, lowest object id), "random" draws uniformly from the enabled
    set using ``seed``, and a sequence of labels replays a script (stopping
    when the script ends).  Stops at quiescence (no enabled steps, including
    fault states); if the fuel budget runs out first, raises FuelExhausted
    carrying the partial trace.
    """
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    rng = random.Random(seed)
    script = iter(policy) if isinstance(policy, (list, tuple)) else None
    trace: list[StepLabel] = []
    current = config
    for _ in range(fuel):
        labels = enabled_steps(current, select_fn)
        if not labels:
            return current, trace
        if script is not None:
            try:
                wanted = next(script)
            except StopIteration:
                return current, trace
            if wanted not in labels:
                raise StepNotEnabled(f"scripted label {wanted} is not enabled")
            chosen = wanted
        elif policy == "fifo":
            chosen = labels[0]
        elif policy == "random":
            chosen = rng.choice(labels)
        else:
            raise ValueError(f"unknown policy {policy!r}")
        current = _apply(current, chosen)
        trace.append(chosen)
    if enabled_steps(current, select_fn):
        raise FuelExhausted(current, trace)
    return current, trace
