"""Small-step interpreter for MAC programs.

The machine state (:class:`Configuration`) mirrors the runtime structure of
the language: a heap of active-object records, one event queue per actor
group, a store of futures, and per group the call-stack thread of each
member object.  :func:`enabled_steps` enumerates every transition rule
instance whose premises hold in a configuration, :func:`step` applies one,
and :func:`run` drives the machine under a schedule policy.  Steps are pure:
they build a new configuration and never touch the old one, which is what
lets the explorer fan out over all interleavings.

A frame of a thread runs at a program point (:class:`Point`): a statement
with the points control goes to after it.  A method body or the main block
is compiled into points once per :class:`ProgramIndex`, the first time it
runs, so a step moves a frame to a point it already has and builds no
statement tuple; a ``while`` body's last point goes back to the loop's own
point, so iterations make no new points.

The machine writes a state through one seam.  Every rule but SCHED-MSG,
whose object is idle, runs on the moving object's frames in place, on
copies a stretch of its steps owns (:class:`_Frames`), which also hold
the field record, future and queues the stretch's last step writes, and
the stretch writes them into a new state with one
:meth:`Configuration.evolve`.  A local step (a rule of ``_LOCAL_RULES``)
writes its own thread and nothing else, so a stretch goes on after it
and ends after any other step.  :func:`step` runs a stretch of one step,
and the explorer runs a merged run as a chain of stretches.

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
    _new_tuple,
    planned_sync_set,
    select as default_select,
    sync_plan,
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
    format_expr,
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

    def __index__(self) -> int:  # a reference indexes its kind's slot tuple
        return self[1]

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
# program points

_UNSEEN = object()  # a fact of a point not derived yet


class Point:
    """A program point: ``head``, the statement run there (None at the end
    of a body), and ``next``, the point after it.  An ``if`` also has its
    ``then`` and ``orelse`` points, a ``while`` its ``body`` point, whose
    last point continues at the loop's own point.  A synchronous call site
    has its ``waiting`` point, whose head ``x = <hole>`` the caller holds
    while the callee runs, and that point has one resume point per
    returned value, whose head ``x = v`` assigns it (:meth:`resume`).  ``reads`` is
    what the head reads, as :meth:`ProgramIndex.head_reads` gives it, and
    ``code`` the interned key of the statements from here to the end of
    the body (:meth:`ProgramIndex.code`); both are derived on first use.
    A point belongs to one body of one ProgramIndex."""

    __slots__ = ("head", "next", "then", "orelse", "body", "waiting", "resumes", "key",
                 "reads", "code")

    def __init__(self, head: Optional[Stmt], next: Optional["Point"], key=None):
        self.head = head
        self.next = next
        # the head's part of ``code``: the statement, or the form of a
        # head the call rules stand for
        self.key = head if key is None else key
        self.reads = _UNSEEN
        self.code = None
        t = type(head)
        if t is If:
            self.then = _points(head.then, next)
            self.orelse = _points(head.orelse, next)
        elif t is While:
            self.body = _points(head.body, self)
        elif t is Assign and type(head.value) is SyncCall:
            target = head.target
            self.waiting = Point(Assign(target, Hole()), next, ("hole", target))
            self.waiting.resumes = {}

    def resume(self, value: Value) -> "Point":
        """The point a caller waiting here resumes at when ``value`` is
        returned, made once per value, kept with its type (``True`` is not
        ``1``)."""
        key = (type(value), value)
        found = self.resumes.get(key)
        if found is None:
            target = self.head.target
            found = self.resumes[key] = Point(
                Assign(target, ValueLit(value)), self.next, ("value", target, *key)
            )
        return found


def _points(stmts: tuple[Stmt, ...], after: Point) -> Point:
    """The first point of ``stmts``, followed by ``after``."""
    point = after
    for s in reversed(stmts):
        point = Point(s, point)
    return point


# --------------------------------------------------------------------------
# machine state

class Closure:
    """A frame of a thread: an environment and the program point it runs
    at.  Treat as immutable once a state holds it; only a stretch of steps
    changes the copies it owns (:class:`_Frames`)."""

    __slots__ = ("env", "point", "_id", "_access")

    def __init__(self, env: dict, point: Point):
        self.env = env  # var name -> Value; includes 'this' and, in message bodies, 'dest'
        self.point = point
        self._id = None  # interned key, set by ProgramIndex.thread_id on first use
        # what the rest of the closure may access, set by _closure_access
        self._access = None

    @property
    def stmts(self) -> tuple[Stmt, ...]:
        """The statements the frame has left to run: the heads from its
        point to the end of the body."""
        out = []
        point = self.point
        while point.head is not None:
            out.append(point.head)
            point = point.next
        return tuple(out)


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


_cached_id = attrgetter("_id")  # of a Closure or ObjectState, None until keyed


def _put(slots: tuple, i: int, value) -> tuple:
    """``slots`` with slot ``i``, or a new last slot, holding ``value``."""
    if i == len(slots):
        return slots + (value,)
    out = list(slots)
    out[i] = value
    return tuple(out)


class Futures(tuple):
    """The futures' values by future id, ``PENDING`` until resolved;
    ``get(fut, default)`` reads one as a dict by FutRef would."""

    __slots__ = ()

    def get(self, fut, default=None):
        return self[fut[1]] if type(fut) is FutRef and fut[1] < len(self) else default


# Machine values are keyed as themselves next to their types, because
# Python equality merges True with 1 and False with 0.  ObjRef and FutRef
# compare by tag and id, so a reference never equals the int of its id.


class ProgramIndex:
    """Lookup tables derived once from a resolved program, and the intern
    table behind :meth:`Configuration.canonical`.

    Interning (hash-consing) maps each distinct component key to a small
    :class:`_Id`.  The index also holds the program's points
    (:meth:`entry`), each of which caches its code number; lock sets and
    queued messages are numbered once per object, when first met; closures
    and object records cache their number.  An environment is keyed as its
    names then its values, a field map by its values alone (a class fixes
    its fields), so neither builds a tuple per entry.  The table and the
    points live and die with their index: numbers from two indexes are not
    comparable.
    """

    def __init__(self, program: Program):
        self.program = program
        interfaces = {i.name: i for i in program.interfaces}
        self.classes: dict[str, ClassDecl] = {c.name: c for c in program.classes}
        self.class_methods: dict[str, dict[str, MethodDef]] = {
            c.name: {m.sig.name: m for m in c.methods} for c in program.classes
        }
        # A number per distinct signature a class implements: a queued
        # message's signature, and what a class supports, so select hashes
        # ints.  Signatures are equal by value, so interfaces share them.
        self.signatures: dict[MethodSig, int] = {}
        numbers = self.signatures
        self.class_supported: dict[str, frozenset[int]] = {
            c.name: frozenset(
                numbers.setdefault(sig, len(numbers))
                for iname in c.implements for sig in interfaces[iname].signatures
            )
            for c in program.classes
        }
        self._ids: dict = {}  # key -> _Id
        self._keys: list = []  # _Id -> key
        # id() of each lock set and queued message met -> its number, by
        # value, given on first sight to keep set-up cheap; _numbered holds
        # each so that its id() is not reused
        self._numbers: dict[int, _Id] = {}
        self._numbered: list = []
        # the point after the last statement of every body, and per body of
        # the program (by id(), the program holds them) its first point
        self._end = Point(None, None)
        self._end.code = self.intern(())
        self._entries: dict[int, Point] = {}
        # (class, method, arity) -> (signature, sync plan) of an event, or
        # the diagnostic of the fault a send makes
        self._events: dict[tuple, object] = {}
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

    def _number(self, obj, key) -> _Id:
        found = self._numbers[id(obj)] = self.intern(key)
        self._numbered.append(obj)
        return found

    def _message_numbers(self, queue: tuple) -> tuple:
        # each message of queue numbered on first sight
        found = tuple(map(self._numbers.get, map(id, queue)))
        if None in found:
            found = tuple(
                [n if n is not None else self._message_key(m) for n, m in zip(found, queue)]
            )
        return found

    def entry(self, body: tuple[Stmt, ...]) -> Point:
        """The first point of ``body``, a method body or the main block,
        compiled on its first run."""
        found = self._entries.get(id(body))
        if found is None:
            found = self._entries[id(body)] = _points(body, self._end)
        return found

    def code(self, point: Point) -> _Id:
        """The number of the statements from ``point`` to the end of its
        body, kept on each point on the way: the head's key, then the next
        point's number.  Two points have equal numbers exactly when they
        have equal statements left, as the structural statements compare."""
        chain = []
        while point.code is None:
            chain.append(point)
            point = point.next
        code = point.code
        for point in reversed(chain):
            code = point.code = self.intern((point.key, code))
        return code

    def _message_key(self, m: QueuedMessage) -> _Id:
        # its signature and sync follow from method and args, its future
        # from its priority (see _async_call)
        return self._number(m, (m.priority, m.method, *map(type, m.args), *m.args))

    def object_id(self, st: ObjectState) -> _Id:
        found = st._id
        if found is None:
            # once per set: records share their message's sync or EMPTY_LOCKS
            locks = self._numbers.get(id(st.locks))
            if locks is None:
                key = frozenset([(e.label, type(e.value), e.value) for e in st.locks])
                locks = self._number(st.locks, key)
            values = st.fields.values()
            found = st._id = self.intern(
                (st.cls, st.myactor[1], locks, *map(type, values), *values)
            )
        return found

    def thread_id(self, thread: Thread) -> _Id:
        """A thread of one closure is keyed as its number, any other as the
        tuple of its closures' numbers (a closure's key holds its names)."""
        for c in thread:
            if c._id is None:
                values = c.env.values()
                code = self.code(c.point)
                c._id = self.intern((code, *c.env, *map(type, values), *values))
        return thread[0]._id if len(thread) == 1 else self.intern(tuple(map(_cached_id, thread)))

    def queues_id(self, queues: dict) -> _Id:
        # per group, its id and its messages' numbers in queue order
        return self.intern(
            tuple([(a[1], self._message_numbers(q)) for a, q in queues.items()])
        )

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

    def head_reads(self, config: "Configuration", top: Closure) -> Optional[frozenset[str]]:
        """The fields that are not stable which the head of ``top``'s point
        reads, as :class:`_AccessWalk` records them with ``this`` unknown;
        None when it evaluates an ``e?``.  :func:`is_safe` keeps it per
        point: a point only runs in frames of its own method, which all
        bind the same names, with ``this`` of its own class."""
        walk = _AccessWalk(config)
        cls = config.heap[top.env["this"].id].cls
        for e in _head_exprs(top.point.head):
            walk._expr(e, top.env, _UNKNOWN, cls)
        if (None, _RESOLVED, False) in walk.found:
            return None
        return frozenset([name for _, name, _ in walk.found])

    # ---- program lookups

    def event(self, cls: str, method: str, nargs: int) -> tuple[int, tuple]:
        """Signature number attached to an event sent to a group whose
        first object is of class ``cls``, and its sync plan, found once per
        class, method and arity.  Ambiguity across interfaces is a fault."""
        key = (cls, method, nargs)
        found = self._events.get(key)
        if found is None:
            supported = self.class_supported[cls]
            named = [s for s, n in self.signatures.items() if n in supported and s.name == method]
            sigs = [s for s in named if s.arity == nargs]
            if not sigs:
                found = f"actor does not accept '{method}' with {nargs} argument(s)"
            elif len(sigs) > 1:
                found = f"ambiguous signature for '{method}' across interfaces"
            else:
                found = (self.signatures[sigs[0]], sync_plan(sigs[0].param_labels))
            self._events[key] = found
        if type(found) is str:
            raise _EvalFault(found)
        return found


class Configuration:
    """One machine state.  Treat as immutable; steps build new ones.

    The heap, the threads and the futures are tuples indexed by id, and a
    reference indexes its kind's tuple (``heap[ref]``): objects never die,
    and a new object or future takes the next id, its tuple's length.
    ``queues`` maps each group id to its queue, in id order.  ``groups``
    lists each group's members in id order, the group's id first: the
    order :func:`enabled_steps` takes them in, which only a new object
    changes (an object's ``myactor`` never does).  A queued message's
    priority is its future's id: ASYNC-CALL, the one rule that makes a
    future, also queues the message.  A busy object's thread is a tuple
    of closures, each an environment and the program point it runs at
    (:class:`Point`); a closure is keyed by its point's code number and its
    environment.  Every step writes through :meth:`evolve`, which notes the
    slots it writes for :meth:`canonical`.
    """

    __slots__ = (
        "index",
        "heap",
        "threads",
        "futures",
        "queues",
        "groups",
        "fault",
        "_canon",
        "_base",
        "_written",
    )

    def __init__(
        self,
        index: ProgramIndex,
        heap: tuple,
        threads: tuple,
        futures: Futures,
        queues: dict,
        groups: tuple,
        fault: Optional[str] = None,
    ):
        self.index = index
        self.heap = heap  # ObjectState by object id
        self.threads = threads  # Thread by object id
        self.futures = futures  # Value | PENDING by future id
        self.queues = queues  # ObjRef (group id) -> tuple[QueuedMessage, ...]
        self.groups = groups  # tuple[ObjRef, ...] per group
        self.fault = fault
        self._canon = None
        # the nearest keyed ancestor and the refs of the slots written since
        self._base: Optional[Configuration] = None
        self._written: Optional[tuple] = None

    def evolve(
        self,
        *,
        thread: Optional[tuple] = None,
        record: Optional[tuple] = None,
        future: Optional[tuple] = None,
        queues: Optional[dict] = None,
        groups: Optional[tuple] = None,
        fault: Optional[str] = None,
    ) -> "Configuration":
        """This state with the slots ``thread`` ``(obj, Thread)``, ``record``
        ``(obj, ObjectState)`` and ``future`` ``(fut, value)`` written, the
        next id appending, and ``queues``, ``groups`` and ``fault`` replaced;
        a part left None is kept (no step sets one to None)."""
        out = object.__new__(Configuration)
        out.index = self.index
        out.heap, out.threads, out.futures = self.heap, self.threads, self.futures
        if thread is not None:
            out.threads = _put(self.threads, thread[0][1], thread[1])
        if record is not None:
            out.heap = _put(self.heap, record[0][1], record[1])
        if future is not None:
            out.futures = Futures(_put(self.futures, future[0][1], future[1]))
        out.queues = self.queues if queues is None else queues
        out.groups = self.groups if groups is None else groups
        out.fault = self.fault if fault is None else fault
        out._canon = None
        if self._canon is not None:
            out._base, written = self, ()
        else:
            out._base, written = self._base, self._written
        if written is not None:
            for slot in (thread, record, future):
                if slot is not None and slot[0] not in written:
                    written += (slot[0],)
        out._written = written
        return out

    def canonical(self):
        """Key of this state for the explorer's visited set.

        ``(fault, queues, heap, threads, futures)``: the queues' interned
        number, then per slot tuple the tuple of its slots' numbers (a
        future's value is keyed with its type).  A state whose ancestor has
        a key copies it and re-keys only the slots written since whose
        value is not the ancestor's.  Two configurations of one
        ProgramIndex have equal keys exactly when they are structurally
        equal, values compared with their type (``True`` is not ``1``).
        """
        key = self._canon
        if key is None:
            index = self.index
            base = self._base
            if base is None:
                futures = self.futures
                key = (
                    self.fault,
                    index.queues_id(self.queues),
                    tuple(map(index.object_id, self.heap)),
                    tuple(map(index.thread_id, self.threads)),
                    tuple(map(index.intern, zip(map(type, futures), futures))),
                )
            else:
                _, queues, heap, threads, futures = base._canon
                if self.queues is not base.queues:
                    queues = index.queues_id(self.queues)
                old_heap, old_threads = base.heap, base.threads
                for ref in self._written:
                    i = ref[1]
                    if type(ref) is FutRef:
                        value = self.futures[i]
                        slot = (index.intern((type(value), value)),)
                        futures = futures[:i] + slot + futures[i + 1 :]
                        continue
                    made = i >= len(old_heap)
                    if made or self.heap[i] is not old_heap[i]:
                        heap = heap[:i] + (index.object_id(self.heap[i]),) + heap[i + 1 :]
                    if made or self.threads[i] is not old_threads[i]:
                        slot = (index.thread_id(self.threads[i]),)
                        threads = threads[:i] + slot + threads[i + 1 :]
                key = (self.fault, queues, heap, threads, futures)
                self._base = self._written = None
            self._canon = key
        return key

    def mentioned(self) -> frozenset[int]:
        """Ids of the objects some value of this state refers to: in an
        environment, a field, a lock, a queued argument, a future or a
        ``ValueLit`` head."""
        values = list(self.futures)
        for st in self.heap:
            values += st.fields.values()
            values += [e.value for e in st.locks]
        for queue in self.queues.values():
            for msg in queue:
                values += msg.args
        for thread in self.threads:
            for closure in thread:
                values += closure.env.values()
                head = closure.point.head
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
        thread = self.threads[0]
        return dict(thread[0].env) if thread else {}


ANONYMOUS = ObjRef(0)


def initial_config(program: Program) -> Configuration:
    """The starting state: one anonymous group holding the main process.

    The anonymous object has no class and no interfaces, and its group has
    no event queue, so it can never be sent or scheduled a message.  Objects
    created from main (and transitively from those) join this group.
    """
    env: dict = {"this": ANONYMOUS}
    for d in program.main_vars:
        env[d.name] = default_value(d.type)
    index = ProgramIndex(program)
    return Configuration(
        index=index,
        heap=(ObjectState(cls=None, myactor=ANONYMOUS, locks=EMPTY_LOCKS, fields={}),),
        threads=((Closure(env, index.entry(program.main_body)),),),
        futures=Futures(),
        queues={},
        groups=((ANONYMOUS,),),
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
        fields = config.heap[env["this"].id].fields
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
        return config.futures[v.id] is not PENDING
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

def enabled_steps(config: Configuration, select_fn: Callable = default_select) -> list[StepLabel]:
    """All rule instances whose premises hold, in deterministic order
    (group id, then object id): the label :func:`object_step` gives each
    object, where it gives one.  A faulted configuration has none.

    ``select_fn``, which must be a function of its arguments, is asked once
    per worker class among a group's idle members, for all of them: an
    idle object holds no locks, so its pick depends only on its class's
    supported set, its group's locks and the queue."""
    if config.fault is not None:
        return []
    heap, threads = config.heap, config.threads
    labels: list[StepLabel] = []
    for members in config.groups:
        actor = members[0]
        # class -> the SCHED-MSG of one of its idle members, or None
        picks: dict = {}
        for obj in members:
            if threads[obj[1]]:
                label = object_step(config, actor, obj, select_fn)
            else:
                cls = heap[obj[1]].cls
                label = picks.get(cls, _UNSEEN)
                if label is _UNSEEN:
                    label = picks[cls] = _sched_step(config, members, obj, select_fn)
                elif label is not None:  # the same method and priority
                    label = _new_tuple(StepLabel, ("SCHED-MSG", actor, obj, *label[3:]))
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
    thread = config.threads[obj.id]
    if thread:
        top = thread[-1]
        if top.point.head is None:
            return None  # the main closure after its last statement
        return _stmt_step(config, actor, obj, thread, top)
    return _sched_step(config, next(m for m in config.groups if m[0] == actor), obj, select_fn)


def _sched_step(config: Configuration, members: tuple, obj: ObjRef, select_fn: Callable):
    """The SCHED-MSG of ``obj``, an idle member of group ``members``, or
    None.  The group holds its members' locks."""
    actor, heap = members[0], config.heap
    queue = config.queues.get(actor)  # the anonymous group has none
    if not queue:
        return None
    held = EMPTY_LOCKS
    for o in members:
        locks = heap[o[1]].locks
        if locks:
            held = held | locks if held else locks
    msg = select_fn(config.index.class_supported[heap[obj[1]].cls], held, queue)
    if msg is None:
        return None
    return _new_tuple(StepLabel, ("SCHED-MSG", actor, obj, msg.method, msg.priority))


def _stmt_step(config: Configuration, actor: ObjRef, obj: ObjRef, thread: Thread, top: Closure):
    """The step of the head of ``top``, or None for a ``get`` that waits."""
    s = top.point.head
    t = type(s)  # statement and expression classes are final
    if t is Assign:
        rhs = type(s.value)
        if rhs is SyncCall:
            return _new_tuple(StepLabel, ("SYNC-CALL", actor, obj, s.value.method, None))
        if rhs is AsyncCall:
            return _new_tuple(StepLabel, ("ASYNC-CALL", actor, obj, s.value.method, None))
        if rhs is NewObject:
            return _new_tuple(StepLabel, ("NEW-ACTOB", actor, obj, None, None))
        if rhs is NewActor:
            return _new_tuple(StepLabel, ("NEW-ACTOR", actor, obj, None, None))
        rule = "ASSIGN-LOCAL" if s.target in top.env else "ASSIGN-FIELD"
        return _new_tuple(StepLabel, (rule, actor, obj, None, None))
    if t is GetStmt:
        # a bad expression or a non-future is enabled, and the step faults
        try:
            v = _eval(config, top.env, s.value)
        except _EvalFault:
            v = None
        if type(v) is FutRef and config.futures[v[1]] is PENDING:
            return None  # blocked until the future resolves
        return _new_tuple(StepLabel, ("READ-FUT", actor, obj, None, None))
    if t is If or t is While:
        try:
            rule = "COND-TRUE" if _eval_guard(config, top.env, s.cond) else "COND-FALSE"
        except _EvalFault:
            rule = "COND-TRUE"  # enabled, and the step faults
        return _new_tuple(StepLabel, (rule, actor, obj, None, None))
    if t is Return:
        rule = "SYNC-RETURN" if len(thread) > 1 else "ASYNC-RETURN"
        return _new_tuple(StepLabel, (rule, actor, obj, None, None))
    raise TypeError(f"unhandled statement {s!r}")


# --------------------------------------------------------------------------
# independence

# Rules that change nothing but their own thread.  READ-FUT only runs on a
# resolved future, and a future is written once.  SYNC-CALL also reads the
# callee's class and group, which never change.
_LOCAL_RULES = frozenset(
    {"ASSIGN-LOCAL", "COND-TRUE", "COND-FALSE", "READ-FUT", "SYNC-CALL", "SYNC-RETURN"}
)
_SAFE_RULES = _LOCAL_RULES | {"ASSIGN-FIELD", "ASYNC-CALL", "ASYNC-RETURN"}

# Pseudo-fields of the accesses _AccessWalk records, named as no field can
# be: a send writes the queue "!" of its target group and the next future
# id "#", which belongs to no object, and ``e?`` reads "?", whether some
# future is resolved.
_QUEUE, _NEXT_FUTURE, _RESOLVED = "!", "#", "?"
_SENDS = frozenset([(None, _NEXT_FUTURE, True)])  # a send to any group


def is_safe(config: Configuration, label: StepLabel, thread: Thread) -> bool:
    """Whether ``label``, a step enabled in ``config``, commutes with every
    step the other objects can take before it.  Such a step stays enabled
    until it is taken, and taking it first reaches every state, terminal
    and violation that taking it later would.

    ``thread`` is the frames of ``label``'s object: ``config``'s, or a
    stretch's copy of them (:class:`_Frames`).  Of ``config`` the judgment
    reads only the heap, the queues and the other objects' threads, which
    no local step changes, so every step of a stretch is judged against
    the state the stretch started from, with the stretch's frames.

    The step's expressions may read only literals, ``this``, names in the
    top closure's environment and fields of ``this`` (never ``e?``, whose
    answer another object changes).  Fields that
    :attr:`ProgramIndex.stable_fields` holds for the class of ``this``
    never change.  Four kinds of step qualify:

    * a rule of ``_LOCAL_RULES``, which changes only its own thread;
    * an ASSIGN-FIELD, which also writes one field of ``this``;
    * an ASYNC-CALL reading only stable fields, when nothing else can
      send to any group: future ids are global, so no other step takes a
      future id or a priority, and appending to a queue leaves a
      prefix-stable selection's answer alone;
    * the ASYNC-RETURN of object o in group G, when no message queued at
      G has a sync set that meets o's locks and nothing else can send to
      G or evaluate ``e?``.  ``scheduler.select`` compares held entries
      only with queued sync sets, so releasing o's locks changes no other
      object's pick.  A ``get`` on the future is disabled until the
      return, so writing it changes nothing another enabled step reads.

    A step that reads a field that is not stable, or writes one, qualifies
    only when nothing else can write what it reads, or read or write what
    it writes, before it is taken.  Here and above, "nothing else" is no
    other object's thread, no queued message and no message those may
    still send (:func:`_reached_first`).  The stepping object's own thread
    does nothing else before the step.

    A queued message of the stepping object's own group whose sync set
    overlaps that object's locks is not asked.  ``scheduler.select`` passes
    it over until the object's ASYNC-RETURN, which comes after the step
    (an ASYNC-RETURN itself qualifies only when there is no such message).
    Under a ``select_fn`` that ignores held locks it could start first,
    but only into a state whose lock sets overlap.  The step changes no
    lock or idle object and at most appends to a queue, so under a
    prefix-stable ``select_fn`` the search still reaches such a state and
    reports a theorem1 violation there.  A message of another group is
    always asked: lock sets are kept apart only inside a group, so it may
    hold the same entry at the same time.

    The facts that depend on one immutable value are derived once per
    value, not per state: what a head reads, once per program point
    (:meth:`ProgramIndex.head_reads`), and what the rest of a
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
    rule = label.rule
    if rule not in _SAFE_RULES:
        return False
    top = thread[-1]
    point = top.point
    reads = point.reads
    if reads is _UNSEEN:
        reads = point.reads = config.index.head_reads(config, top)
    if reads is None:
        return False
    if rule in _LOCAL_RULES:
        if not reads:
            return True
    elif rule == "ASYNC-CALL":
        return not reads and not _reached_first(config, label, _SENDS)
    this = top.env["this"].id
    if rule == "ASYNC-RETURN":
        held = config.heap[this].locks
        for msg in config.queues[label.actor]:
            if not held.isdisjoint(msg.sync):
                return False
        group = label.actor.id
        touched = {(group, _QUEUE, True), (None, _QUEUE, True), (None, _RESOLVED, False)}
    elif rule == "ASSIGN-FIELD":
        touched = {(obj, point.head.target, w) for obj in (this, None) for w in (True, False)}
    else:
        touched = set()
    touched.update([(obj, name, True) for obj in (this, None) for name in reads])
    return not _reached_first(config, label, touched)


def _head_exprs(s: Stmt) -> tuple:
    if isinstance(s, (If, While)):
        return (s.cond,)
    value = s.value  # Assign, GetStmt and Return
    if isinstance(value, (SyncCall, AsyncCall)):
        return (value.target,) + value.args
    return (value,)


def _reached_first(config: Configuration, label: StepLabel, touched) -> bool:
    """Whether, before ``label`` is taken, another object's thread, a
    queued message or a message they may still send can make an access in
    ``touched``: the ``(object id or None, field, written)`` triples, as
    :class:`_AccessWalk` records them, that conflict with the step.  Skips
    the queued messages :func:`is_safe` says it may."""
    mover = label.obj.id
    for obj, thread in enumerate(config.threads):
        if obj != mover:
            for closure in thread:
                if _touches(_closure_access(config, closure), touched):
                    return True
    held = config.heap[mover].locks
    for actor, queue in config.queues.items():
        for msg in queue:
            if (actor != label.actor or held.isdisjoint(msg.sync)) and _touches(
                _message_access(config, msg), touched
            ):
                return True
    return False


def _touches(access, touched) -> bool:
    return access is _ANY or not touched.isdisjoint(access)


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
    A send also writes the pseudo-field ``_QUEUE`` of its target group
    (None when the walk does not know the target) and ``_NEXT_FUTURE``,
    and ``e?`` reads ``_RESOLVED``.  :meth:`closure` and :meth:`message`
    walk once and give the accesses as a frozenset of those triples, or
    ``_ANY``.

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
            self._stmts, closure.stmts, dict(closure.env), this, self.heap[this.id].cls
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
            if t is AsyncCall:
                group = target.id if type(target) is ObjRef else None
                self.found.update([(group, _QUEUE, True), (None, _NEXT_FUTURE, True)])
            if t is AsyncCall or target is _UNKNOWN:
                self.any_object(value.method, args)
            elif type(target) is ObjRef and self.heap[target.id].cls is not None:
                self._method(self.heap[target.id].cls, value.method, target, args)
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
                return _UNKNOWN if this is _UNKNOWN else self.heap[this.id].fields[name]
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
            self.found.add((None, _RESOLVED, False))
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
    obj = label.obj
    heap = config.heap
    if not (
        type(obj) is ObjRef and 0 <= obj.id < len(heap) and heap[obj.id].myactor == label.actor
    ):
        raise StepNotEnabled(f"no process for {label.obj} in {label.actor}")
    if label != object_step(config, label.actor, label.obj, select_fn):
        raise StepNotEnabled(f"{label} is not enabled")
    return _apply(config, label)


def _apply(config: Configuration, label: StepLabel) -> Configuration:
    """:func:`step` without its check: for a label that
    :func:`object_step` or :func:`enabled_steps` has just given on
    ``config``, which the explorer and :func:`run` apply without deriving
    it again.  The rule runs on the object's frames as a stretch of one
    step (:class:`_Frames`), but for SCHED-MSG, whose object is idle.  A
    SCHED-MSG label names its message by priority, so no rule needs the
    selection."""
    try:
        if label.rule == "SCHED-MSG":
            return _sched_msg(config, label)
        frames = _Frames(config, label.obj)
        _RULES[label.rule](frames)
        return frames.written()
    except _EvalFault as fault:
        return config.evolve(fault=fault.diagnostic)


class _Frames(list):
    """The frames of object ``obj``'s thread in ``config`` while a stretch
    of its steps runs on them in place, and what the stretch's last step
    writes besides them: ``record`` ``(ref, ObjectState)``, ``future``
    ``(fut, value)`` and ``queues``, as :meth:`Configuration.evolve`
    takes them.  Every rule but SCHED-MSG runs on these.  A stretch is
    local steps (``_LOCAL_RULES``), which write their own thread and
    nothing else, ended by at most one other step, so ``config``'s heap,
    futures, queues and other threads are those of every state the
    stretch passes before that step; NEW adds its object to ``config``
    itself.  The top frame is always the stretch's own copy, which a step
    changes; a frame below it is not changed, and a SYNC-RETURN copies the
    frame it resumes.  :meth:`written` is the state reached, written
    through :meth:`Configuration.evolve` once."""

    __slots__ = ("config", "obj", "record", "future", "queues")

    def __init__(self, config: Configuration, obj: ObjRef):
        list.__init__(self, config.threads[obj.id])
        top = self[-1]
        self[-1] = Closure(dict(top.env), top.point)
        self.config, self.obj = config, obj
        self.record = self.future = self.queues = None

    def written(self) -> Configuration:
        return self.config.evolve(
            thread=(self.obj, tuple(self)),
            record=self.record,
            future=self.future,
            queues=self.queues,
        )


# ---- rule bodies: a rule evaluates first, then writes its frames, its
# target before anything else, so a fault leaves the frames as they were;
# SCHED-MSG, which has no frames, builds its successor

def _write(frames: _Frames, target: str, value: Value) -> None:
    """Write ``target`` in the top frame's environment or, failing that, in
    the fields of its object, then go on at the next point."""
    top = frames[-1]
    env = top.env
    if target in env:
        env[target] = value
    else:
        this = env["this"]
        state = frames.config.heap[this.id]
        if target not in state.fields:
            raise _EvalFault(f"assignment to unknown field '{target}'")
        fields = dict(state.fields)
        fields[target] = value
        frames.record = (this, ObjectState(state.cls, state.myactor, state.locks, fields))
    top.point = top.point.next


def _assign(frames: _Frames) -> None:
    """ASSIGN-LOCAL and ASSIGN-FIELD."""
    top = frames[-1]
    head = top.point.head
    _write(frames, head.target, _eval(frames.config, top.env, head.value))


def _cond(frames: _Frames) -> None:
    top = frames[-1]
    point = top.point
    s = point.head
    taken = _eval_guard(frames.config, top.env, s.cond)
    if type(s) is If:
        rest = point.then if taken else point.orelse
    else:
        rest = point.body if taken else point.next
    top.point = rest


def _read_fut(frames: _Frames) -> None:
    top = frames[-1]
    if type(_eval(frames.config, top.env, top.point.head.value)) is not FutRef:
        raise _EvalFault("'.get' applied to a non-future value")
    top.point = top.point.next


def _sync_call(frames: _Frames) -> None:
    config = frames.config
    top = frames[-1]
    point = top.point
    call: SyncCall = point.head.value
    callee = _eval(config, top.env, call.target)
    if callee is None:
        raise _EvalFault(f"synchronous call to '{call.method}' on null")
    if not isinstance(callee, ObjRef):
        raise _EvalFault("synchronous call target is not an object")
    caller_actor = config.heap[top.env["this"].id].myactor
    if config.heap[callee.id].myactor != caller_actor:
        raise _EvalFault(
            f"synchronous call to '{call.method}' crosses an actor boundary"
        )
    cls = config.heap[callee.id].cls
    index = config.index
    mdef = index.class_methods.get(cls, {}).get(call.method) if cls else None
    if mdef is None:
        raise _EvalFault(f"object has no method '{call.method}'")
    if len(call.args) != mdef.sig.arity:
        raise _EvalFault(f"'{call.method}' expects {mdef.sig.arity} argument(s)")
    args = [_eval(config, top.env, a) for a in call.args]
    callee_env = _method_frame(mdef, {"this": callee}, args)
    top.point = point.waiting
    frames.append(Closure(callee_env, index.entry(mdef.body)))


def _sync_return(frames: _Frames) -> None:
    # the caller below waits at the waiting point of its call site
    top = frames[-1]
    value = _eval(frames.config, top.env, top.point.head.value)
    frames.pop()
    below = frames[-1]
    frames[-1] = Closure(dict(below.env), below.point.resume(value))


def _async_call(frames: _Frames) -> None:
    config = frames.config
    top = frames[-1]
    call: AsyncCall = top.point.head.value
    target = _eval(config, top.env, call.target)
    if target is None:
        raise _EvalFault(f"asynchronous call to '{call.method}' on null")
    if not isinstance(target, ObjRef) or target not in config.queues:
        raise _EvalFault("asynchronous call target is not an actor")
    args = tuple(_eval(config, top.env, a) for a in call.args)
    sig, plan = config.index.event(config.heap[target.id].cls, call.method, len(args))
    fut = FutRef(len(config.futures))
    msg = QueuedMessage(
        method=call.method,
        args=args,
        future=fut,
        sync=planned_sync_set(plan, args),
        signature=sig,
        priority=fut.id,
    )
    _write(frames, top.point.head.target, fut)
    queues = dict(config.queues)
    queues[target] = queues[target] + (msg,)
    frames.future, frames.queues = (fut, PENDING), queues


def _async_return(frames: _Frames) -> None:
    config = frames.config
    top = frames[-1]
    dest = top.env["dest"]  # the resolver keeps return out of the main block
    v = _eval(config, top.env, top.point.head.value)
    assert config.futures[dest.id] is PENDING, "future written twice"
    obj = frames.obj
    state = config.heap[obj.id]
    frames.clear()
    frames.record = (obj, ObjectState(state.cls, state.myactor, EMPTY_LOCKS, state.fields))
    frames.future = (dest, v)


def _new(frames: _Frames) -> None:
    """NEW-ACTOB and NEW-ACTOR: ``new C(..)`` joins the caller's group, and
    ``new actor C(..)`` is the first object of a fresh group."""
    config = frames.config
    top = frames[-1]
    new = top.point.head.value
    cls = config.index.classes.get(new.class_name)
    if cls is None:
        raise _EvalFault(f"unknown class '{new.class_name}'")
    if len(new.args) != len(cls.params):
        raise _EvalFault(f"constructor of '{new.class_name}' arity mismatch")
    fields = {d.name: _eval(config, top.env, a) for d, a in zip(cls.params, new.args)}
    for d in cls.attributes:
        fields[d.name] = default_value(d.type)
    obj = ObjRef(len(config.heap))
    is_actor = type(new) is NewActor
    owner = obj if is_actor else config.heap[top.env["this"].id].myactor
    if is_actor:
        groups = config.groups + ((obj,),)
    else:
        groups = tuple([m + (obj,) if m[0] == owner else m for m in config.groups])
    _write(frames, top.point.head.target, obj)
    frames.config = config.evolve(
        record=(obj, ObjectState(cls=cls.name, myactor=owner, locks=EMPTY_LOCKS, fields=fields)),
        thread=(obj, ()),
        groups=groups,
        # The creation event is consumed on the spot: the fresh group
        # starts with its first object initialized, idle, and an empty queue.
        queues={**config.queues, obj: ()} if is_actor else None,
    )


def _sched_msg(config: Configuration, label: StepLabel) -> Configuration:
    actor, obj = label.actor, label.obj
    queue = config.queues[actor]
    i = 0
    while queue[i].priority != label.priority:
        i += 1
    msg = queue[i]
    queues = dict(config.queues)
    queues[actor] = queue[:i] + queue[i + 1 :]
    state = config.heap[obj.id]
    index = config.index
    mdef = index.class_methods[state.cls][msg.method]
    env = _method_frame(mdef, {"this": obj, "dest": msg.future}, msg.args)
    return config.evolve(
        thread=(obj, (Closure(env, index.entry(mdef.body)),)),
        record=(obj, ObjectState(state.cls, state.myactor, msg.sync, state.fields)),
        queues=queues,
    )


_RULES = {
    "ASSIGN-LOCAL": _assign,
    "ASSIGN-FIELD": _assign,
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
    script = iter(policy) if isinstance(policy, (list, tuple)) else None
    if script is None and policy not in ("fifo", "random"):
        raise ValueError(f"unknown policy {policy!r}")
    rng = random.Random(seed)
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
        else:
            chosen = rng.choice(labels)
        current = _apply(current, chosen)
        trace.append(chosen)
    if enabled_steps(current, select_fn):
        raise FuelExhausted(current, trace)
    return current, trace


def stuck(config: Configuration) -> list[str]:
    """What a quiescent state still holds, one line each: every object
    whose top frame has a statement left, which can only be a ``get`` on a
    pending future, and every queue with messages that no object can
    start.  A quiescent state that is not faulted and holds any of these is
    deadlocked."""
    lines = []
    for obj, thread in enumerate(config.threads):
        head = thread[-1].point.head if thread else None
        if head is not None:
            lines.append(f"obj{obj} waits on {format_expr(head.value)}.get")
    for actor, queue in config.queues.items():
        if queue:
            calls = (f"{m.method}({', '.join(map(repr, m.args))})" for m in queue)
            lines.append(f"queue of {actor!r}: {', '.join(calls)}")
    return lines
