import copy

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CountingSet
from mactor import QueuedMessage, SyncEntry, select
from mactor.scheduler import EMPTY_LOCKS, LockTable, planned_sync_set, sync_plan


def entry(label, value):
    return SyncEntry(label, value)


def msg(i, sync, signature="s"):
    return QueuedMessage(f"m{i}", (), None, frozenset(sync), signature, i)


def select_oracle(supported, held, queue):
    """Literal transcription of the recursive selection definition, kept
    independent of the library's iterative implementation."""
    if not queue:
        return None
    head, rest = queue[0], tuple(queue[1:])
    held = frozenset(held)
    if held.isdisjoint(head.sync) and head.signature in supported:
        return head
    return select_oracle(supported, held | head.sync, rest)


# ---- a signature's sync plan and a message's entries

def test_sync_set_withdraw_like():
    assert planned_sync_set(sync_plan(("a", None)), (7, 50)) == {entry("a", 7)}


def test_sync_set_transfer_like():
    assert planned_sync_set(sync_plan(("a", "a", None)), (1, 2, 10)) == {entry("a", 1), entry("a", 2)}


def test_sync_set_no_labels():
    assert planned_sync_set(sync_plan((None, None)), (1, 2)) == frozenset()


def test_sync_set_arity_mismatch():
    with pytest.raises(ValueError):
        planned_sync_set(sync_plan(("a",)), (1, 2))


def test_sync_set_collapses_equal_entries():
    assert planned_sync_set(sync_plan(("a", "a")), (5, 5)) == {entry("a", 5)}


# ---- the worked five-message queue

L, LP = "l", "lp"


def worked_queue():
    return (
        msg(1, {entry(L, 1)}),
        msg(2, {entry(LP, 1)}),
        msg(3, {entry(L, 1), entry(L, 2)}),
        msg(4, {entry(L, 2)}),
        msg(5, {entry(L, 3)}),
    )


def test_worked_example_head_selected():
    q = worked_queue()
    assert select({"s"}, EMPTY_LOCKS, q) is q[0]


def test_worked_example_m2_runs_beside_m1():
    q = worked_queue()[1:]
    assert select({"s"}, {entry(L, 1)}, q) is q[0]


def test_worked_example_m3_m4_blocked_m5_selected():
    q = worked_queue()[2:]
    held = {entry(L, 1), entry(LP, 1)}
    # m3 conflicts with the held set; m4 is shadowed by the skipped m3
    assert select({"s"}, held, q) is q[2]


def test_empty_queue_is_undefined():
    assert select({"s"}, {entry(L, 1)}, ()) is None
    assert select({"s"}, EMPTY_LOCKS, ()) is None


def test_queue_not_mutated():
    q = worked_queue()
    before = tuple(q)
    select({"s"}, {entry(L, 1)}, q)
    assert tuple(q) == before


def test_unsupported_signature_never_returned_but_shadows():
    q = (msg(1, {entry(L, 1)}, signature="other"), msg(2, {entry(L, 1)}))
    assert select({"s"}, EMPTY_LOCKS, q) is None


def test_relaxation_keeps_lock_shadows():
    # skipped for a lock conflict: shadows the later message on that entry
    q = (msg(1, {entry(L, 1)}), msg(2, {entry(L, 1)}))
    assert select({"s"}, {entry(L, 1)}, q) is None


# ---- properties against the oracle

entries_st = st.builds(
    SyncEntry, st.sampled_from(["l1", "l2", "l3"]), st.integers(min_value=0, max_value=3)
)
sync_sets_st = st.frozensets(entries_st, max_size=3)


@st.composite
def queues_st(draw, max_len=8):
    shapes = draw(st.lists(st.tuples(sync_sets_st, st.sampled_from(["s1", "s2"])), max_size=max_len))
    return tuple(
        QueuedMessage(f"m{i}", (), None, sync, sig, i) for i, (sync, sig) in enumerate(shapes)
    )


held_st = st.frozensets(entries_st, max_size=4)
supported_st = st.sampled_from([frozenset({"s1"}), frozenset({"s1", "s2"})])


@settings(max_examples=300, deadline=None)
@given(supported_st, held_st, queues_st())
def test_select_matches_oracle(supported, held, queue):
    assert select(supported, held, queue) is select_oracle(supported, held, queue)


@settings(max_examples=300, deadline=None)
@given(supported_st, held_st, queues_st())
def test_order_preservation(supported, held, queue):
    """A message never overtakes an earlier one it conflicts with."""
    chosen = select(supported, held, queue)
    if chosen is None:
        return
    for earlier in queue:
        if earlier.priority >= chosen.priority:
            break
        assert not (earlier.sync & chosen.sync)


@settings(max_examples=300, deadline=None)
@given(supported_st, held_st, sync_sets_st, queues_st())
def test_monotone_blocking(supported, held, extra, queue):
    """Growing the held set can only push the choice deeper into the queue."""
    small = select(supported, held, queue)
    big = select(supported, frozenset(held) | extra, queue)
    if big is None:
        return
    assert small is not None
    assert big.priority >= small.priority


@settings(max_examples=100, deadline=None)
@given(supported_st, held_st, queues_st())
def test_select_is_pure(supported, held, queue):
    first = select(supported, held, queue)
    second = select(supported, held, queue)
    assert first is second
    assert all(m.sync == n.sync for m, n in zip(queue, queue))


# ---- the lock table against select

WORKER_KINDS = (frozenset({"a", "b"}), frozenset({"a"}), frozenset({"b"}))
# "ghost" is a method no worker supports; a key list may repeat an entry
table_ops_st = st.lists(
    st.one_of(
        st.tuples(st.just("send"), st.sampled_from(["a", "b", "ghost"]), st.lists(entries_st, max_size=3)),
        st.tuples(st.just("start"), st.integers(0, 7)),
        st.tuples(st.just("complete"), st.integers(0, 7)),
        st.tuples(st.just("add_worker"), st.sampled_from(WORKER_KINDS)),
    ),
    max_size=40,
)


def priority(message):
    return None if message is None else message.priority


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(WORKER_KINDS), min_size=1, max_size=2), table_ops_st)
def test_lock_table_matches_select(workers, ops):
    """After every send, start, completion or new worker, the table offers
    each worker exactly what select picks over a plain list of the pending
    messages, with the running messages' entries held."""
    table, pending, running = LockTable(), [], []
    workers = list(workers)
    for i, op in enumerate(ops):
        if op[0] == "send":
            message = QueuedMessage(op[1], (), None, frozenset(op[2]), op[1], i)
            table.add(message)
            pending.append(message)
        elif op[0] == "start":
            supported = workers[op[1] % len(workers)]
            chosen = select(supported, frozenset().union(*(m.sync for m in running)), pending)
            assert table.take(supported) is chosen
            if chosen is not None:
                pending.remove(chosen)
                running.append(chosen)
        elif op[0] == "complete" and running:
            table.complete(running.pop(op[1] % len(running)))
        elif op[0] == "add_worker":
            workers.append(op[1])
        held = frozenset().union(*(m.sync for m in running))
        assert table.held() == held
        assert table.pending() == pending and len(table) == len(pending)
        for supported in workers:
            # what take would start, taken from a copy so that nothing
            # starts; the copy holds copies of the messages
            offered = copy.deepcopy(table).take(supported)
            assert priority(offered) == priority(select(supported, held, pending))


def test_lock_table_blocker_and_drop_pending():
    table = LockTable()
    running = msg(0, {entry(L, 1)})
    ghost = msg(1, {entry(L, 2)}, signature="ghost")
    transfer = msg(2, {entry(L, 1), entry(L, 2)})
    for m in (running, ghost, transfer):
        table.add(m)
    assert table.take(frozenset({"s"})) is running
    assert table.blocker(ghost) is None
    assert table.blocker(transfer) == (entry(L, 1), running)
    assert table.pending() == [ghost, transfer]
    table.drop_pending()
    assert table.held() == {entry(L, 1)} and len(table) == 0
    table.complete(running)
    assert table.held() == frozenset() and table.take(frozenset({"s", "ghost"})) is None


@settings(max_examples=300, deadline=None)
@given(table_ops_st)
def test_lock_table_names_the_messages_that_become_ready(ops):
    """add and complete return the messages they make ready: those select
    would start for a worker that supports that message alone.  The
    runtime dispatches only those."""
    table, pending, running, ready = LockTable(), [], [], set()
    for i, op in enumerate(ops):
        if op[0] == "send":
            message = QueuedMessage(op[1], (), None, frozenset(op[2]), op[1], i)
            if table.add(message):
                ready.add(i)
            pending.append(message)
        elif op[0] == "start":
            chosen = table.take(WORKER_KINDS[op[1] % len(WORKER_KINDS)])
            if chosen is not None:
                pending.remove(chosen)
                running.append(chosen)
                ready.remove(chosen.priority)
        elif op[0] == "complete" and running:
            ready.update(m.priority for m in table.complete(running.pop(op[1] % len(running))))
        held = frozenset().union(*(m.sync for m in running))
        # the priority as signature: a worker that supports one message
        alone = [m._replace(signature=m.priority) for m in pending]
        assert ready == {m.priority for m in pending if select({m.priority}, held, alone)}


@pytest.mark.parametrize("queued", [1_000, 8_000])
def test_take_behind_a_backlog_of_another_signature_tests_each_ready_signature_once(queued):
    """A busy worker's backlog of ``b`` messages, all ready, is not looked
    through when a worker that supports only ``a`` takes the one ``a``:
    its supported set is asked once per signature with a ready message,
    however long the backlog."""
    table = LockTable()
    busy = msg(0, set(), signature="b")
    table.add(busy)
    assert table.take(frozenset({"b"})) is busy
    for i in range(1, queued + 1):
        table.add(msg(i, set(), signature="b"))
    wanted = msg(queued + 1, set(), signature="a")
    assert table.add(wanted)
    supported = CountingSet({"a"})
    assert table.take(supported) is wanted
    assert supported.tests <= 2  # the ready signatures: "a" and "b"
    assert len(table) == queued


def test_take_asks_nothing_once_its_class_heap_exists():
    """A one-class table with the bank's four signatures all ready: once the
    class's first take has built its heap, a take asks ``supported``
    nothing, however many signatures have a ready message."""
    signatures = ("withdraw", "deposit", "transfer", "check")
    supported = CountingSet(signatures)
    table = LockTable()
    for i, signature in enumerate(signatures):
        table.add(msg(i, set(), signature=signature))
    assert [table.take(supported).priority for _ in signatures] == [0, 1, 2, 3]
    # ready again, each signature's first message earlier than the last one's
    for i, signature in enumerate(reversed(signatures), start=4):
        table.add(msg(i, set(), signature=signature))
    for priority in range(4, 8):
        supported.tests = 0
        assert table.take(supported).priority == priority
        assert supported.tests == 0


def test_a_class_that_takes_nothing_keeps_no_pile_of_started_messages():
    """Messages another class starts are dropped from a class's heap once
    they fill half of it, so a class whose workers stay busy does not keep
    every message the others run meanwhile."""
    table = LockTable()
    both, only_b = frozenset({"a", "b"}), frozenset({"b"})
    assert table.take(both) is None
    for i in range(1_000):
        table.add(msg(i, set(), signature="b"))
        assert table.take(only_b).priority == i
    assert max(map(len, table._classes.values())) <= 3
