import pytest
from hypothesis import given, settings, strategies as st

from mactor import QueuedMessage, SyncEntry, select, sync_set_of
from mactor.scheduler import EMPTY_LOCKS, LockTable, lock_union


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


# ---- sync_set_of

def test_sync_set_withdraw_like():
    assert sync_set_of(("a", None), (7, 50)) == {entry("a", 7)}


def test_sync_set_transfer_like():
    assert sync_set_of(("a", "a", None), (1, 2, 10)) == {entry("a", 1), entry("a", 2)}


def test_sync_set_no_labels():
    assert sync_set_of((None, None), (1, 2)) == frozenset()


def test_sync_set_arity_mismatch():
    with pytest.raises(ValueError):
        sync_set_of(("a",), (1, 2))


def test_sync_set_collapses_equal_entries():
    assert sync_set_of(("a", "a"), (5, 5)) == {entry("a", 5)}


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


# ---- lock_union

def test_lock_union_basic():
    assert lock_union([{entry("a", 1)}, {entry("a", 2)}]) == {entry("a", 1), entry("a", 2)}


def test_lock_union_empty():
    assert lock_union([frozenset(), frozenset()]) == frozenset()


def test_lock_union_disjoint_parts_sum():
    parts = [frozenset({entry("a", 1)}), frozenset({entry("a", 2), entry("b", 1)})]
    assert len(lock_union(parts)) == sum(len(p) for p in parts)


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
            chosen = select(supported, lock_union(m.sync for m in running), pending)
            assert table.take(supported) is chosen
            if chosen is not None:
                pending.remove(chosen)
                running.append(chosen)
        elif op[0] == "complete" and running:
            table.complete(running.pop(op[1] % len(running)))
        elif op[0] == "add_worker":
            workers.append(op[1])
        held = lock_union(m.sync for m in running)
        assert table.held() == held
        assert table.pending() == pending and len(table) == len(pending)
        for supported in workers:
            assert table.peek(supported) is select(supported, held, pending)


def test_lock_table_blocker_and_drop_pending():
    table = LockTable()
    running = msg(0, {entry(L, 1)})
    ghost = msg(1, {entry(L, 2)}, signature="ghost")
    transfer = msg(2, {entry(L, 1), entry(L, 2)})
    for m in (running, ghost, transfer):
        table.add(m)
    assert table.take({"s"}) is running
    assert table.blocker(ghost) is None
    assert table.blocker(transfer) == (entry(L, 1), running)
    assert table.pending() == [ghost, transfer]
    table.drop_pending()
    assert table.held() == {entry(L, 1)} and len(table) == 0
    table.complete(running)
    assert table.held() == frozenset() and table.take({"s", "ghost"}) is None
