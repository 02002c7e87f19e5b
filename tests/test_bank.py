import pytest

from conftest import PROGRAMS, load_config
from mactor import BankTeller, EventLog, MacActor, explore_all
from mactor.bank import (
    WINDOW,
    Mix,
    ReentrancyCanary,
    Workload,
    audit_events,
    iter_requests,
    read_jsonl,
    replay_oracle,
    run_scenario,
)
from mactor.cli import macbench_main, maci_main
from mactor.parser import MAX_NESTING


# ---- teller arithmetic

def test_deposit_then_withdraw():
    accounts = {1: 0}
    teller = BankTeller(accounts)
    assert teller.deposit(1, 100) == 100
    assert teller.withdraw(1, 40) is True
    assert accounts[1] == 60


def test_insufficient_funds_leaves_balance():
    accounts = {1: 30}
    teller = BankTeller(accounts)
    assert teller.withdraw(1, 31) is False
    assert accounts[1] == 30


def test_transfer_conserves_total():
    accounts = {1: 100, 2: 50}
    teller = BankTeller(accounts)
    assert teller.transfer(1, 2, 70) is True
    assert accounts == {1: 30, 2: 120}
    assert teller.transfer(2, 1, 500) is False
    assert sum(accounts.values()) == 150


def test_create_account_numbers_sequentially():
    accounts = {}
    teller = BankTeller(accounts)
    assert teller.create_account(0, 1000) == 1
    assert teller.create_account(0, 2000) == 2
    assert accounts == {1: 1000, 2: 2000}


# ---- workload generation

def test_workload_is_deterministic_and_counted():
    w = Workload(accounts=5, requests=173, seed=9)
    first = list(iter_requests(w))
    second = list(iter_requests(w))
    assert first == second
    assert len(first) == 173


def test_workload_batches_per_account():
    w = Workload(accounts=3, requests=60, batch=10, seed=1)
    reqs = list(iter_requests(w))
    first_batch = reqs[:10]
    assert {args[0] for _, args in first_batch} == {1}
    second_batch = reqs[10:20]
    assert {args[0] for _, args in second_batch} == {2}


def test_workload_distributed_evenly():
    w = Workload(accounts=4, requests=400, batch=10, seed=3)
    counts = {}
    for _, args in iter_requests(w):
        counts[args[0]] = counts.get(args[0], 0) + 1
    assert all(count == 100 for count in counts.values())


@pytest.mark.parametrize(
    "sizes", [dict(batch=0), dict(accounts=0), dict(requests=0), dict(batch=-1)]
)
def test_workload_rejects_nonpositive_sizes(sizes):
    # Only constructs: iterating a batch-0 workload used to loop forever.
    with pytest.raises(ValueError, match=next(iter(sizes))):
        Workload(**{"accounts": 2, "requests": 3, **sizes})


@pytest.mark.parametrize(
    "shares",
    [(-1, 0.4, 0.1, 0.1), (2, 0.4, 0.1, 0.1), (0.4, 0.4, 0.1, 0.0)],
    ids=["negative", "over-one", "under-one"],
)
def test_mix_rejects_negative_shares_and_a_sum_other_than_one(shares):
    # (-1, .4, .1, .1) used to make every request a check
    with pytest.raises(ValueError, match="mix shares"):
        Mix(*shares)


def test_different_seeds_differ():
    a = list(iter_requests(Workload(accounts=4, requests=100, seed=1)))
    b = list(iter_requests(Workload(accounts=4, requests=100, seed=2)))
    assert a != b


# ---- oracle

def test_oracle_matches_manual_replay():
    w = Workload(accounts=2, requests=40, seed=7, initial_balance=100)
    balances = {1: 100, 2: 100}
    for method, args in iter_requests(w):
        if method == "withdraw" and args[1] <= balances[args[0]]:
            balances[args[0]] -= args[1]
        elif method == "deposit":
            balances[args[0]] += args[1]
        elif method == "transfer" and args[2] <= balances[args[0]]:
            balances[args[0]] -= args[2]
            balances[args[1]] += args[2]
    assert replay_oracle(w) == balances


def test_oracle_conserves_total_under_transfers_only():
    w = Workload(
        accounts=6, requests=500, seed=11, mix=Mix(0.0, 0.0, 1.0, 0.0), initial_balance=500
    )
    assert sum(replay_oracle(w).values()) == 6 * 500


# ---- concurrent runs against the oracle

def test_single_worker_matches_oracle():
    w = Workload(accounts=10, requests=2000, seed=5)
    report = run_scenario(w, workers=1)
    assert report.volume == 2000 and report.workers == 1
    assert report.throughput_mps > 0


def test_four_workers_match_oracle_with_canary_and_audit():
    w = Workload(accounts=10, requests=2000, seed=6)
    log = EventLog()
    report = run_scenario(w, workers=4, event_log=log, canary=ReentrancyCanary())
    assert report.ordering is not None and report.ordering.ok
    assert report.ordering.keys > 0
    assert report.shutdown.executed == 2000


def test_single_request_trivially_correct():
    w = Workload(accounts=1, requests=1, seed=0)
    report = run_scenario(w, workers=2)
    assert report.throughput_mps > 0


def test_transfer_only_run_conserves_total():
    w = Workload(
        accounts=6, requests=600, seed=13, mix=Mix(0.0, 0.0, 1.0, 0.0), initial_balance=500
    )
    run_scenario(w, workers=4)  # raises on divergence from the oracle


def test_zero_balance_withdraw_only():
    w = Workload(
        accounts=4, requests=100, seed=2, mix=Mix(1.0, 0.0, 0.0, 0.0), initial_balance=0
    )
    report = run_scenario(w, workers=2)
    assert report.shutdown.executed == 100


def test_closed_loop_keeps_at_most_window_in_flight():
    """A worker logs ``complete`` before it settles the future the client
    waits on, so when a request is enqueued at most WINDOW requests,
    itself included, have not completed."""
    log = EventLog()
    w = Workload(accounts=8, requests=2000, seed=4)
    run_scenario(w, workers=1, work_us=100, event_log=log)
    enqueued = completed = ahead = 0
    for ev in log.events():
        if ev["event"] == "enqueue":
            enqueued += 1
            ahead = max(ahead, enqueued - completed)
        elif ev["event"] == "complete":
            completed += 1
    assert enqueued == completed == 2000
    assert ahead <= WINDOW


def test_too_few_requests_rejected():
    with pytest.raises(ValueError):
        run_scenario(Workload(accounts=10, requests=5), workers=1)


def test_runtime_agrees_with_interpreter_on_shared_scenario():
    """The thread pool and the machine resolve the same futures for the
    request stream of the small exploration program."""
    report = explore_all(load_config("bank_small"), 500)
    assert report.ok and len(report.terminals) >= 1
    terminal = report.terminals[0]
    env = terminal.main_env()
    interp_values = [terminal.futures[env[name]] for name in ("w1", "w2", "w3", "w4", "c2")]
    interp_balances = terminal.heap[env["bank"]].fields

    accounts = {1: 100, 2: 100}
    actor = MacActor(lambda: BankTeller(accounts), workers=2)
    futures = [
        actor.send("withdraw", (1, 10)),
        actor.send("withdraw", (1, 20)),
        actor.send("withdraw", (1, 30)),
        actor.send("withdraw", (2, 40)),
        actor.send("check", (2,)),
    ]
    actor.shutdown(drain=True)
    runtime_values = [f.get(timeout=5) for f in futures]
    assert runtime_values == interp_values
    assert accounts == {1: interp_balances["bal1"], 2: interp_balances["bal2"]}


# ---- event audit on crafted logs

def _ev(event, priority, t, sync):
    return {"event": event, "t": t, "priority": priority, "method": "m", "sync": sync}


def test_audit_flags_overlap_and_order():
    key = [["a", 1]]
    overlapping = [
        _ev("dispatch", 0, 100, key),
        _ev("dispatch", 1, 110, key),
        _ev("complete", 0, 120, key),
        _ev("complete", 1, 130, key),
    ]
    audit = audit_events(overlapping)
    assert not audit.ok and any("overlap" in v for v in audit.violations)

    reordered = [
        _ev("dispatch", 1, 100, key),
        _ev("complete", 1, 105, key),
        _ev("dispatch", 0, 110, key),
        _ev("complete", 0, 115, key),
    ]
    audit = audit_events(reordered)
    assert not audit.ok and any("started before" in v for v in audit.violations)


def test_audit_accepts_clean_log():
    key = [["a", 1]]
    clean = [
        _ev("dispatch", 0, 100, key),
        _ev("complete", 0, 110, key),
        _ev("dispatch", 1, 120, key),
        _ev("complete", 1, 130, key),
    ]
    audit = audit_events(clean)
    assert audit.ok and audit.keys == 1 and audit.intervals == 2


def test_audit_round_trips_through_jsonl(tmp_path):
    w = Workload(accounts=4, requests=200, seed=17)
    log = EventLog()
    run_scenario(w, workers=2, event_log=log)
    path = tmp_path / "events.jsonl"
    log.write_jsonl(path)
    re_read = read_jsonl(path)
    assert audit_events(re_read).ok
    assert len(re_read) == len(log.events())


# ---- sweep and CSV

def test_sweep_cardinality_and_csv(tmp_path, capsys):
    """macbench runs every volume with every worker count, volume-major,
    and writes one CSV row per run under a fixed header."""
    out = tmp_path / "report.csv"
    rc = macbench_main([
        "--accounts", "4", "--requests", "100,200", "--workers", "1,2",
        "--work-us", "0", "--seed", "3", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "volume,workers,time_ms,throughput_mps"
    assert len(lines) == 5
    assert [tuple(map(int, line.split(",")[:2])) for line in lines[1:]] == [
        (100, 1), (100, 2), (200, 1), (200, 2)
    ]


def test_same_seed_same_stream():
    base = Workload(accounts=4, requests=150, seed=8)
    assert list(iter_requests(base)) == list(iter_requests(base))


# ---- CLI smoke

def test_maci_run_cli(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    rc = maci_main(["run", str(PROGRAMS / "bank_small.mac"), "--trace", str(trace)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "status: quiescent" in out
    assert "c2 = 60" in out
    assert trace.exists() and len(read_jsonl(trace)) > 0


# outer() holds (a, 1) and waits for inner(1), which needs (a, 1)
SAME_KEY_GET = """
interface IO { Int outer(sync<a> Int k); Int inner(sync<a> Int k); }
class O implements IO {
  Int outer(sync<a> Int k) { Fut<Int> f; f = this!inner(k); f.get; return 1; }
  Int inner(sync<a> Int k) { return k; }
}
{ Actor<IO> o; Fut<Int> g; o = new actor O(); g = o!outer(1); g.get; }
"""


def test_maci_run_reports_a_deadlock(tmp_path, capsys):
    # quiescent with threads still waiting used to print "status: quiescent"
    program = tmp_path / "stuck.mac"
    program.write_text(SAME_KEY_GET)
    rc = maci_main(["run", str(program)])
    out = capsys.readouterr().out
    assert rc == 4
    assert out.splitlines()[1:] == [
        "status: deadlock",
        "  obj0 waits on g.get",
        "  obj1 waits on f.get",
        "  queue of obj1: inner(1)",
        "futures:",
        "  g = <pending>",
    ]


def test_maci_explore_reports_a_deadlock(tmp_path, capsys):
    # the deadlocked terminal used to count as a clean one, with exit 0
    program = tmp_path / "stuck.mac"
    program.write_text(SAME_KEY_GET)
    rc = maci_main(["explore", str(program)])
    out = capsys.readouterr().out
    assert rc == 4
    assert "terminals: 1 (faulted: 0, deadlocked: 1)" in out.splitlines()
    assert "truncated: False" in out.splitlines()


@pytest.mark.parametrize("name", sorted(p.stem for p in PROGRAMS.glob("*.mac") if p.stem != "loop"))
def test_maci_run_ends_the_bundled_programs_clean(name, capsys):
    # loop.mac spins for ever; test_maci_run_fuel_exhausted runs it
    assert maci_main(["run", str(PROGRAMS / f"{name}.mac")]) == 0
    assert "status: quiescent" in capsys.readouterr().out


def test_maci_run_fuel_exhausted(capsys):
    rc = maci_main(["run", str(PROGRAMS / "loop.mac"), "--fuel", "50"])
    out = capsys.readouterr().out
    assert rc == 2 and "fuel exhausted" in out


@pytest.mark.parametrize(
    "bad",
    [["run", "--fuel", "0"], ["run", "--fuel", "-3"], ["explore", "--depth", "0"]],
    ids=["fuel-0", "fuel-negative", "depth-0"],
)
def test_maci_rejects_nonpositive_budgets(bad, capsys):
    # run used to end in a ValueError traceback
    command, *flag = bad
    with pytest.raises(SystemExit) as stop:
        maci_main([command, str(PROGRAMS / "bank_small.mac"), *flag])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: maci " + command) and "must be at least 1" in err


def test_maci_run_reports_a_fault(tmp_path, capsys):
    program = tmp_path / "boom.mac"
    program.write_text(
        "interface IB { Bool boom(); }"
        " class K implements IB { Bool boom() { Bool b; b = 1 && true; return b; } }"
        " { Actor<IB> a; Fut<Bool> f; a = new actor K(); f = a!boom(); f.get; }"
    )
    rc = maci_main(["run", str(program)])
    out = capsys.readouterr().out
    assert rc == 3
    assert "fault: '&&' applied to non-boolean operands" in out
    assert out.endswith("futures:\n  f = <pending>\n")


@pytest.mark.parametrize(
    "source, trace, why",
    [
        (None, None, "No such file or directory"),
        ("{ x = 1; }", None, "assignment to undeclared variable 'x'"),
        (b"\xff\xfe{ }", None, "can't decode byte 0xff in position 0"),
        ("{ }", "missing/t.jsonl", "No such file or directory"),
        ("{ }", ".", "Is a directory"),
    ],
    ids=["missing-file", "resolution-error", "not-utf8", "trace-in-missing-dir", "trace-is-dir"],
)
def test_maci_reports_load_errors_in_one_line(source, trace, why, tmp_path, capsys, monkeypatch):
    # An unwritable --trace used to end in a traceback after the whole run.
    def no_run(*args, **kwargs):
        raise AssertionError("the program ran")

    monkeypatch.setattr("mactor.cli.run", no_run)
    program = tmp_path / "p.mac"
    if isinstance(source, bytes):
        program.write_bytes(source)
    elif source is not None:
        program.write_text(source)
    argv = ["run", str(program)]
    if trace is not None:
        argv += ["--trace", str(tmp_path / trace)]
    with pytest.raises(SystemExit) as stop:
        maci_main(argv)
    assert stop.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{argv[-1]}: ") and why in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_maci_explore_cli(capsys):
    rc = maci_main(["explore", str(PROGRAMS / "bank_small.mac"), "--depth", "500"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "states:" in out and "truncated: False" in out
    assert "terminals: 1 (faulted: 0, deadlocked: 0)" in out
    fields = dict(line.split(": ", 1) for line in out.splitlines())
    assert float(fields["time"].removesuffix(" s")) > 0
    assert float(fields["states/s"]) > 0


def test_maci_reports_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.mac"
    bad.write_text("interface I { Bool m(; }\n{ }")
    with pytest.raises(SystemExit):
        maci_main(["run", str(bad)])
    err = capsys.readouterr().err
    assert err.startswith(str(bad) + ":1:")


def test_maci_reports_deep_nesting_in_one_line(tmp_path, capsys):
    # 300 parentheses used to end in a RecursionError's traceback
    deep = tmp_path / "deep.mac"
    deep.write_text("{ Int x;\n  x = " + "(" * 300 + "1" + ")" * 300 + ";\n}\n")
    with pytest.raises(SystemExit) as stop:
        maci_main(["run", str(deep)])
    assert stop.value.code == 1
    err = capsys.readouterr().err
    assert err == f"{deep}:2:{6 + MAX_NESTING}: brackets nested more than {MAX_NESTING} deep\n"


def test_maci_reports_a_deep_sum_in_one_line(tmp_path, capsys):
    # a sum of 1,001 terms deepens the tree with no bracket; it used to end
    # in a RecursionError's traceback
    deep = tmp_path / "sum.mac"
    deep.write_text("{ Int x;\n  x = 1" + " + 1" * 1_000 + ";\n}\n")
    with pytest.raises(SystemExit) as stop:
        maci_main(["run", str(deep)])
    assert stop.value.code == 1
    err = capsys.readouterr().err
    assert err == f"{deep}:2:{9 + 4 * MAX_NESTING}: expression nested more than {MAX_NESTING} deep\n"


def test_macbench_cli(tmp_path, capsys):
    out_csv = tmp_path / "r.csv"
    stem = tmp_path / "audit"
    rc = macbench_main([
        "--accounts", "4", "--requests", "200,400", "--workers", "1,2",
        "--work-us", "0", "--seed", "5", "--out", str(out_csv),
        "--audit-log", str(stem),
    ])
    assert rc == 0
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) == 5
    assert capsys.readouterr().out.splitlines()[:5] == lines
    assert (tmp_path / "audit-200-1.jsonl").exists()
    assert audit_events(read_jsonl(tmp_path / "audit-400-2.jsonl")).ok


@pytest.mark.parametrize(
    "bad, code, why",
    [
        (["--requests", "100,3"], 2, "requests (3) must be at least accounts (4)"),
        (["--workers", "1,0"], 2, "every count must be at least 1"),
        (["--workers", "1,x"], 2, "invalid _counts value"),
        (["--work-us", "-100"], 2, "must be at least 0, not -100"),
        (["--out", "{tmp}/missing/r.csv"], 1, "{tmp}/missing/r.csv: No such file or directory"),
        (["--out", "{tmp}"], 1, "{tmp}: Is a directory"),
        (["--audit-log", "{tmp}/missing/a"], 1, "{tmp}/missing/a-100-1.jsonl: No such file"),
    ],
    ids=[
        "volume-below-accounts",
        "workers-0",
        "workers-not-int",
        "work-us-negative",
        "out-in-missing-dir",
        "out-is-dir",
        "audit-log-in-missing-dir",
    ],
)
def test_macbench_rejects_bad_arguments_before_any_cell(
    bad, code, why, tmp_path, capsys, monkeypatch
):
    # A bad later cell, or an unwritable --out or --audit-log, used to end
    # in a traceback after the earlier cells or all of them had run, and no
    # CSV was written.
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr("mactor.cli.run_scenario", no_cell)
    out_csv = tmp_path / "r.csv"
    bad = [arg.format(tmp=tmp_path) for arg in bad]
    with pytest.raises(SystemExit) as stop:
        macbench_main(
            ["--accounts", "4", "--requests", "100", "--workers", "1", "--out", str(out_csv), *bad]
        )
    assert stop.value.code == code
    err = capsys.readouterr().err
    assert why.format(tmp=tmp_path) in err and "Traceback" not in err
    if code == 1:  # an output path, reported in one line
        assert err.count("\n") == 1
    assert not out_csv.exists()
