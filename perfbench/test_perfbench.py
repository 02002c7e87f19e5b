"""Tests of the benchmark itself: its oracles, its checks and its smoke mode.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from workloads import (  # noqa: E402
    ExploreSpec,
    explore_problems,
    explore_program,
    make_requests,
    order_violations,
    replay,
)


def test_replay_answers_each_request_in_send_order():
    stream = [
        ("withdraw", (1, 600)),
        ("withdraw", (1, 600)),  # overdraws: 400 left
        ("deposit", (2, 5)),
        ("transfer", (2, 1, 1005)),
        ("transfer", (1, 2, 2000)),  # overdraws
        ("check", (1,)),
    ]
    replies, book = replay(2, stream)
    assert replies == [True, False, 1005, True, False, 1405]
    assert book == {1: 1405, 2: 0}


def test_request_stream_depends_only_on_the_seed():
    assert make_requests(64, 500, 7) == make_requests(64, 500, 7)
    assert make_requests(64, 500, 7) != make_requests(64, 500, 8)
    hot = make_requests(1, 500, 7)
    assert {args[0] for _, args in hot} == {1}


def test_order_check_flags_overlap_and_reordering():
    stream = [("withdraw", (1, 5)), ("deposit", (1, 5)), ("check", (2,))]
    clean = [(0, 0, 10, 1), (1, 10, 20, 2), (2, 5, 15, 1)]
    assert order_violations(clean, stream) == []
    overlap = [(0, 0, 10, 1), (1, 9, 20, 2)]
    assert any("overlap" in p for p in order_violations(overlap, stream))
    reordered = [(1, 0, 10, 2), (0, 10, 20, 1)]
    assert any("started after" in p for p in order_violations(reordered, stream))
    transfer = [("transfer", (1, 2, 5)), ("check", (2,))]
    assert order_violations([(0, 0, 10, 1), (1, 5, 12, 2)], transfer)


def test_explorer_check_uses_the_replay_of_the_sends():
    spec = ExploreSpec(tellers=1, withdrawals=(2, 1), checks=(2,))
    text, expected = explore_program(spec, seed=3)
    # all but the last withdrawal on an account succeed, whatever the seed
    assert [expected[v] for v in ("w0", "w1", "w2")] == [True, False, False]
    config = workloads.initial_config(workloads.parse_program(text))
    report = workloads.explore_all(config, workloads.EXPLORE_DEPTH)
    assert explore_problems(report, expected) == []
    wrong = dict(expected, c3=expected["c3"] + 1)
    assert explore_problems(report, wrong)


def test_smoke_runs_every_workload_traced_and_untraced():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(results) == 8
    for r in results:
        assert r["correct"] and r["failed"] == 0 and r["attempted"] > 0, r
        values = [m["value"] for m in r["metrics"].values()]
        assert all(isinstance(v, (int, float)) for v in values)
        if r["trace"] == 0:
            assert all(v > 0 for v in values), r


def test_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bank-rpc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )  # fmt: skip
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
