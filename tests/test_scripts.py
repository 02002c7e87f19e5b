"""Runs the scripts the way a reader would, as programs: the digest that a
refactor of the machine must leave unchanged, the state counts of the
scaled bank variants, the explorer's profile by layer, the runtime's calls
per message, the front end's token and node counts, the code size and
the before/after driver."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
# What the machine does on the test programs; a change of the machine that
# moves it says why in CHANGES.md.
MACHINE_DIGEST = "adaf8364e033683f461733c9e62b869ec350f453ce6339f40592a95e46b2b982"


def run_script(name: str, env=None) -> str:
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / name)], capture_output=True, text=True, timeout=120, env=env
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_machine_digest_prints_a_sha256():
    out = run_script("machine_digest.py")
    assert re.search(r"^programs: \d+ \(runs: \d+\)$", out, re.M)
    assert re.search(r"^sha256: (\w+)$", out, re.M).group(1) == MACHINE_DIGEST


def test_machine_digest_does_not_depend_on_the_hash_seed():
    # the digest hashes reprs, and a set's repr follows string hashing
    digests = {
        re.search(r"^sha256: [0-9a-f]{64}$", out, re.M).group()
        for out in (
            run_script("machine_digest.py", {**os.environ, "PYTHONHASHSEED": seed})
            for seed in ("0", "1")
        )
    }
    assert len(digests) == 1


def test_explore_variants_prints_every_variant():
    out = run_script("explore_variants.py")
    rows = [line for line in out.splitlines() if re.match(r"\| \d+, \(", line)]
    # variant, states and terminals; the time columns vary from run to run
    assert [tuple(row.split(" | ")[:3]) for row in rows] == [
        ("| 2, (2,1), (2)", "28", "1"),
        ("| 3, (2,1), (2)", "29", "1"),
        ("| 2, (3,2), (1,2)", "104", "1"),
        ("| 3, (3,2), (1,2)", "105", "1"),
        ("| 2, (3,3), (1,2)", "143", "1"),
        ("| 4, (3,3), (1,2)", "145", "1"),
        ("| 8, (3,3), (1,2)", "149", "1"),
        ("| 16, (3,3), (1,2)", "157", "1"),
    ]
    # select is asked once per worker class of a group, so its calls per
    # stored state do not grow with the idle tellers
    selects = [float(row.split(" | ")[5].rstrip(" |")) for row in rows]
    assert max(selects[4:]) <= 1.3 * selects[4], selects


def test_a_popped_state_asks_no_idle_mover_for_a_step():
    # An idle mover's step is a SCHED-MSG, which is never safe, so asking
    # for it when its state is popped only asks select twice.
    out = run_script("explore_variants.py")
    rows = [line for line in out.splitlines() if re.match(r"\| \d+, \(", line)]
    selects = [float(row.split(" | ")[5].rstrip(" |")) for row in rows]
    assert len(selects) == 8 and max(selects) < 1.6, selects


def test_explore_layers_prints_a_row_per_program():
    out = run_script("explore_layers.py")
    header = out.splitlines()[0].split(" | ")
    rows = [line.split(" | ") for line in out.splitlines() if re.match(r"\| (explore|\d)", line)]
    # program, seven shares (the sixth the SCHED-MSG bookkeeping), then
    # keys, steps and states per exploration, and the merged runs that
    # ended at a stored state with their steps, which a change of
    # representation leaves as they are
    assert header[1:8] == ["canonical", "step", "labels", "is_safe", "enabled_steps", "sched", "search"]
    assert [(row[0], *row[8:]) for row in rows] == [
        ("| explore-bank", "48", "211", "28", "11", "75 |"),
        ("| 4, (3,3), (1,2)", "300", "1214", "145", "57", "384 |"),
    ]
    assert all(0 < float(share.rstrip("%")) < 100 for row in rows for share in row[1:8])


def test_runtime_calls_prints_a_row_per_bank_shape():
    out = run_script("runtime_calls.py")
    rows = re.findall(r"^\| (bank-\w+) \| (\d+\.\d\d) \|", out, re.M)
    assert [name for name, _ in rows] == ["bank-uniform", "bank-hotkey", "bank-rpc"]
    assert all(float(calls) > 0 for _, calls in rows)
    # the last column is the context switches per message; it moves with
    # the machine's load, so it is read but not bounded
    switched = re.findall(r"^\| bank-\w+ \| [\d.| ]+ \| (\d+\.\d\d) \|$", out, re.M)
    assert len(switched) == 3 and re.search(r"^\| workload .* \| switches/msg \|$", out, re.M)
    # a longer per-message path fails here until README's figures say so
    readme = (SCRIPTS.parent / "README.md").read_text(encoding="utf-8")
    figures = re.search(
        r"It reads\s+([\d.]+),\s+([\d.]+)\s+and\s+([\d.]+)\s+calls\s+per\s+message", readme
    ).groups()
    assert all(float(calls) <= float(figure) + 0.1 for (_, calls), figure in zip(rows, figures))
    # the rows by function split each shape's total; each row is rounded
    by_function = re.findall(r"^\| ([\w.<>]+|other) \| ([\d.]+) \| ([\d.]+) \| ([\d.]+) \|$", out, re.M)
    names = [name for name, *_ in by_function]
    assert "runtime.MacActor.send" in names and names[-1] == "other"
    assert len(set(names)) == len(names)
    for column, (_, calls) in enumerate(rows, start=1):
        split = sum(float(row[column]) for row in by_function)
        assert abs(split - float(calls)) <= 0.005 * (len(by_function) + 1), (column, split, calls)


def test_front_end_prints_a_row_per_program():
    out = run_script("front_end.py")
    rows = [line.removesuffix(" |").split(" | ") for line in out.splitlines() if re.match(r"\| [a-z_-]+ \| \d", line)]
    # program, tokens and AST nodes; the phase times vary from run to run
    assert [tuple(row[:3]) for row in rows] == [
        ("| explore-bank", "485", "241"),
        ("| bank_small", "502", "249"),
        ("| employee_bank", "994", "489"),
    ]
    assert all(int(us) > 0 for row in rows for us in row[3:])


def test_code_size_prints_a_row_per_module_and_their_total():
    out = run_script("code_size.py")
    rows = dict(re.findall(r"^\| ([\w.]+) \| (\d+) \|$", out, re.M))
    total = int(rows.pop("total"))
    modules = SCRIPTS.parent / "src" / "mactor"
    assert sorted(rows) == sorted(path.name for path in modules.glob("*.py"))
    assert total == sum(map(int, rows.values())) and all(int(n) > 0 for n in rows.values())
    assert re.search(r"^`mactor.__all__`: 31 names$", out, re.M)
    # README's figure is the script's, so a change of size says so there
    readme = (SCRIPTS.parent / "README.md").read_text(encoding="utf-8")
    figure = re.search(r"\(([\d,]+) in all\)", readme).group(1)
    assert int(figure.replace(",", "")) == total


@pytest.mark.skipif(
    subprocess.run(["git", "-C", str(SCRIPTS), "rev-parse"], capture_output=True).returncode != 0,
    reason="ab.py compares git revisions, and this checkout is not a git work tree",
)
def test_ab_compares_head_with_itself_and_prints_a_bench_entry():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "ab.py"), "HEAD", "HEAD", "--workload", "bank-rpc",
         "--pairs", "2", "--seconds", "0.05", "--json"],
        capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert done.returncode == 0, done.stderr
    # the table goes to stderr with --json: a row per end-to-end metric,
    # each with both medians, their quartiles, the ratio and the pairs won
    rows = re.findall(
        r"^\| bank-rpc \| (\w+) \| [\d.,]+ \([\d.,]+–[\d.,]+\) \| [\d.,]+ \([\d.,]+–[\d.,]+\) "
        r"\| \d+\.\d{3} \| [0-2]/2 \|$",
        done.stderr,
        re.M,
    )
    names = ["throughput_mps", "latency_p50_us", "latency_p90_us", "wall_s", "setup_s", "peak_rss_mb"]
    assert rows == names
    entry = json.loads(done.stdout)
    assert entry["commit"] == entry["parent"] and entry["run_seconds"] == 0.05
    result = entry["workloads"]["bank-rpc"]
    assert result["pairs"] == 2 and result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == names
    for m in result["metrics"].values():
        assert len(m["parent_runs"]) == len(m["change_runs"]) == 2
        assert len(m["parent_quartiles"]) == len(m["change_quartiles"]) == 2
        assert 0 <= m["change_better_pairs"] <= 2
