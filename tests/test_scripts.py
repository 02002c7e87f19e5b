"""Runs the two machine scripts the way a reader would, as programs: the
digest that a refactor of the machine must leave unchanged, and the state
counts of the scaled bank variants."""

import os
import re
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str, env=None) -> str:
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / name)], capture_output=True, text=True, timeout=120, env=env
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_machine_digest_prints_a_sha256():
    out = run_script("machine_digest.py")
    assert re.search(r"^programs: \d+ \(runs: \d+\)$", out, re.M)
    assert re.search(r"^sha256: [0-9a-f]{64}$", out, re.M)


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
    assert [row.split(" | ")[0] for row in rows] == [
        "| 2, (2,1), (2)",
        "| 3, (2,1), (2)",
        "| 2, (3,2), (1,2)",
        "| 3, (3,2), (1,2)",
        "| 4, (3,3), (1,2)",
    ]
