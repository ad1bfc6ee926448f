"""Every narrative demo script runs to completion, and each demo whose
output is exact (no float digits that a platform could change) prints the
text pinned in demo_output/."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINNED = pathlib.Path(__file__).resolve().parent / "demo_output"


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    pinned = PINNED / f"{script.stem}.txt"
    if pinned.exists():
        assert proc.stdout == pinned.read_text()


def test_the_exact_demos_are_pinned():
    assert sorted(p.stem for p in PINNED.glob("*.txt")) == [
        "01_invariants_basics", "03_trace_oracle", "04_generator_relations"]
