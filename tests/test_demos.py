"""Every narrative demo script runs to completion and prints the text
pinned in demo_output/: exactly for a demo whose output is exact, and for a
float demo (whose last digits a platform could change) with the same text
between numbers that agree to a relative 1e-9 or an absolute 1e-12."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINNED = pathlib.Path(__file__).resolve().parent / "demo_output"
FLOAT_DEMOS = ("02_conformal_action", "05_nonnegativity_campaign")
# a decimal number; re.split keeps it, so pieces alternate text and number
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def assert_same_up_to_rounding(out: str, pinned: str):
    got, want = NUMBER.split(out), NUMBER.split(pinned)
    assert got[0::2] == want[0::2]
    for g, w in zip(got[1::2], want[1::2]):
        assert float(g) == pytest.approx(float(w), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    pinned = PINNED / f"{script.stem}.txt"
    if script.stem in FLOAT_DEMOS:
        assert_same_up_to_rounding(proc.stdout, pinned.read_text())
    else:
        assert proc.stdout == pinned.read_text()


def test_the_exact_demos_are_pinned():
    assert sorted(p.stem for p in PINNED.glob("*.txt")) == [
        "01_invariants_basics", "02_conformal_action", "03_trace_oracle",
        "04_generator_relations", "05_nonnegativity_campaign"]


def test_float_pins_allow_rounding_only():
    pinned = "max difference: 2.220446049250313e-16 at N = 20\n"
    assert_same_up_to_rounding(
        "max difference: 4.440892098500626e-16 at N = 20\n", pinned)
    for changed in ("max difference: 2.220446049250313e-10 at N = 20\n",
                    "max difference: 2.220446049250313e-16 at N = 21\n",
                    "max  difference: 2.220446049250313e-16 at N = 20\n"):
        with pytest.raises(AssertionError):
            assert_same_up_to_rounding(changed, pinned)
