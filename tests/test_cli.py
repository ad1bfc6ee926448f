import argparse
import hashlib
import json
import os
import platform
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from steklov_zeta import (TrigSeries, __version__, exact_width, load_series,
                          save_series, suggest_out_degree)
from steklov_zeta import cli, conformal, scalars
from steklov_zeta.cli import MAX_OUT_DEGREE, main


@pytest.fixture()
def pair_series(tmp_path):
    path = tmp_path / "a.json"
    save_series(TrigSeries.exact({2: 1, -2: 1}), path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_z_exact(capsys, pair_series):
    code, out, err = run(capsys, "compute-z", "--series", pair_series, "--k", "1")
    assert code == 0
    assert out.strip() == "4"
    assert "backend=exact" in err and "config=" in err


def test_compute_z_prints_a_complex_exact_value(capsys, tmp_path):
    path = tmp_path / "c.json"
    save_series(TrigSeries.exact({2: (1, 1), -2: 1}), path)
    code, out, _ = run(capsys, "compute-z", "--series", str(path), "--k", "1")
    assert code == 0 and out == "4+4i\n"


def test_compute_z_brute_matches_closed(capsys, pair_series):
    code, out, _ = run(capsys, "compute-z", "--series", pair_series,
                       "--k", "2", "--method", "brute")
    assert code == 0 and out.strip() == "48"
    code, out, _ = run(capsys, "compute-z", "--series", pair_series,
                       "--k", "2", "--method", "closed")
    assert code == 0 and out.strip() == "48"


def test_brute_n_single(capsys):
    code, out, _ = run(capsys, "brute-n", "--indices=2,2,-1,-3", "--coeff", "n")
    assert code == 0 and out.strip() == "12"


def test_brute_n_table(capsys):
    code, out, _ = run(capsys, "brute-n", "--k", "1", "--radius", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "j1,j2,numerator,denominator"
    assert "-3,3,8,1" in lines


@pytest.mark.parametrize("table_block", [None, 7], ids=["one-block", "7"])
@pytest.mark.parametrize("k, radius, sha256", [
    ("2", "4", "82a1b86fd8ca990ca6060f428b61c8ca"
               "048e08d92d3dbcba706bcd35e3a331d4"),
    ("3", "2", "f960526f3f020eb092ef637a65c45b38"
               "7cba510b71c7f09aa563cee834e9658d")],
    ids=["k2-r4", "k3-r2"])
def test_brute_n_z_table_reads_blocks(capsys, monkeypatch, k, radius, sha256,
                                      table_block):
    """The Z table takes its coefficients from one block walk per block of
    multisets, none from z_coeff, and its bytes are the ones a z_coeff call
    per row printed (digest pinned)."""
    blocks = []
    walk = cli._z_block
    monkeypatch.setattr(cli, "_z_block",
                        lambda rows: blocks.append(len(rows)) or walk(rows))
    monkeypatch.setattr(cli, "z_coeff", None)
    if table_block:
        monkeypatch.setattr(cli, "_TABLE_BLOCK", table_block)
    code, out, _ = run(capsys, "brute-n", "--k", k, "--radius", radius)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256
    rows = len(out.splitlines()) - 1
    size = table_block or rows
    full, rest = divmod(rows, size)
    assert blocks == [size] * full + [rest] * (rest > 0)


def test_z2_coeff_verify(capsys):
    code, out, _ = run(capsys, "z2-coeff", "--indices=-3,2,2,-1", "--verify")
    assert code == 0
    assert "closed: 8" in out and "match: True" in out


def test_z2_coeff_verify_fails_on_a_wrong_closed_value(capsys, monkeypatch):
    monkeypatch.setattr(cli, "z2_coeff_closed", lambda *idx: Fraction(9))
    code, out, _ = run(capsys, "z2-coeff", "--indices=-3,2,2,-1", "--verify")
    assert code == 1
    assert out.splitlines()[:3] == ["closed: 9", "brute: 8", "match: False"]


def test_mu_matrix_csv(capsys):
    code, out, _ = run(capsys, "mu-matrix", "--rho", "1/2", "--half-width", "2")
    assert code == 0
    assert out.splitlines()[0] == "n,k,value"
    assert "0,0,5/3" in out


def test_mu_matrix_json(capsys, tmp_path):
    out_path = tmp_path / "m.json"
    code, _, _ = run(capsys, "mu-matrix", "--rho", "0.5", "--half-width", "2",
                     "--format", "json", "--out", str(out_path))
    assert code == 0
    obj = json.loads(out_path.read_text())
    assert obj["half_width"] == 2 and obj["exact"] is False
    assert obj["entries"][2][2] == pytest.approx(5 / 3)


@pytest.mark.parametrize("rho, digest", [
    ("3/10", "f66e989bb7d16957d7d38bdf2140b03684a2dbd48a6d305b2fb7d3e5a64f9206"),
    ("1/2", "40f5654345983bb901d7ab93e8f73f3539c17b829e49137cd0076943495294b9"),
    ("-2/7", "6989c90c30236316443e9d19d86515c400da4b1f4b49a0b43c18bc4d352a8524"),
])
def test_exact_mu_matrix_csv_is_pinned(capsys, rho, digest):
    # digests of the exact output as computed by the alternating binomial
    # sum, before the column recurrence; "--rho=" keeps argparse from
    # reading -2/7 as a flag
    code, out, _ = run(capsys, "mu-matrix", "--format", "csv",
                       "--half-width", "24", f"--rho={rho}")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("fmt, rho, digest", [
    ("json", "3/10",
     "882efb65da451b0b56d35fda87da03db6a2069909afeb379c176ca968506474b"),
    ("csv", "0.3",
     "bc7bd60ba36cc4a764e7fb801c4f0a6929586f1b80cc5c7040d243ea92bd1ddc"),
    ("json", "0.3",
     "16d09bad663fa2e5776d980e932ee4a4cc8117748cb69895a3ebb0161e95a82c"),
])
def test_mu_matrix_output_is_pinned(capsys, fmt, rho, digest):
    """The bytes of the json and the float outputs at half-width 24; the
    exact csv is pinned above."""
    code, out, _ = run(capsys, "mu-matrix", "--format", fmt,
                       "--half-width", "24", f"--rho={rho}")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# a_n for n >= 0 of real series whose float Z_k carry a nonzero round-off
# imaginary part; a_{-n} = conj(a_n)
REAL_SERIES = {
    "degree2": {0: (8, 0), 1: (Fraction(4, 3), Fraction(2, 7)), 2: (5, 2)},
    "degree3": {0: (5, 0), 1: (Fraction(1, 5), Fraction(1, 2)),
                2: (Fraction(-3, 8), Fraction(2, 9)),
                3: (Fraction(1, 7), Fraction(4, 3))},
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(REAL_SERIES))
def test_float_z_of_a_real_series_prints_as_real(capsys, tmp_path, name, k):
    coeffs = {m: (re, s * im) for n, (re, im) in REAL_SERIES[name].items()
              for m, s in ((n, 1), (-n, -1))}
    path = str(tmp_path / "a.json")
    save_series(TrigSeries.exact(coeffs), path)
    code, out, _ = run(capsys, "compute-z", "--series", path, "--k", str(k),
                       "--backend", "float")
    _, exact, _ = run(capsys, "compute-z", "--series", path, "--k", str(k))
    assert code == 0 and "j" not in out
    assert float(out) == pytest.approx(float(Fraction(exact.strip())),
                                       rel=1e-12)


def test_float_z_of_a_complex_series_prints_as_complex(capsys, tmp_path):
    path = str(tmp_path / "a.json")
    save_series(TrigSeries.exact({0: 2, 1: (1, 1), -2: 1}), path)
    for k in (1, 2):
        code, out, _ = run(capsys, "compute-z", "--series", path,
                           "--k", str(k), "--backend", "float")
        assert code == 0 and complex(out.strip()) == 0
        assert out.strip().endswith("j")


def test_exact_value_past_the_int_digit_limit_is_a_usage_error(capsys,
                                                                tmp_path):
    # Z_1 of a_2 = a_-2 = 10^3000 is 4 * 10^6000, 6001 digits: more than
    # Python prints from an int at its default limit
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"coeffs": [{"n": n, "re": "1e3000"}
                                           for n in (-2, 2)]}))
    code, out, err = run(capsys, "compute-z", "--series", str(path),
                         "--k", "1")
    limit = sys.get_int_max_str_digits()
    assert 0 < limit < 6001
    assert code == 2 and out == ""
    line = err.strip().splitlines()[-1]
    assert line.startswith("error: an exact value of 6001 digits")
    assert f"limit of {limit} digits" in line


@pytest.mark.parametrize("argv", [
    ("compute-z", "--backend", "float", "--k", "2"),
    ("compute-z", "--backend", "float", "--k", "4"),
    ("check-invariance", "--rho", "0.3", "--k", "2")])
def test_float_value_that_overflows_is_a_usage_error(capsys, tmp_path, argv):
    # Z_k of parts 1e100 at n = 0, +-2 is past double precision: inf or nan
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"coeffs": [{"n": n, "re": "1e100"}
                                           for n in (-2, 0, 2)]}))
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run(capsys, argv[0], "--series", str(path),
                             *argv[1:])
    assert code == 2 and out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == err.strip().splitlines()[-1:]
    assert "not finite" in errors[0] and "exact backend" in errors[0]


@pytest.mark.parametrize("argv", [
    ("compute-z", "--backend", "float", "--k", "2"),
    ("check-invariance", "--rho", "0.3", "--k", "2")])
def test_float_overflow_prints_no_numpy_warning(tmp_path, argv):
    """In a fresh interpreter, whose warning filters print numpy's
    RuntimeWarning, stderr holds the header and the one error line only."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"coeffs": [{"n": n, "re": "1e100"}
                                           for n in (-2, 0, 2)]}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "steklov_zeta.cli", argv[0], "--series",
         str(path), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    header, error = proc.stderr.splitlines()
    assert header.startswith("steklov-zeta ") and "backend=float" in header
    assert error.startswith("error: float result") and "not finite" in error


@pytest.mark.parametrize("value, digits", [
    (10 ** 5000 - 1, 5000), (10 ** 5000, 5001), (-10 ** 4300, 4301),
    (Fraction(1, 10 ** 4300), 4301), (Fraction(10 ** 4400, 3), 4401)],
    ids=["10^5000-1", "10^5000", "-10^4300", "1/10^4300", "10^4400/3"])
def test_exact_value_digit_count(value, digits):
    with pytest.raises(ValueError, match=f"of {digits} digits"):
        scalars._fmt_exact(value)
    assert scalars._fmt_exact(Fraction(10 ** 4299, 7)) == f"{10 ** 4299}/7"


def test_check_invariance(capsys, pair_series):
    code, out, _ = run(capsys, "check-invariance", "--series", pair_series,
                       "--rho", "0.3", "--k", "1", "--grid", "2048",
                       "--out-degree", "30")
    assert code == 0
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize("rho", ["0.3", "-0.5"])
def test_check_invariance_default_cut(capsys, pair_series, rho):
    code, out, _ = run(capsys, "check-invariance", "--series", pair_series,
                       f"--rho={rho}", "--k", "2")
    report = json.loads(out)
    assert code == 0 and report["pass"] is True
    assert report["out_degree"] == suggest_out_degree(2, float(rho), 1e-9)


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_check_invariance_tolerance_must_be_finite_and_nonnegative(
        capsys, pair_series, tol):
    code, out, err = run(capsys, "check-invariance", "--series", pair_series,
                         "--rho", "0.3", "--k", "1", f"--tol={tol}")
    assert (code, out) == (2, "")
    assert err.count("error:") == 1 and "--tol must be a finite" in err


def test_check_invariance_output_degree_is_capped(capsys, pair_series,
                                                  monkeypatch):
    """An output degree past cli.MAX_OUT_DEGREE is a usage error before any
    pullback (rho = 0.99's default cut, 2020, would run for hours); the
    cap itself is accepted."""
    base = ("check-invariance", "--series", pair_series, "--rho", "0.3",
            "--k", "1", "--grid", "2048")
    code, out, _ = run(capsys, *base, "--out-degree", str(MAX_OUT_DEGREE))
    assert code == 0 and json.loads(out)["out_degree"] == MAX_OUT_DEGREE

    def no_pullback(*args):
        raise AssertionError("pullback past the cap")

    monkeypatch.setattr(cli, "pullback_direct", no_pullback)
    code, out, err = run(capsys, *base,
                         "--out-degree", str(MAX_OUT_DEGREE + 1))
    assert (code, out) == (2, "")
    assert err.count("error:") == 1
    assert f"output degree {MAX_OUT_DEGREE + 1} is past" in err


def test_check_invariance_default_cut_stops_at_the_cap(capsys, tmp_path,
                                                       monkeypatch):
    """Without --out-degree the exact cut's walk stops at the cap: at
    rho = 0.99 a degree-3 series' cut is 2444, and the walk reads the rows
    up to MAX_OUT_DEGREE only before the usage error."""
    path = tmp_path / "a.json"
    save_series(TrigSeries.exact({n: 1 for n in (-3, -2, -1, 1, 2, 3)}),
                path)
    rows, walk = [], conformal._rows

    def counted(*args):
        for row in walk(*args):
            rows.append(row)
            yield row

    monkeypatch.setattr(conformal, "_rows", counted)
    conformal._cut.cache_clear()
    code, out, err = run(capsys, "check-invariance", "--series", str(path),
                         "--rho", "0.99", "--k", "2")
    assert (code, out) == (2, "")
    assert err.count("error:") == 1
    assert f"at rho 0.99 is past the check-invariance cap {MAX_OUT_DEGREE}" \
        in err
    assert len(rows) == MAX_OUT_DEGREE + 2   # rows n = -1, 0, ..., cap


@pytest.mark.parametrize("degree", [200, 1000])
def test_check_invariance_input_past_the_cap_fails_at_once(tmp_path, degree):
    """The cut is never below the input degree, so an input past the cap is
    a usage error before the cut's walk, whose integers grow with the
    degree (degree 1000 once took 78 s).  A subprocess under a timeout, so
    that a returning walk fails the suite instead of stalling it."""
    path = tmp_path / "a.json"
    save_series(TrigSeries.exact({-degree: 1, 0: 3, degree: 1}), path)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "steklov_zeta.cli", "check-invariance",
         "--series", str(path), "--rho", "0.3", "--k", "1"],
        env=env, capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.count("error:") == 1
    assert ("error: the default output degree at rho 0.3 is past the "
            f"check-invariance cap {MAX_OUT_DEGREE}") in proc.stderr


def test_negative_zero_rho_is_read_as_zero(capsys):
    """--rho -0.0 is the float 0.0: printed so, and the same matrix."""
    outs = []
    for text in ("-0.0", "0.0"):
        code, out, _ = run(capsys, "mu-matrix", f"--rho={text}",
                           "--half-width", "2", "--format", "json")
        assert code == 0 and json.loads(out)["rho"] == "0.0"
        outs.append(out)
    assert outs[0] == outs[1]


def test_check_invariance_zero_tolerance_is_accepted(capsys, pair_series):
    code, out, _ = run(capsys, "check-invariance", "--series", pair_series,
                       "--rho", "0.3", "--k", "1", "--grid", "2048",
                       "--out-degree", "30", "--tol", "0")
    report = json.loads(out)  # valid JSON: the tolerance is a number
    assert report["tolerance"] == 0.0
    assert code == (0 if report["deviation"] == 0 else 1)


def test_check_relations(capsys, tmp_path):
    out_path = tmp_path / "rel.csv"
    code, _, err = run(capsys, "check-relations", "--k", "1", "--radius", "5",
                       "--out", str(out_path))
    assert code == 0
    assert "all_zero=True" in err
    rows = out_path.read_text().strip().splitlines()
    assert rows[0] == "j1,j2,numerator,denominator,pass"
    assert all(row.endswith(",1") for row in rows[1:])


@pytest.mark.parametrize("flags", [("--radius", "0"), ("--radius", "-1"),
                                   ("--radius", "3", "--stride", "0")])
def test_check_relations_rejects_empty_sweep(capsys, flags):
    code, out, err = run(capsys, "check-relations", "--k", "1", *flags)
    assert code == 2 and out == ""
    assert err.count("error:") == 1 and "all_zero" not in err


@pytest.mark.parametrize("argv", [
    ("mu-matrix", "--rho", "abc", "--half-width", "2"),
    ("mu-matrix", "--rho", "3/2", "--half-width", "2"),
    ("check-relations", "--k", "3", "--radius", "1", "--source", "closed"),
    ("z2-coeff", "--indices=1,2,-3"),
    ("brute-n", "--k", "1"),
])
def test_bad_value_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("error:") == 1


def test_bad_rho_names_the_accepted_forms(capsys):
    code, out, err = run(capsys, "mu-matrix", "--rho", "abc", "--half-width", "2")
    assert (code, out) == (2, "")
    assert err == 'error: rho must be "p/q", an integer or a decimal, got \'abc\'\n'


def test_out_of_range_rho_is_a_usage_error(capsys):
    code, out, err = run(capsys, "mu-matrix", "--rho", "3/2", "--half-width", "4")
    assert (code, out) == (2, "")
    assert err == "error: rho must lie in (-1, 1), got 3/2\n"


@pytest.mark.parametrize("variant, planes", [
    ("reduced", (-1,)), (None, (-1,)), ("Dminus", (1,))])
def test_check_relations_sweeps_the_variant_planes(capsys, variant, planes):
    # k = 2, radius 3 has 16 sorted multisets (224 ordered tuples) on each
    # of the planes -1 and +1, one row each; variant None leaves --variant
    # at its default
    flags = () if variant is None else ("--variant", variant)
    code, out, err = run(capsys, "check-relations", "--k", "2", "--radius", "3",
                         *flags)
    rows = [tuple(map(int, row.split(",")))
            for row in out.strip().splitlines()[1:]]
    assert code == 0 and len(rows) == 16 * len(planes)
    assert all(list(row[:4]) == sorted(row[:4]) for row in rows)
    assert rows == sorted(rows)
    assert f"checked {len(rows)} tuples, all_zero=True" in err
    assert sorted({sum(row[:4]) for row in rows}) == list(planes)


def test_check_relations_variants_use_the_source(capsys):
    for variant in ("reduced", "Dminus"):
        code, out, err = run(capsys, "check-relations", "--k", "3",
                             "--radius", "1", "--variant", variant,
                             "--source", "closed")
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == \
            "error: closed coefficients are available for k in {1, 2} only"
        rows = {}
        for source in ("brute", "closed"):
            code, rows[source], _ = run(capsys, "check-relations", "--k", "2",
                                        "--radius", "3", "--variant", variant,
                                        "--source", source)
            assert code == 0
        assert rows["closed"] == rows["brute"]


@pytest.mark.parametrize("variant", ["D", "E", "Dplus"])
def test_check_relations_rejects_removed_variants(capsys, variant):
    code, out, err = run(capsys, "check-relations", "--k", "1", "--radius", "2",
                         "--variant", variant)
    assert (code, out) == (2, "")
    assert f"argument --variant: invalid choice: '{variant}'" in err


@pytest.mark.parametrize("jobs", ["0", "-3", "2"])
def test_check_relations_rejects_jobs(capsys, jobs):
    # the sweep checks each relation once, in one process; --jobs is gone
    code, out, err = run(capsys, "check-relations", "--k", "1", "--radius", "2",
                         "--jobs", jobs)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: --jobs {jobs}" in err


def test_trace_check(capsys, pair_series):
    """The report holds the value at the width it was computed at and the
    combinatorial value, and nothing else."""
    for k in (1, 2, 3):
        code, out, _ = run(capsys, "trace-check", "--series", pair_series,
                           "--k", str(k))
        assert code == 0
        report = json.loads(out)
        assert list(report) == ["k", "degree", "half_width",
                                "trace_difference", "zeta_invariant", "equal"]
        assert report["equal"] is True
        assert report["trace_difference"] == report["zeta_invariant"]
        assert (report["k"], report["degree"]) == (k, 2)
        assert report["half_width"] == \
            exact_width(TrigSeries.exact({2: 1, -2: 1}), k)


def test_trace_check_has_no_width_flag(capsys, pair_series):
    code, out, err = run(capsys, "trace-check", "--series", pair_series,
                         "--k", "1", "--N", "8")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --N 8" in err


def test_explore_json(capsys):
    code, out, err = run(capsys, "explore", "--seed", "4", "--count", "3",
                         "--n0", "2")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["samples"]) == 3
    assert "seed=4" in err


def test_explore_deterministic(capsys):
    _, out1, _ = run(capsys, "explore", "--seed", "4", "--count", "3",
                     "--n0", "2")
    _, out2, _ = run(capsys, "explore", "--seed", "4", "--count", "3",
                     "--n0", "2")
    assert out1 == out2


@pytest.mark.parametrize("argv, digest", [
    (("--seed", "7", "--count", "40", "--n0", "5"),
     "b38e3b41e4117ee1b3c459a06f5b40bcb72dabd3b77986479ecb2dd55dab469b"),
    (("--seed", "7", "--count", "40", "--n0", "5", "--format", "csv"),
     "d6bacb326fb90c7dded9822589b95920141161cd61f22fa1c57d90ee97cec05b"),
    (("--seed", "3", "--count", "6", "--n0", "15", "--kappa", "0.5",
      "--kappa", "-1"),
     "e499803a315cc165f8935b67182ca0c7b9ef207b7b1e3c86e0b93ef4e6285887"),
    (("--seed", "2", "--count", "4", "--n0", "3", "--scale", "0"),
     "1df1933d84e37d3947ca70ffc7910a8f2c1f0581f302c7db45a2b026ef57d933"),
    (("--seed", "2", "--count", "4", "--n0", "3", "--scale", "0",
      "--format", "csv"),
     "67e419579dabbac4b72ca908c1b460379867bb4b77e9032e31082af1c8181815"),
])
def test_explore_output_is_pinned(capsys, argv, digest):
    # digests of the output of the campaign that drew and evaluated one
    # sample at a time, before it evaluated blocks of rows
    code, out, _ = run(capsys, "explore", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("flag, value, field", [
    ("--scale", "nan", "coeff_scale"), ("--scale", "inf", "coeff_scale"),
    ("--scale", "-2", "coeff_scale"), ("--scale", "1e308", "coeff_scale"),
    ("--scale", "1e100", "coeff_scale"),
    ("--kappa", "nan", "kappas"), ("--kappa", "inf", "kappas"),
    ("--kappa", "1e308", "kappas")])
def test_explore_rejects_non_finite_floats(capsys, flag, value, field):
    code, out, err = run(capsys, "explore", "--seed", "1", "--count", "2",
                         "--n0", "3", flag, value)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {field} must ") and err.count("\n") == 1


def test_bracket_check_cli(capsys):
    code, out, _ = run(capsys, "bracket-check", "--g", "C", "--h", "D")
    assert code == 0 and out.strip() == "0"


def test_bracket_check_reads_the_series_file(capsys, monkeypatch, tmp_path):
    a = TrigSeries.exact({-1: (2, 3), 0: 1, 2: (0, -1)})
    path = tmp_path / "a.json"
    save_series(a, path)
    seen = []
    check = cli.bracket_check
    monkeypatch.setattr(cli, "bracket_check",
                        lambda g, h, b: seen.append(b) or check(g, h, b))
    code, out, _ = run(capsys, "bracket-check", "--g", "D", "--h", "E",
                       "--series", str(path))
    assert (code, out, seen) == (0, "0\n", [a])


def test_unknown_bracket_exits_1_with_one_error_line(capsys):
    code, out, err = run(capsys, "bracket-check", "--g", "C", "--h", "C")
    assert (code, out) == (1, "")
    header, error = err.splitlines()
    assert header.startswith("steklov-zeta ") and "backend=exact" in header
    assert error == "error: no table entry for [C, C]"


def test_usage_error_exit_code(capsys, pair_series):
    code, _, _ = run(capsys, "compute-z", "--series", pair_series)
    assert code == 2
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2
    code, out, err = run(capsys, "compute-z", "--series", pair_series,
                         "--k", "3", "--method", "closed")
    assert code == 2 and out == "" and err.count("error:") == 1


def test_too_small_grid_is_a_usage_error(capsys, pair_series):
    code, out, err = run(capsys, "check-invariance", "--series", pair_series,
                         "--rho", "0.3", "--k", "2", "--grid", "8")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].startswith("error: grid size 8 < ")


@pytest.mark.parametrize("k, radius, message", [
    ("1", "-2", "--radius must be >= 0, got -2"),
    ("-1", "2", "--k must be >= 1, got -1"),
    ("0", "2", "--k must be >= 1, got 0")])
def test_brute_n_table_rejects_an_empty_range(capsys, k, radius, message):
    code, out, err = run(capsys, "brute-n", "--k", k, "--radius", radius)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == f"error: {message}"


@pytest.mark.parametrize("argv", [("brute-n", "--indices=a,b"),
                                  ("z2-coeff", "--indices=a,b,c,d")],
                         ids=["brute-n", "z2-coeff"])
def test_indices_must_be_integers(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].startswith(
        "error: --indices takes comma-separated integers, got 'a,b")


def test_non_zero_sum_index_is_a_usage_error(capsys):
    code, out, err = run(capsys, "brute-n", "--indices=1,2")
    assert (code, out) == (2, "")
    assert err.count("error:") == 1
    assert err.splitlines()[-1] == "error: indices must sum to zero, got (1, 2)"


def test_missing_file_is_reported(capsys, tmp_path):
    path = str(tmp_path / "missing.json")
    code, out, err = run(capsys, "compute-z", "--series", path, "--k", "1")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == \
        f"error: [Errno 2] No such file or directory: '{path}'"


SHAPE = '"coeffs" list of objects'
SERIES_FILES = {  # case -> (file text, what the error line names)
    "series-list": ("[1, 2]", SHAPE),
    "series-list-of-numbers": ('{"coeffs": [1, 2]}', SHAPE),
    "series-coeffs-object": ('{"coeffs": {"n": 1}}', SHAPE),
    "series-not-json": ("not json", "series-not-json.json is not JSON"),
    # row entries of the wrong type, each named with its row
    "series-n-list": ('{"coeffs": [{"n": [1]}]}',
                      'row 0: "n" must be an integer, got [1]'),
    "series-re-list": ('{"coeffs": [{"n": 1, "re": [1]}]}',
                       'row 0: "re" must be a string or a number, got [1]'),
    "series-n-fractional": ('{"coeffs": [{"n": -2, "re": "1"}, '
                            '{"n": 2.7, "re": "1"}]}',
                            'row 1: "n" must be an integer, got 2.7'),
    "series-n-bool": ('{"coeffs": [{"n": true, "re": "1"}]}',
                      'row 0: "n" must be an integer, got true'),
    "series-re-division-by-zero": (
        '{"coeffs": [{"n": 2, "re": "1/0"}]}',
        'row 0: "re" and "im" must be finite rationals, got "1/0" and "0"'),
    "series-re-nan": (
        '{"coeffs": [{"n": 2, "re": NaN}]}',
        'row 0: "re" and "im" must be finite rationals, got NaN and "0"'),
    "series-im-infinity": (
        '{"coeffs": [{"n": 2, "re": "1", "im": -Infinity}]}',
        'row 0: "re" and "im" must be finite rationals, got "1" and '
        '-Infinity'),
}


@pytest.mark.parametrize("case", ["missing-series", "missing-config",
                                  "unwritable-out", "series-without-coeffs",
                                  *SERIES_FILES])
def test_file_error_is_a_usage_error(capsys, tmp_path, case):
    bad_series = tmp_path / "bad.json"
    bad_series.write_text('{"terms": []}\n')
    cases = {
        "missing-series": (("compute-z", "--series", str(tmp_path / "x.json"),
                            "--k", "1"), "x.json"),
        "missing-config": (("--config", str(tmp_path / "x.cfg"), "compute-z",
                            "--series", str(bad_series), "--k", "1"), "x.cfg"),
        "unwritable-out": (("explore", "--seed", "7", "--count", "1", "--n0",
                            "2", "--out", str(tmp_path / "no_dir" / "x.json")),
                           "x.json"),
        "series-without-coeffs": (("compute-z", "--series", str(bad_series),
                                   "--k", "1"), "'coeffs'"),
    }
    for name, (text, named) in SERIES_FILES.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text + "\n")
        cases[name] = (("compute-z", "--series", str(path), "--k", "1"), named)
    argv, names = cases[case]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "Traceback" not in err and err.count("error:") == 1
    assert err.splitlines()[-1].startswith("error: ")
    assert names in err.splitlines()[-1]


def test_series_file_accepts_integer_strings_and_numbers(capsys, tmp_path):
    path = tmp_path / "a.json"
    path.write_text('{"coeffs": [{"n": "2", "re": 1}, '
                    '{"n": -2, "re": "1", "im": 0.0}]}\n')
    code, out, _ = run(capsys, "compute-z", "--series", str(path), "--k", "1")
    assert (code, out.strip()) == (0, "4")


@pytest.mark.parametrize("re", ["0.1", "1e-1", '"0.1"', '"1/10"'])
def test_series_file_reads_a_number_as_its_decimal_text(capsys, tmp_path,
                                                         re):
    """A JSON number goes through scalars.to_fraction as its text: 0.1 is
    1/10, as the string "0.1" is, not the binary double nearest it."""
    path = tmp_path / "a.json"
    path.write_text(f'{{"coeffs": [{{"n": 2, "re": {re}}}, '
                    f'{{"n": -2, "re": {re}, "im": 0.0}}]}}\n')
    assert load_series(path).coeff(2) == Fraction(1, 10)
    code, out, _ = run(capsys, "compute-z", "--series", str(path), "--k", "1")
    assert (code, out.strip()) == (0, "1/25")


def test_series_file_with_a_huge_exponent_fails_at_once(tmp_path):
    """Fraction expands a decimal exponent in full ("1e10000000" once took
    11 s to read); the reader refuses one past 4300 before that.  A
    subprocess under a timeout, so that a returning expansion fails the
    suite instead of stalling it."""
    path = tmp_path / "a.json"
    path.write_text('{"coeffs": [{"n": 0, "re": "1e10000000"}]}\n')
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "steklov_zeta.cli", "compute-z",
         "--series", str(path), "--k", "1"],
        env=env, capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert ('error: series JSON row 0: "re" and "im" must be finite '
            'rationals, got "1e10000000" and "0"') in proc.stderr


def _readme_commands() -> list:
    """The lines of the bash block under README's "Command line", split as
    a shell splits them (comments dropped)."""
    text = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    block = text.split("\n## Command line\n", 1)[1]
    block = block.split("```bash\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines()]


def test_readme_command_line_examples_exit_0(capsys, tmp_path, monkeypatch):
    """Every README example runs through main in a directory holding a.json,
    the real positive series 2 + cos(t) + cos(2t) / 2."""
    commands = _readme_commands()
    assert commands and all(argv[0] == "steklov-zeta" for argv in commands)
    monkeypatch.chdir(tmp_path)
    save_series(TrigSeries.exact({0: 2, 1: Fraction(1, 2), -1: Fraction(1, 2),
                                  2: Fraction(1, 4), -2: Fraction(1, 4)}),
                "a.json")
    for argv in commands:
        code, _, err = run(capsys, *argv[1:])
        assert code == 0, (argv, err)


def test_config_file_supplies_defaults(capsys, tmp_path, pair_series):
    cfg = tmp_path / "conf.txt"
    cfg.write_text("k = 2\nmethod = closed\n")
    code, out, _ = run(capsys, "--config", str(cfg), "compute-z",
                       "--series", pair_series)
    assert code == 0 and out.strip() == "48"
    # explicit flag wins over the config value
    code, out, _ = run(capsys, "--config", str(cfg), "compute-z",
                       "--series", pair_series, "--k", "1")
    assert code == 0 and out.strip() == "4"
    # append flags take a list, switches parse true/false
    cfg.write_text("kappa = 0.5\n")
    code, out, _ = run(capsys, "--config", str(cfg), "explore", "--seed", "4",
                       "--count", "1", "--n0", "2")
    assert code == 0
    assert json.loads(out)["config"]["kappas"] == [0.5]
    cfg.write_text("verify = false\n")
    code, out, _ = run(capsys, "--config", str(cfg), "z2-coeff",
                       "--indices=-3,2,2,-1")
    assert code == 0 and out == "closed: 8\n"
    cfg.write_text("verify = True\n")
    code, out, _ = run(capsys, "--config", str(cfg), "z2-coeff",
                       "--indices=-3,2,2,-1")
    assert code == 0 and "match: True" in out
    cfg.write_text("verify = yes\n")
    code, out, err = run(capsys, "--config", str(cfg), "z2-coeff",
                         "--indices=-3,2,2,-1")
    assert code == 2 and out == "" and err.count("error:") == 1


@pytest.mark.parametrize("text, flag", [("method = bogus\nk = 2\n", "--method"),
                                        ("k = abc\n", "--k")])
def test_bad_config_value_is_a_usage_error(capsys, tmp_path, pair_series,
                                           text, flag):
    # checked like the flag on the command line: type and choices
    cfg = tmp_path / "conf.txt"
    cfg.write_text(text)
    code, out, err = run(capsys, "--config", str(cfg), "compute-z",
                         "--series", pair_series)
    assert (code, out) == (2, "")
    assert err.count("error:") == 1 and f"argument {flag}:" in err


def test_config_line_without_equals_is_a_usage_error(capsys, tmp_path):
    cfg = tmp_path / "conf.txt"
    cfg.write_text("# campaign\n\nn0 4\n")
    code, out, err = run(capsys, "--config", str(cfg), "explore", "--seed",
                         "1", "--count", "2")
    assert (code, out) == (2, "")
    assert err.count("error:") == 1
    assert f"{cfg} line 3:" in err and "'n0 4'" in err


def test_config_blank_and_comment_lines_are_skipped(capsys, tmp_path):
    cfg = tmp_path / "conf.txt"
    cfg.write_text("\n# n0 4\n   \n  # no equals here either\nn0 = 4\n")
    code, out, _ = run(capsys, "--config", str(cfg), "explore", "--seed", "1",
                       "--count", "2")
    assert code == 0 and json.loads(out)["config"]["max_degree"] == 4


def test_series_with_a_repeated_frequency_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "a.json"
    path.write_text('{"coeffs": [{"n": 2, "re": "1"}, {"n": -2, "re": "1"}, '
                    '{"n": "2", "re": "5"}]}\n')
    code, out, err = run(capsys, "compute-z", "--series", str(path),
                         "--k", "1")
    assert (code, out) == (2, "")
    assert "error: series JSON rows 0 and 2" in err


def test_config_key_of_no_command_is_a_usage_error(capsys, tmp_path,
                                                   pair_series):
    cfg = tmp_path / "conf.txt"
    cfg.write_text("kk = 2\nmethd = closed\n")
    code, out, err = run(capsys, "--config", str(cfg), "compute-z",
                         "--series", pair_series, "--k", "2")
    assert (code, out) == (2, "")
    assert err.count("error:") == 1 and "'kk', 'methd'" in err


def test_config_key_of_another_command_is_skipped(capsys, tmp_path,
                                                  pair_series):
    # count and kappa are explore's, k and method compute-z's: one file
    cfg = tmp_path / "conf.txt"
    cfg.write_text("k = 2\nmethod = closed\ncount = 3\nkappa = 0.5\n")
    code, out, _ = run(capsys, "--config", str(cfg), "compute-z",
                       "--series", pair_series)
    assert (code, out.strip()) == (0, "48")
    code, out, _ = run(capsys, "--config", str(cfg), "explore", "--seed", "4",
                       "--n0", "2")
    assert code == 0
    assert len(json.loads(out)["samples"]) == 3


def test_config_values_do_not_carry_over_to_the_next_call(capsys, tmp_path,
                                                         pair_series):
    cfg = tmp_path / "conf.txt"
    cfg.write_text("k = 2\nkappa = 0.5\n")
    code, out, _ = run(capsys, "--config", str(cfg), "compute-z",
                       "--series", pair_series)
    assert code == 0 and out.strip() == "48"
    # --k is required again once no config supplies it
    code, out, err = run(capsys, "compute-z", "--series", pair_series)
    assert (code, out) == (2, "") and "--k" in err
    code, out, _ = run(capsys, "--config", str(cfg), "explore", "--seed", "4",
                       "--count", "1", "--n0", "2", "--kappa", "-1")
    assert code == 0 and json.loads(out)["config"]["kappas"] == [0.5, -1.0]
    code, out, _ = run(capsys, "explore", "--seed", "4", "--count", "1",
                       "--n0", "2")
    assert code == 0 and json.loads(out)["config"]["kappas"] == []


def test_later_calls_build_no_parser(capsys, tmp_path, pair_series,
                                     monkeypatch):
    cfg = tmp_path / "conf.txt"
    cfg.write_text("k = 1\n")
    assert run(capsys, "--version")[0] == 0  # the first call builds them
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    code, out, _ = run(capsys, "--config", str(cfg), "compute-z",
                       "--series", pair_series)
    assert (code, out.strip()) == (0, "4")
    assert built == []


def test_header_names_the_python_and_numpy_versions(capsys, pair_series):
    _, _, err = run(capsys, "compute-z", "--series", pair_series, "--k", "1")
    header = err.splitlines()[0].split(" | ")
    assert header[:3] == [f"steklov-zeta {__version__}",
                          f"python={platform.python_version()}",
                          f"numpy={np.__version__}"]
    assert header[3] == "backend=exact" and header[4].startswith("config=")


@pytest.mark.parametrize("spelling", ["separate", "equals"])
def test_config_path_is_read_in_both_spellings(capsys, tmp_path, pair_series,
                                               spelling):
    cfg = tmp_path / "conf.txt"
    cfg.write_text("k = 2\n")
    flag = (("--config", str(cfg)) if spelling == "separate"
            else (f"--config={cfg}",))
    code, out, _ = run(capsys, *flag, "compute-z", "--series", pair_series)
    assert code == 0 and out.strip() == "48"
    # a count from the file is the one explore runs
    cfg.write_text("count = 3\n")
    code, out, _ = run(capsys, *flag, "explore", "--seed", "4", "--n0", "2")
    assert code == 0 and len(json.loads(out)["samples"]) == 3


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0 and out.strip()
