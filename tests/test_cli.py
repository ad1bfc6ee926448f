import hashlib
import json
from fractions import Fraction

import pytest

from steklov_zeta import (TrigSeries, exact_width, save_series,
                          suggest_out_degree)
from steklov_zeta.cli import main


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


def test_z2_coeff_verify(capsys):
    code, out, _ = run(capsys, "z2-coeff", "--indices=-3,2,2,-1", "--verify")
    assert code == 0
    assert "closed: 8" in out and "match: True" in out


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
