import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stirperm
from stirperm.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_triangle_csv_matches_expected_rows(capsys):
    code, out, _ = run(capsys, "triangle", "--n-max", "2", "--format", "csv")
    assert code == 0
    assert out == "n,i,count\n1,1,1\n2,1,1\n2,2,2\n"


def test_triangle_oracle_agreement(capsys):
    code, _, err = run(capsys, "triangle", "--n-max", "3", "--oracle")
    assert code == 0
    assert "oracle agreement" in err


def test_triangle_oracle_checks_all_three_statistics(capsys, monkeypatch):
    from stirperm import cli

    code, _, err = run(capsys, "triangle", "--n-max", "4", "--oracle")
    assert code == 0
    assert all(stat in err for stat in ("descents", "plateaux", "ascents"))
    real = cli.brute_force_triangle

    def plateaux_one_off(n, stat):
        row = real(n, stat)
        return (row[0] + 1,) + row[1:] if stat == "plateaux" else row

    monkeypatch.setattr(cli, "brute_force_triangle", plateaux_one_off)
    code, _, err = run(capsys, "triangle", "--n-max", "4", "--oracle")
    assert code == 1
    assert "plateaux" in err and "disagreement" in err


def test_triangle_stat_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["triangle", "--n-max", "3", "--stat", "plateaux"])
    assert exc.value.code == 2


def test_triangle_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["triangle", "--n-max", "0"])
    assert exc.value.code == 2


def test_triangle_json_round_trips_byte_identical(capsys):
    code, out, _ = run(capsys, "triangle", "--n-max", "7", "--format", "json")
    assert code == 0
    parsed = json.loads(out)
    assert json.dumps(parsed, sort_keys=True, separators=(",", ":")) + "\n" == out


def test_poly_json_with_checks(capsys):
    code, out, _ = run(
        capsys, "poly", "--n", "5", "--wilf", "--eval", "1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == [0, 1, 52, 328, 444, 120]
    assert payload["wilf_identity"] is True
    assert payload["evaluation"] == {"point": [1, 1], "value": [945, 1]}


def test_poly_series_check_at_order_one(capsys):
    code, out, _ = run(capsys, "poly", "--n", "1", "--wilf", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 1, "coefficients": [0, 1], "wilf_identity": True}


def test_poly_and_triangle_caps_print_within_int_str_limit():
    # P_n(1) = (2n-1)!! bounds every coefficient; str() raises past the limit
    from stirperm import cli
    from stirperm.polynomial import double_factorial

    str(double_factorial(cli.POLY_ORDER_CAP))
    str(double_factorial(cli.TRIANGLE_ORDER_CAP))


def test_poly_eval_refuses_an_unprintable_value_before_any_work(capsys, monkeypatch):
    from stirperm import triangle

    def no_work(n):
        raise AssertionError("P_n was built before the refusal")

    monkeypatch.setattr(triangle, "descent_polynomial", no_work)
    for n, point in (("700", "1000000"), ("1400", "7" * 4001)):
        code, out, err = run(capsys, "poly", "--n", n, "--eval", point, "--format", "json")
        assert code == 3
        assert out == "" and err.count("\n") == 1 and "resource refusal" in err
    monkeypatch.undo()
    code, out, _ = run(capsys, "poly", "--n", "1400", "--eval=-1", "--format", "json")
    assert code == 0
    assert json.loads(out)["evaluation"]["point"] == [-1, 1]


def test_poly_csv_flags_need_json(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["poly", "--n", "3", "--wilf", "--format", "csv"])
    assert exc.value.code == 2


def test_poly_negative_eval_in_equals_form(capsys):
    # "--eval -1/2" would read -1/2 as an option; -1/2 is a root of P_2
    code, out, _ = run(capsys, "poly", "--n", "2", "--eval=-1/2", "--format", "json")
    assert code == 0
    assert json.loads(out)["evaluation"] == {"point": [-1, 2], "value": [0, 1]}


def test_closed_stdout_pipe_exits_zero_silently():
    env = dict(os.environ, PYTHONPATH=str(Path(stirperm.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "stirperm", "triangle", "--n-max", "300"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"n,i,count\n"
    proc.stdout.close()  # megabytes of rows are still to come
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 0
    assert err == b""


def test_roots_certificate_known_intervals(capsys):
    code, out, _ = run(capsys, "roots", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True and payload["count"] == 2
    (a, b, c, d), (e, f, g, h) = payload["intervals"]
    from fractions import Fraction

    # first interval holds -1/2, second holds 0
    lo1, hi1 = Fraction(a, b), Fraction(c, d)
    lo2, hi2 = Fraction(e, f), Fraction(g, h)
    assert lo1 < Fraction(-1, 2) <= hi1
    assert lo2 < 0 <= hi2


def test_roots_single_root_at_order_one(capsys):
    code, out, _ = run(capsys, "roots", "--n", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1 and len(payload["intervals"]) == 1


def test_roots_with_interlace_and_width(capsys):
    code, out, _ = run(
        capsys, "roots", "--n", "8", "--interlace", "--width", "1/64"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["real_roots"]["verified"] is True
    assert payload["interlacing"]["verified"] is True
    for lo_n, lo_d, hi_n, hi_d in payload["real_roots"]["intervals"]:
        from fractions import Fraction

        assert Fraction(hi_n, hi_d) - Fraction(lo_n, lo_d) <= Fraction(1, 64)


def test_moments_csv_and_json(capsys):
    code, out, _ = run(capsys, "moments", "--n", "2")
    assert code == 0
    assert out == "n,mean,variance,s_n\n2,5/3,2/9,3/1\n"
    code, out, _ = run(capsys, "moments", "--n", "2", "--format", "json")
    payload = json.loads(out)
    assert payload["mean"] == [5, 3]
    assert payload["variance"] == [2, 9]
    assert payload["s_n"] == [3, 1]


def test_mode_output(capsys):
    code, out, _ = run(capsys, "mode", "--n", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mean"] == [3, 1]
    assert payload["argmax"] == [3]
    assert payload["argmax_in_predicted"] is True


def test_normality_exact_and_empirical(capsys):
    code, out, _ = run(
        capsys,
        "normality", "--n", "10", "--samples", "2000", "--seed", "4",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["ks_exact"] - 0.18587095509696128) < 1e-9
    assert 0 < payload["ks_empirical"] < 1


def test_normality_requires_seed_with_samples(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["normality", "--n", "5", "--samples", "100"])
    assert exc.value.code == 2


def test_normality_resource_refusal_exit_three(capsys):
    code, _, err = run(capsys, "normality", "--n", "6000")
    assert code == 3
    assert "resource refusal" in err


def test_normality_plot_files(tmp_path, capsys):
    pmf_path = tmp_path / "pmf.csv"
    normal_path = tmp_path / "normal.csv"
    code, _, _ = run(
        capsys,
        "normality", "--n", "12",
        "--plot-out", str(pmf_path),
        "--plot-normal-out", str(normal_path),
    )
    assert code == 0
    pmf_lines = pmf_path.read_text().splitlines()
    assert pmf_lines[0] == "t,density"
    assert len(pmf_lines) == 13
    assert normal_path.read_text().startswith("t,density\n")


def test_sample_streams_words_and_stats_deterministically(capsys):
    code, words, _ = run(capsys, "sample", "--n", "3", "--count", "4", "--seed", "42")
    assert code == 0
    code, again, _ = run(capsys, "sample", "--n", "3", "--count", "4", "--seed", "42")
    assert words == again
    assert len(words.splitlines()) == 4
    code, stats, _ = run(
        capsys, "sample", "--n", "3", "--count", "2", "--seed", "42", "--stats"
    )
    assert stats.splitlines()[0] == "ascents,descents,plateaux"
    first = tuple(int(v) for v in stats.splitlines()[1].split(","))
    assert sum(first) == 7


def test_sample_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--n", "3"])
    assert exc.value.code == 2


def test_sample_enumeration_cap_not_applied_to_sampling(capsys):
    # sampling has no order cap; order 40 words stream fine
    code, out, _ = run(capsys, "sample", "--n", "40", "--count", "1", "--seed", "1")
    assert code == 0
    assert out.count(",") == 79


def test_verify_suite_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "sampler", "--quick")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_output_file_writing(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run(
        capsys, "triangle", "--n-max", "2", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == "n,i,count\n1,1,1\n2,1,1\n2,2,2\n"


@pytest.mark.parametrize("width", ["0", "-1/8"])
def test_roots_nonpositive_width_is_usage_error(capsys, width):
    with pytest.raises(SystemExit) as exc:
        main(["roots", "--n", "3", f"--width={width}"])
    assert exc.value.code == 2
    assert "positive rational" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["triangle", "--n-max", "3", "--out"],
        ["sample", "--n", "3", "--seed", "1", "--out"],
        ["roots", "--n", "3", "--out"],
    ],
)
def test_unwritable_path_is_one_line_error_exit_two(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, *argv, str(target))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert str(target) in err


def test_roots_order_cap_refuses_before_work(capsys, monkeypatch):
    from stirperm import cli

    def no_work(*args, **kwargs):
        raise AssertionError("certifier called above the order cap")

    monkeypatch.setattr(cli.sturm, "certify_real_roots", no_work)
    monkeypatch.setattr(cli.sturm, "interlace_certificate", no_work)
    code, out, err = run(
        capsys, "roots", "--n", str(cli.ROOTS_ORDER_CAP + 1), "--interlace"
    )
    assert code == 3
    assert out == ""
    assert "resource refusal" in err


def _refuse_all_work(*args, **kwargs):
    raise AssertionError("work started above the order cap")


@pytest.mark.parametrize(
    "cap,argv,work",
    [
        ("POLY_ORDER_CAP", ["poly", "--n"], ["descent_polynomial"]),
        ("TRIANGLE_ORDER_CAP", ["triangle", "--n-max"],
         ["triangle_row", "triangle_csv", "triangle_json"]),
        ("MODE_ORDER_CAP", ["mode", "--n"], ["locate_mode", "triangle_row"]),
        ("EXACT_DISTANCE_ORDER_CAP", ["normality", "--n"], ["triangle_row"]),
        # a plot needs the exact row even when the distance is Monte-Carlo
        ("EXACT_DISTANCE_ORDER_CAP",
         ["normality", "--no-exact", "--samples", "10", "--seed", "1",
          "--plot-out", os.devnull, "--n"],
         ["triangle_row"]),
        ("SAMPLING_ORDER_CAP",
         ["normality", "--no-exact", "--samples", "10", "--seed", "1", "--n"], []),
        ("SAMPLE_ORDER_CAP", ["sample", "--count", "3", "--seed", "1", "--n"], []),
    ],
    ids=["poly", "triangle", "mode", "normality", "normality-plot",
         "normality-samples", "sample"],
)
def test_order_caps_refuse_before_work(capsys, monkeypatch, cap, argv, work):
    from stirperm import cli

    for name in work:
        monkeypatch.setattr(cli.triangle, name, _refuse_all_work)
    monkeypatch.setattr(cli.distribution, "triangle_row", _refuse_all_work)
    monkeypatch.setattr(cli.distribution, "sample_statistic_histogram", _refuse_all_work)
    monkeypatch.setattr(cli, "sample_word", _refuse_all_work)
    code, out, err = run(capsys, *argv, str(getattr(cli, cap) + 1))
    assert code == 3
    assert out == ""
    assert "resource refusal" in err

