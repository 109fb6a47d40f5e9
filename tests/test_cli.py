import hashlib
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


def test_certificate_json_shape(capsys):
    code, out, _ = run(capsys, "roots", "--n", "3", "--interlace")
    assert code == 0
    payload = json.loads(out)
    real, inter = payload["real_roots"], payload["interlacing"]
    assert real["n"] == 3
    assert real["count"] == 3
    assert real["squarefree"] is True
    assert real["verified"] is True
    assert len(real["intervals"]) == 3
    assert all(len(entry) == 4 for entry in real["intervals"])
    assert inter["n"] == 3 and inter["verified"] is True
    assert len(inter["witnesses"]) == 2
    for w in inter["witnesses"]:
        assert set(w) == {"lower", "upper", "sign_at_lower", "sign_at_upper", "root_count"}
        assert w["root_count"] == 1 and len(w["lower"]) == len(w["upper"]) == 2


#: sha256 of each command's stdout, frozen: the documented CSV and JSON
#: records of exact values must not change by a byte
_PINNED_STDOUT_SHA256 = {
    "moments --n 10": "1325616eab258b17a3c468efef77be8094d1afca35800a9e381063d1b3ccf789",
    "moments --n 10 --format json":
        "76d973135f9219013207cf991073a1bca81b816c2bd8a32278bb852a1aff3c0d",
    "mode --n 11": "652ec2e999793c6a5ddb2728c7c5a7b0e46948c351c351b23f7180a284c39a69",
    "mode --n 11 --format json":
        "da8ad7a0bfcaab396ba90b3ccc034baba799b02b5615c0934329ae1bfc150d38",
    "mode --n 800": "fab37d6275d3225494107956076106e30c9cd92481e26dc8755d9cb90eefcb93",
    "normality --n 10": "72897cb0bd0c0ffb8aac5da128ece45af47fef9f50362ab2c999ba876d28c792",
    "normality --n 10 --format json":
        "b49c1692c1f52ea34b9b4150ad752d47ac2e5c26e86c22b8ce7330068337f0fc",
    "normality --n 10 --samples 500 --seed 7":
        "a1dc8851530c36610018484b248a5e85577187f1a47e87e6cdb8037abb99f6c3",
    "normality --n 10 --samples 500 --seed 7 --format json":
        "e107b58c972855eda076a05cc7ed379862ba203ce62b52cd5aa48887022f56a6",
    "normality --n 10 --no-exact --samples 500 --seed 7":
        "ff82685975194e354d4586fcc9ac2744418971a9cb5599011569ad2739a6d230",
    "normality --n 10 --no-exact --samples 500 --seed 7 --format json":
        "e1174fcf27f6b03241ffee1b7fd25a87c8d6b3d59d1ad7f36453232bc23a9d7a",
    "normality --n 800 --format json":
        "f47fa1c5f3e2a1795aad12d29dac443ac6fd0d9aec511283709c60d6de95dce6",
    "poly --n 6": "f1ce60d09defcb351a42dfebfd104285b7d9a8faafba94b995e6727be25f11b4",
    "poly --n 6 --wilf --eval 1 --format json":
        "8b86a7fd17199c4347f69ed1c2ab3900e49aea78cf756d10448176c381eef8cc",
    "poly --n 6 --eval=-1/2 --format json":
        "f8c959ba2f980fab2fc26861e7bf39093b1df0cd4e6c3d76326089ae9ea93cd4",
    "roots --n 1": "50cd8b29c588ce578e367e69632108b974abbad007560e7e34ed5ad4a14c381b",
    "roots --n 6 --interlace":
        "49c61a162d5e422c0a3bf6511a1576f0993e8120211e15bbcdc9bba6f6140d6d",
    "roots --n 6 --width 1/1024":
        "45e3fa875e22cb2187a07163bb30cf172b3375fcba58c33fedeb5fc7ae84b616",
    "triangle --n-max 300 --format json":
        "bf77ad2b46dd767ddf3d1018686def02f3a5a4e21b6bfa4ce094773d419269e2",
    "triangle --n-max 300 --format csv":
        "525805901ed619ab8b2e3699c7fb5902dea1f71e27cdc6c79e5e656b157f71c9",
}


@pytest.mark.parametrize("command", sorted(_PINNED_STDOUT_SHA256))
def test_exact_records_print_byte_identical(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_STDOUT_SHA256[command], out


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


def _sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# stdout and --plot-out digests of ``normality --n N --plot-out``, as the
# exact row gave them before the plot was read from a fixed-point row
_PLOT_DIGESTS = {
    400: ("c285c14d7024d0b4a25cb502846f8099ed9ba7a701e8d7367c9fb61d9916ab15",
          "d8e67bddb11263ff960fd3752d5f6a603b66a147553162c1db3d15775f4e831e"),
    1200: ("856a74a6cdeead04960e91a034b00f903e157d8fbd8ffc0d4a39679cae1cd9f3",
           "626afa76b90bfdb053f320ada7590e12fb641a22753a80253641190e9a9bb2cf"),
    3000: ("47ae86ae98641db07a895b9b87adde90f8a01e664a8a81f362032b4e519aa1de",
           "e0045a3df2ad3a1dc0aeeacac95000a48b5570e6a9de4b987a4ee0cbac7c2604"),
}


def _plot_digests(tmp_path, capsys, n) -> tuple[str, str]:
    plot = tmp_path / "pmf.csv"
    code, out, err = run(capsys, "normality", "--n", str(n), "--plot-out", str(plot))
    assert (code, err) == (0, "")
    return hashlib.sha256(out.encode()).hexdigest(), _sha256_of(plot)


@pytest.mark.parametrize("n", sorted(_PLOT_DIGESTS))
def test_normality_plot_reads_no_exact_row(tmp_path, capsys, monkeypatch, n):
    # the plot and the distance both certify their floats from fixed-point rows
    from stirperm import cli

    def refuse(n):
        raise AssertionError(f"exact row {n} built for the plot or the distance")

    monkeypatch.setattr(cli.triangle, "triangle_row", refuse)
    assert _plot_digests(tmp_path, capsys, n) == _PLOT_DIGESTS[n]


def test_uncertified_plot_falls_back_to_one_exact_row(tmp_path, capsys, monkeypatch):
    # a slack of 2^(B - 32), still a true bound, leaves the plot's floats
    # and the distance uncertified, so the whole plot comes from the exact
    # row; the distance first re-reads the remembered 1170-bit row, then
    # that exact row too, so it is built once
    from stirperm import cli, triangle

    real_fixed, real_extend = triangle.fixed_row, triangle._extend
    wide, extended = [], []

    def widened(n, extra_bits=0):
        wide.append(real_fixed(n, extra_bits))
        return wide[-1]._replace(slack=wide[-1].scale >> 32)

    def extend(row, n):
        extended.append((len(row), n))
        return real_extend(row, n)

    monkeypatch.setattr(triangle, "_last_row", (1,))
    monkeypatch.setattr(triangle, "_extend", extend)
    monkeypatch.setattr(triangle, "fixed_row", widened)
    assert _plot_digests(tmp_path, capsys, 400) == _PLOT_DIGESTS[400]
    row, again = wide  # the plot's read and the distance's: one row
    assert again is row and (row.order, row.scale) == (400, 1 << 1170)
    slack = row.scale >> 32
    assert any(q / row.scale != (q + slack) / row.scale for q in row.entries)
    assert extended == [(1, 400), (400, 400)]  # the distance's call takes no step


def test_normal_density_plot_builds_no_row(tmp_path, capsys, monkeypatch):
    # its range comes from the outermost standardized points alone; digest
    # of the file as it was when the whole exact row was built for it
    from stirperm import cli

    monkeypatch.setattr(cli.triangle, "triangle_row", _refuse_all_work)
    plot = tmp_path / "normal.csv"
    code, _, err = run(
        capsys, "normality", "--n", "3000", "--no-exact", "--samples", "1", "--seed", "1",
        "--plot-normal-out", str(plot),
    )
    assert (code, err) == (0, "")
    assert _sha256_of(plot) == "1d60c705076a49b51859b0cb2dded82be47c137393a0ff7d6f6a9a82294f0fc9"


def test_normal_density_plot_is_not_capped_by_the_row_orders(tmp_path, capsys, monkeypatch):
    from stirperm import cli

    for name in ("triangle_row", "fixed_row"):
        monkeypatch.setattr(cli.triangle, name, _refuse_all_work)
    plot = tmp_path / "normal.csv"
    code, _, err = run(
        capsys, "normality", "--n", str(cli.EXACT_DISTANCE_ORDER_CAP + 1), "--no-exact",
        "--samples", "1", "--seed", "1", "--plot-normal-out", str(plot),
    )
    assert (code, err) == (0, "")
    assert len(plot.read_text().splitlines()) == 202


@pytest.mark.parametrize("flag", ["--plot-out", "--plot-normal-out"])
def test_no_exact_with_only_a_plot_writes_the_plot(tmp_path, capsys, flag):
    plot, again = tmp_path / "plot.csv", tmp_path / "again.csv"
    code, out, err = run(capsys, "normality", "--n", "40", "--no-exact", flag, str(plot))
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "n,mean,variance,s_n"
    code, _, _ = run(capsys, "normality", "--n", "40", flag, str(again))
    assert code == 0
    assert plot.read_bytes() == again.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [["moments"], ["normality", "--no-exact", "--plot-normal-out", os.devnull]],
    ids=["moments", "normality"],
)
def test_orders_past_the_float_range_are_usage_errors(capsys, argv):
    from stirperm import cli

    # at the cap the decimal fields and the normal plot's range still fit
    code, out, _ = run(capsys, *argv, "--n", str(cli._FLOAT_ORDER_CAP), "--format", "json")
    assert code == 0 and json.loads(out)["mean_decimal"] > 1e306
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--n", str(cli._FLOAT_ORDER_CAP + 1)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "overflow a float" in err


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


def test_seeds_are_read_modulo_two_to_the_64(capsys):
    # a seed is the generator's state modulo 2^64, so these three draw the
    # same words and the same histogram; normality echoes the seed as given
    aliases = ("-1", str(2**64 - 1), str(2**65 - 1))
    words = {run(capsys, "sample", "--n", "3", "--count", "4", "--seed", s)[1] for s in aliases}
    assert len(words) == 1
    assert words != {run(capsys, "sample", "--n", "3", "--count", "4", "--seed", "0")[1]}
    payloads = [
        json.loads(run(
            capsys, "normality", "--n", "20", "--no-exact", "--samples", "500",
            "--seed", s, "--format", "json",
        )[1])
        for s in aliases
    ]
    assert len({p["ks_empirical"] for p in payloads}) == 1
    assert [p["seed"] for p in payloads] == [int(s) for s in aliases]


def test_sample_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--n", "3"])
    assert exc.value.code == 2


def test_sample_enumeration_cap_not_applied_to_sampling(capsys):
    # sampling has no order cap; order 40 words stream fine
    code, out, _ = run(capsys, "sample", "--n", "40", "--count", "1", "--seed", "1")
    assert code == 0
    assert out.count(",") == 79


def test_suite_choices_are_verify_suite_names():
    from stirperm import cli, verify

    assert cli._SUITE_NAMES == verify.SUITE_NAMES


def test_verify_suite_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "sampler", "--quick")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


_TRIANGLE_SUITE_STDOUT = {
    False: (
        "PASS  triangle: row sums equal (2n-1)!! for n <= 200\n"
        "PASS  triangle: recurrence row = enumeration counts for "
        "descents/plateaux/ascents, n <= 7\n"
        "PASS  triangle: polynomial route matches triangle route, n <= 200\n"
        "PASS  triangle: mean statistic value equals (2n+1)/3 exactly\n"
        "PASS  triangle: Gessel-Stanley series sum_k S(n+k,k) x^k = "
        "P_n(x)/(1-x)^(2n+1), n <= 120\n"
        "PASS  triangle: peaks within 1 of mean and matching two-case "
        "pattern, n <= 200\n"
        "6/6 checks passed (triangle)\n"
    ),
    True: (
        "PASS  triangle: row sums equal (2n-1)!! for n <= 60\n"
        "PASS  triangle: recurrence row = enumeration counts for "
        "descents/plateaux/ascents, n <= 6\n"
        "PASS  triangle: polynomial route matches triangle route, n <= 60\n"
        "PASS  triangle: mean statistic value equals (2n+1)/3 exactly\n"
        "PASS  triangle: Gessel-Stanley series sum_k S(n+k,k) x^k = "
        "P_n(x)/(1-x)^(2n+1), n <= 16\n"
        "PASS  triangle: peaks within 1 of mean and matching two-case "
        "pattern, n <= 60\n"
        "6/6 checks passed (triangle, quick)\n"
    ),
}


@pytest.mark.parametrize("quick", [False, True], ids=["full", "quick"])
def test_verify_triangle_stdout_is_pinned(capsys, quick):
    code, out, _ = run(
        capsys, "verify", "--suite", "triangle", *(["--quick"] if quick else [])
    )
    assert code == 0
    assert out == _TRIANGLE_SUITE_STDOUT[quick]


_QUICK_STDOUT = (
    _TRIANGLE_SUITE_STDOUT[True].removesuffix("6/6 checks passed (triangle, quick)\n")
    + "PASS  realroots: n distinct real non-positive roots certified, n <= 12\n"
    "PASS  interlace: consecutive reduced polynomials strictly interlace, n <= 12\n"
    "PASS  moments: second-moment recurrence equals closed form, n <= 200\n"
    "PASS  moments: variance closed form consistent\n"
    "PASS  moments: brute-force mean/second moment match, n <= 6\n"
    "PASS  moments: variance strictly increasing (and > n/10 from 10 on), n <= 200\n"
    "PASS  identities: insertion-step indicator identities, n <= 4\n"
    "PASS  identities: adjacency probabilities sum to (2n+1)/3, n <= 100\n"
    "PASS  identities: product formula matches enumerated adjacency, n <= 6\n"
    "PASS  sampler: chi-square uniformity at significance 0.001, 20000 samples, "
    "seeds (1,)\n"
    "PASS  sampler: fixed seed reproduces bit-identical draws\n"
    "PASS  clt: exact normal distance strictly decreases over 10,20,50  "
    "[D(10)=0.185871 D(20)=0.135014 D(50)=0.0860247]\n"
    "PASS  clt: exact distances match frozen golden values to 1e-9\n"
    "19/19 checks passed (all, quick)\n"
)


def test_verify_quick_stdout_is_pinned(capsys):
    code, out, _ = run(capsys, "verify", "--quick")
    assert code == 0
    assert out == _QUICK_STDOUT


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
    [["moments", "--n", "1" * 4301], ["poly", "--n", "3", "--eval", "1" * 4301]],
    ids=["moments-n", "poly-eval"],
)
def test_argument_past_the_int_digit_limit_names_it_briefly(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "at most 4300 digits" in err and "4301 characters" in err
    assert len(err) < 500


@pytest.mark.parametrize(
    "argv,length",
    [
        (["moments", "--n", "-" + "9" * 4299], 4300),
        (["roots", "--n", "3", "--width=-" + "9" * 4000 + "/1"], 4003),
    ],
    ids=["int", "rational"],
)
def test_long_nonpositive_argument_is_quoted_briefly(capsys, argv, length):
    # both parse, so the refusal is the positivity check's
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"... ({length} characters)" in err and len(err) < 500


@pytest.mark.parametrize(
    "argv,message",
    [
        (["moments", "--n", "-3"], "expected a positive integer, got -3\n"),
        (["roots", "--n", "3", "--width=-1/8"], "expected a positive rational, got '-1/8'\n"),
    ],
    ids=["int", "rational"],
)
def test_short_nonpositive_argument_is_quoted_in_full(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(message)


@pytest.mark.parametrize(
    "argv,code",
    [
        (["poly", "--n", "3", "--eval", "1e-999999999", "--format", "json"], 2),
        (["roots", "--n", "3", "--width", "1e-999999999"], 2),
        (["roots", "--n", "1", "--width", "1e-5000"], 2),
        (["roots", "--n", "1", "--width", f"1/{2**64 + 1}"], 3),
        (["roots", "--n", "300", "--interlace", "--width", f"1/{2**80}"], 3),
        (["roots", "--n", "2", "--width", f"1/{2**64}"], 0),  # the floor itself
    ],
    ids=["eval-exponent", "width-exponent", "width-exponent-small", "width-below-floor",
         "width-below-floor-at-cap", "width-at-floor"],
)
def test_rational_refusals_come_before_any_work(argv, code):
    # a subprocess with a timeout: a refusal that comes too late fails, not hangs
    env = dict(os.environ, PYTHONPATH=str(Path(stirperm.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "stirperm", *argv], env=env, capture_output=True, timeout=60
    )
    assert proc.returncode == code, proc.stderr
    assert b"Traceback" not in proc.stderr
    assert (proc.stdout == b"") == (code != 0)
    assert {0: b"", 2: b"num/den rational", 3: b"resource refusal"}[code] in proc.stderr


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
         ["triangle_row", "decimal_rows", "triangle_csv", "triangle_json"]),
        ("MODE_ORDER_CAP", ["mode", "--n"], ["locate_mode", "triangle_row", "fixed_row"]),
        ("EXACT_DISTANCE_ORDER_CAP", ["normality", "--n"], ["triangle_row", "fixed_row"]),
        # a plot needs a row even when the distance is Monte-Carlo
        ("EXACT_DISTANCE_ORDER_CAP",
         ["normality", "--no-exact", "--samples", "10", "--seed", "1",
          "--plot-out", os.devnull, "--n"],
         ["triangle_row", "fixed_row"]),
        ("SAMPLING_ORDER_CAP",
         ["normality", "--no-exact", "--samples", "10", "--seed", "1", "--n"], []),
        # samples x order above its cap, at the smallest order
        ("SAMPLING_WORK_CAP",
         ["normality", "--no-exact", "--seed", "1", "--n", "2", "--samples"], []),
        ("SAMPLE_ORDER_CAP", ["sample", "--count", "3", "--seed", "1", "--n"], []),
    ],
    ids=["poly", "triangle", "mode", "normality", "normality-plot",
         "normality-samples", "normality-work", "sample"],
)
def test_order_caps_refuse_before_work(capsys, monkeypatch, cap, argv, work):
    from stirperm import cli

    for name in work:
        monkeypatch.setattr(cli.triangle, name, _refuse_all_work)
    monkeypatch.setattr(cli.distribution, "sample_statistic_histogram", _refuse_all_work)
    monkeypatch.setattr(cli, "sample_word", _refuse_all_work)
    code, out, err = run(capsys, *argv, str(getattr(cli, cap) + 1))
    assert code == 3
    assert out == ""
    assert "resource refusal" in err

