import json
import time
from fractions import Fraction

import pytest

from funcfield.cli import main


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_cyclotomic_row_matches_reference(capsys):
    status, out, _ = run_cli(capsys, "cyclotomic", "--q", "3", "--d", "2",
                             "--n", "1")
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q,d,n,phi,two_g_minus_2,g"
    assert lines[1] == "3,2,1,8,2,2"


def test_cyclotomic_range_sweep_order(capsys):
    status, out, _ = run_cli(capsys, "cyclotomic", "--q", "2", "--d", "1..2",
                             "--n", "1..2")
    rows = out.strip().splitlines()[1:]
    heads = [tuple(r.split(",")[:3]) for r in rows]
    assert heads == [("2", "1", "1"), ("2", "1", "2"),
                     ("2", "2", "1"), ("2", "2", "2")]


def test_tower_builtin_json(capsys):
    status, out, _ = run_cli(capsys, "tower", "--builtin", "y3", "--q", "5")
    assert status == 0
    payload = json.loads(out)
    assert payload["gamma_bound"] == "3/2"
    assert payload["bq_lower"] == "2/3"
    assert payload["degree_sum"] == 5
    assert payload["tame"] is True
    assert payload["first_step_genus"] == 2
    assert "1 + x + x^2" in payload["lambda"]
    assert "4 + x" in payload["lambda"]


def test_tower_custom_map(capsys):
    status, out, _ = run_cli(capsys, "tower", "--q", "5", "--e", "3",
                             "--f", "x^3", "--h", "1 + x + x^2 / 3*x")
    assert status == 0
    payload = json.loads(out)
    assert payload["bq_lower"] == "2/3"


def test_tower_wild_characteristic_is_usage_error(capsys):
    status, _, err = run_cli(capsys, "tower", "--builtin", "y3", "--q", "9")
    assert status == 2
    assert "wild" in err


def test_tower_budget_overflow_exit_code(capsys):
    status, _, err = run_cli(capsys, "tower", "--builtin", "y3", "--q", "5",
                             "--max-iter", "1")
    assert status == 3
    assert "budget overflow" in err


def test_asymptotic_family_d(capsys):
    status, out, _ = run_cli(capsys, "asymptotic", "--q", "2", "--family", "d",
                             "--d", "10..12")
    rows = out.strip().splitlines()
    assert rows[0] == "q,d,n,m,g,ratio,approx,flag"
    assert len(rows) == 4
    first = rows[1].split(",")
    assert first[:5] == ["2", "10", "1", "1023", "4088"]
    assert first[5].startswith("2.502")
    assert first[6] == "~"


def test_asymptotic_skip_flag(capsys):
    status, out, _ = run_cli(capsys, "asymptotic", "--q", "2", "--family", "n",
                             "--d", "1", "--n", "2..3")
    rows = out.strip().splitlines()[1:]
    assert rows[0].endswith("skipped-nonpositive-genus")


def test_asymptotic_precision_flag(capsys):
    _, out8, _ = run_cli(capsys, "--precision", "8", "asymptotic", "--q", "2",
                         "--family", "d", "--d", "10")
    ratio = out8.strip().splitlines()[1].split(",")[5]
    assert len(ratio.split(".")[1]) == 8


def test_precision_floor_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--precision", "3", "asymptotic", "--q", "2", "--family", "d",
              "--d", "10"])
    assert info.value.code == 2


def test_chebotarev_rows(capsys):
    status, out, _ = run_cli(capsys, "chebotarev", "--q", "2", "--k", "4",
                             "--m", "12", "--g-f", "2", "--g-e", "0",
                             "--d", "25")
    row = out.strip().splitlines()[1].split(",")
    assert row[-1] == "0"  # not positive at k=4
    value = Fraction(row[-2])
    assert value < 0


def test_bounds_splitting_mode(capsys):
    status, out, _ = run_cli(capsys, "bounds", "--mode", "splitting",
                             "--q", "2", "--g", "2..3")
    rows = out.strip().splitlines()
    assert rows[0].split(",")[:4] == ["q", "g", "t", "m_f"]
    assert all(r.split(",")[-1] == "1" for r in rows[1:])


def test_bounds_splitting_override_fails(capsys):
    status, out, _ = run_cli(capsys, "bounds", "--mode", "splitting",
                             "--q", "2", "--g", "2", "--t-override", "4")
    assert out.strip().splitlines()[1].split(",")[-1] == "0"


def test_bounds_genus_mode(capsys):
    status, out, _ = run_cli(capsys, "bounds", "--mode", "genus", "--q", "3",
                             "--m-f", "81", "--t", "3")
    row = out.strip().splitlines()[1].split(",")
    assert row[3] == "odd"
    assert row[4] == row[5] == "1"
    assert row[6] == "1"


def test_bounds_mflog_mode(capsys):
    status, out, _ = run_cli(capsys, "bounds", "--mode", "mflog", "--q", "2",
                             "--t-range", "24", "--g-e", "0",
                             "--conductor-degree", "5")
    row = out.strip().splitlines()[1].split(",")
    assert row[4:] == ["5", "10", "768"]


def test_ramification_orders(capsys):
    status, out, _ = run_cli(capsys, "ramification", "--orders", "6,3,3",
                             "--p", "3")
    rows = out.strip().splitlines()
    assert rows[0] == "orders,p,e,a,d,c,c_identity,b,w,lemma_bound"
    # the orders field carries commas, so csv quotes it
    assert rows[1] == '"6,3,3",3,6,3,9,2,2,2,1,9'


def test_ramification_orders_json(capsys):
    status, out, _ = run_cli(capsys, "--format", "json", "ramification",
                             "--orders", "6,3,3", "--p", "3")
    payload = json.loads(out)
    row = payload["rows"][0]
    assert row["d"] == 9 and row["c"] == 2 and row["c_identity"] == 2
    assert row["lemma_bound"] == 9


@pytest.mark.parametrize("orders", ["6,,3", ",6,3", "6,3,"])
def test_ramification_empty_order_entry_is_usage_error(capsys, orders):
    status, out, err = run_cli(capsys, "ramification", "--orders", orders,
                               "--p", "3")
    assert status == 2
    assert out == ""
    assert "empty entry" in err


def test_ramification_composite_characteristic_is_usage_error(capsys):
    status, out, err = run_cli(capsys, "ramification", "--orders", "8,4",
                               "--p", "4")
    assert status == 2
    assert out == ""
    assert "must be a prime" in err


def test_ramification_enumerate(capsys):
    status, out, _ = run_cli(capsys, "--format", "json", "ramification",
                             "--enumerate", "--p", "3", "--b", "1", "--w", "1",
                             "--n-max", "2")
    payload = json.loads(out)
    assert [r["orders"] for r in payload["rows"]] == ["3,3", "3,3,3"]


def test_json_round_trip_exact_rationals(capsys):
    status, out, _ = run_cli(capsys, "--format", "json", "bounds", "--mode",
                             "genus", "--q", "2", "--m-f", "100", "--t", "3")
    payload = json.loads(out)
    row = payload["rows"][0]
    lower = Fraction(str(row["lower"]))
    upper = Fraction(str(row["upper"]))
    assert lower <= upper
    from funcfield.asymptotics import genus_lower_bound
    bracket = genus_lower_bound(2, 100, 3, "even")
    assert (lower, upper) == (bracket.lower, bracket.upper)


def test_output_deterministic(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        assert main(["--output", str(path), "cyclotomic", "--q", "2..5",
                     "--d", "1..3", "--n", "1..2"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_non_prime_power_q_rejected(capsys):
    status, _, err = run_cli(capsys, "cyclotomic", "--q", "6", "--d", "1")
    assert status == 2
    assert "prime power" in err


def test_unknown_flag_is_hard_error():
    with pytest.raises(SystemExit) as info:
        main(["cyclotomic", "--q", "3", "--d", "1", "--frobnicate"])
    assert info.value.code == 2


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    for name in ("cyclotomic", "asymptotic", "chebotarev", "bounds",
                 "ramification", "tower", "selftest"):
        assert name in out


def test_invariant_violation_exit_code(monkeypatch, capsys):
    from funcfield import cli as cli_mod
    from funcfield.genus import GenusParityError

    def broken(args, out):
        raise GenusParityError("2g-2 = 3 is odd")

    monkeypatch.setattr(cli_mod, "_cmd_cyclotomic", broken)
    status = main(["cyclotomic", "--q", "3", "--d", "1"])
    assert status == 4
    assert "invariant violation" in capsys.readouterr().err


def test_selftest_single_criterion(capsys):
    status, out, _ = run_cli(capsys, "selftest", "--only", "4")
    assert status == 0
    assert out.startswith("PASS  criterion 4:")
    status, _, err = run_cli(capsys, "selftest", "--only", "99")
    assert status == 2


def test_output_file_writing(capsys, tmp_path):
    path = tmp_path / "rows.csv"
    status = main(["--output", str(path), "cyclotomic", "--q", "3",
                   "--d", "2", "--n", "1"])
    assert status == 0
    assert path.read_text().splitlines()[1] == "3,2,1,8,2,2"
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["--q", "5", "--e", "2", "--f", "x^2", "--h", "x^2+1/x", "--max-ext", "24"],
    ["--q", "7", "--e", "3", "--f", "x^3", "--h", "x^3+x+1/x^2", "--max-ext", "24"],
    ["--q", "3", "--e", "2", "--f", "x^2", "--h", "x+2*x^3/1", "--max-ext", "27"],
])
def test_large_max_ext_towers_overflow_quickly(capsys, argv):
    start = time.monotonic()
    status, out, err = run_cli(capsys, "tower", *argv)
    elapsed = time.monotonic() - start
    assert status == 3
    assert out == ""
    assert "budget overflow (extension)" in err
    assert elapsed <= 10.0
