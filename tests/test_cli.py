"""Command-line behavior: output formats, exit codes, determinism."""

import dataclasses
import errno
import io
import json
import os
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction as F
from itertools import product

import pytest

from trivol import InternalDisagreement, InvalidBounds, cli, parse_rational
from trivol import mixed_volume, trilinear, verify
from trivol.mixed_volume import volume_cubic
from trivol.rational import format_rational

from testutil import CUBE, OCTA, as_json, random_body, random_box, random_rational_box


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def bad_input(capsys, *argv):
    """stderr of a run that exits 2 with no output and one error line."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_volume_all_methods_unit_box(capsys):
    code, out, _ = run_cli(capsys, "volume", "--bounds", "0,1,0,1,0,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["vol_formula"] == doc["vol_pipeline"] == doc["vol_oracle"] == "5/24"
    assert doc["agree"] is True
    assert doc["intermediates"]["v_qqr"] == "1/3"
    # every p/q string parses back to the same rational
    assert parse_rational(doc["vol_formula"]) == F(5, 24)
    assert abs(doc["vol_formula_decimal"] - 5 / 24) < 1e-9


def test_volume_single_method_has_no_agree_field(capsys):
    code, out, _ = run_cli(capsys, "volume", "--bounds", "1,2,1,2,1,2", "--method", "formula")
    assert code == 0
    doc = json.loads(out)
    assert doc["vol_formula"] == "5/8"
    assert "agree" not in doc
    assert "vol_pipeline" not in doc
    assert "intermediates" not in doc


def test_volume_from_file(tmp_path, capsys):
    cfg = tmp_path / "box.json"
    cfg.write_text(json.dumps({"a": ["0", "0", "0"], "b": ["1/2", 1, "1.5"]}))
    code, out, _ = run_cli(capsys, "volume", "--file", str(cfg), "--method", "oracle")
    assert code == 0
    doc = json.loads(out)
    box = trilinear.Box3Bounds((0, 0, 0), (F(1, 2), 1, F(3, 2)))
    assert parse_rational(doc["vol_oracle"]) == trilinear.closed_form_volume(box)


def test_volume_rejects_bad_bounds(capsys):
    assert "a1" in bad_input(capsys, "volume", "--bounds", "1,1,0,1,0,1")
    bad_input(capsys, "volume", "--bounds", "1,2,3")
    bad_input(capsys, "volume", "--bounds", "0,1,0,1,0,x")


def test_bounds_error_shows_the_bounds_as_parsed_not_cleared(capsys):
    # 1e-3 clears with D = 1000, so a message built from the cleared ints would differ
    for command in ("volume", "normalize"):
        code, out, err = run_cli(capsys, command, "--bounds", "0.5,1e-3,1,2,1,2")
        assert (code, out, err) == (2, "", "error: need 0 <= a1 < b1, got a1=1/2, b1=1/1000\n")


def test_volume_negative_first_bound_is_one_error_line_in_both_spellings(capsys):
    for argv in (
        ["--bounds", "-1,2,0,1,0,1"],
        ["--bounds=-1,2,0,1,0,1"],
        ["--bounds", "-.5,2,0,1,0,1", "--method", "oracle"],
    ):
        assert bad_input(capsys, "volume", *argv).startswith("error: need 0 <= a1 < b1")
    # so is a value that argparse alone takes for an option, such as "-inf" or "-x"
    for first in ("-inf", "-x", "-1"):
        bounds = f"{first},1,0,1,0,1"
        err = bad_input(capsys, "volume", "--bounds", bounds)
        assert bad_input(capsys, "volume", f"--bounds={bounds}") == err
    # a token starting with "--" stays an option: argparse's usage error
    code, out, err = run_cli(capsys, "volume", "--bounds", "--file", "box.json")
    assert (code, out) == (2, "") and "argument --bounds: expected one argument" in err
    code, out, err = run_cli(capsys, "normalize", "--bounds", "-1,2,0,1,0,1")
    assert code == 2 and err.count("\n") == 1 and err.count("error:") == 1


def test_volume_zero_denominator_is_bad_input(capsys):
    bad_input(capsys, "volume", "--bounds", "1/0,1,0,1,0,1")


def test_volume_decimal_is_null_outside_float_range(capsys):
    # volumes of about 1e400 (too large for a float) and 2e-401 (its float is 0)
    for b1, exact in (("1e400", F(10**400)), ("1e-200", F(1, 10**200))):
        bounds = f"0,{b1},0,1,0,1"
        code, out, err = run_cli(capsys, "volume", "--bounds", bounds, "--method", "formula")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["vol_formula_decimal"] is None
        box = trilinear.Box3Bounds((0, 0, 0), (exact, 1, 1))
        assert parse_rational(doc["vol_formula"]) == trilinear.closed_form_volume(box) > 0


def test_volume_missing_source_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "volume")
    assert code == 2
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 2


def test_volume_disagreement_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "closed_form_volume", lambda box: F(999))
    code, out, _ = run_cli(capsys, "volume", "--bounds", "0,1,0,1,0,1")
    assert code == 3
    doc = json.loads(out)
    assert doc["agree"] is False
    assert (doc["vol_formula"], doc["vol_pipeline"]) == ("999", "5/24")


def test_volume_all_runs_each_method_once(capsys, monkeypatch):
    calls = []
    for name in ("closed_form_volume", "pipeline_volume", "hull_volume_4d"):
        real = getattr(cli, name)
        monkeypatch.setattr(
            cli, name, lambda arg, name=name, real=real: calls.append(name) or real(arg)
        )
    code, out, _ = run_cli(capsys, "volume", "--bounds", "1,2,1,3,2,5")
    assert code == 0
    assert json.loads(out)["agree"] is True
    assert calls == ["closed_form_volume", "pipeline_volume", "hull_volume_4d"]


def test_volume_all_checks_the_formula_value_it_prints(capsys, monkeypatch):
    real = trilinear._hull_volume24

    def plus_one(a, b):
        # 24 times the volume, on an integer box: one more unit
        return real(a, b) + 24

    monkeypatch.setattr(trilinear, "_hull_volume24", plus_one)
    code, out, _ = run_cli(capsys, "volume", "--bounds", "1,2,1,3,2,5")
    assert code == 3
    doc = json.loads(out)
    assert doc["agree"] is False
    assert (doc["vol_formula"], doc["vol_pipeline"], doc["vol_oracle"]) == ("20", "19", "19")


def _bounds_text(box):
    return ",".join(format_rational(x) for pair in zip(box.a, box.b) for x in pair)


def _seeded_boxes():
    """Int, rational, 20-digit and flat boxes, three of each."""
    rng = random.Random(15)
    for _ in range(3):
        yield random_box(rng)
        yield random_rational_box(rng)
        a = [rng.randrange(10**19, 5 * 10**19) for _ in range(3)]
        yield trilinear.Box3Bounds(a, [x + rng.randrange(1, 5 * 10**19) for x in a])
        yield trilinear.Box3Bounds((0, 0, 0), random_rational_box(rng).b)


def test_each_single_method_prints_its_fields_of_method_all(capsys):
    for box in _seeded_boxes():
        bounds = _bounds_text(box)
        code, out, err = run_cli(capsys, "volume", "--bounds", bounds)
        assert (code, err) == (0, "")
        merged: dict = {}
        for method in ("formula", "pipeline", "oracle"):
            code, single, err = run_cli(capsys, "volume", "--bounds", bounds, "--method", method)
            assert (code, err) == (0, "")
            merged.update(json.loads(single))
        # the same keys in the same order, each with the same value
        assert list({**merged, "agree": True}.items()) == list(json.loads(out).items())


@pytest.mark.parametrize("command", ["volume", "normalize"])
def test_box_file_parse_errors_name_the_file_and_key(tmp_path, capsys, int_digit_limit, command):
    cfg = tmp_path / "box.json"
    long = "9" * (int_digit_limit + 700)
    for key, bad, reason in (
        ("a", "x", "Invalid literal for Fraction"),
        ("b", long, f"a number has more than {int_digit_limit} digits"),
    ):
        doc = {"a": [0, 0, 0], "b": [1, 1, 1]}
        doc[key][1] = bad
        cfg.write_text(json.dumps(doc))
        err = bad_input(capsys, command, "--file", str(cfg))
        assert err.startswith(f'error: {cfg} "{key}": {reason}')


GRID = {"a1": [0], "b1": [1], "a2": [0], "b2": [1], "a3": [0], "b3": [1]}
BODIES = {"k": as_json(CUBE), "l": as_json(OCTA)}


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("volume", {"a": [0, 0], "b": [1, 1, 1]}, ' "a" and "b" must be lists of three rationals'),
        ("normalize", {"a": [0, 0, 0], "b": "1"}, ' "a" and "b" must be lists of three rationals'),
        ("volume", {"a": [2, 0, 0], "b": [1, 1, 1]}, ": need 0 <= a1 < b1, got a1=2, b1=1"),
        ("normalize", {"a": [0, 0, 0], "b": [1, 1, 0]}, ": need 0 <= a3 < b3, got a3=0, b3=0"),
        ("sweep", dict(GRID, b2=[]), ' "b2" must be a non-empty list'),
        ("sweep", dict(GRID, a3=["x"]), ' "a3": Invalid literal for Fraction: \'x\''),
        ("sweep", dict(GRID, zz=1), ' "zz" is not a sweep key: a1, b1, a2, b2, a3, b3 or filter'),
        ("mixed-volume", dict(BODIES, l=[]), ' "l" must be a non-empty list of points'),
        ("mixed-volume", dict(BODIES, k=[[0, 0]]), ' "k" points must be 3-coordinate lists'),
        ("mixed-volume", dict(BODIES, l=[[0, "1/0", 0]]), ' "l": zero denominator in \'1/0\''),
        ("volume", {"a": [1, 1, 1], "b": [2, 2, 2], "zz": 3}, ' "zz" is not a box key: a or b'),
        ("normalize", {"a": [1, 1, 1], "b": [2, 2, 2], "A": 3}, ' "A" is not a box key: a or b'),
        ("mixed-volume", dict(BODIES, x=1), ' "x" is not a bodies key: k or l'),
    ],
)
def test_file_errors_name_the_file_and_the_key(tmp_path, capsys, command, doc, message):
    cfg = tmp_path / "input.json"
    cfg.write_text(json.dumps(doc))
    assert bad_input(capsys, command, "--file", str(cfg)) == f"error: {cfg}{message}\n"


def test_volume_rejects_a_huge_decimal_exponent(capsys):
    for text in ("0,1e20000000,0,1,0,1", "0,1,0,1,1e-20000000,1"):
        bad_input(capsys, "volume", "--bounds", text)


@pytest.fixture
def int_digit_limit():
    """The interpreter's default limit on int digit strings, 4300, for one test."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


def _exact(text):
    """The rational of a "p/q" string of any length, read through Decimal,
    which int()'s digit limit does not cover."""
    return F(*(int(Decimal(part)) for part in text.split("/")))


def test_volume_beyond_the_int_digit_limit_prints_every_digit(capsys, int_digit_limit):
    # the unit box's 5/24, scaled by 10**1000 per axis and 10**3000 in y
    code, out, err = run_cli(capsys, "volume", "--bounds", "0,1e1000,0,1e1000,0,1e1000")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["b"] == ["1" + "0" * 1000] * 3
    for key in ("vol_formula", "vol_pipeline", "vol_oracle"):
        assert len(doc[key]) > int_digit_limit
        assert _exact(doc[key]) == F(5 * 10**6000, 24)
        assert doc[key + "_decimal"] is None
    assert doc["agree"] is True


def test_sweep_volume_beyond_the_int_digit_limit_prints_every_digit(
    tmp_path, capsys, int_digit_limit
):
    cfg = tmp_path / "sweep.json"
    grid = {"a1": [0], "b1": ["1e800"], "a2": [0], "b2": ["1e800"], "a3": [0], "b3": ["1e800"]}
    cfg.write_text(json.dumps(grid))
    code, out, err = run_cli(capsys, "sweep", "--file", str(cfg))
    assert (code, err) == (0, "")
    _, row = out.splitlines()
    *bounds, volume, _ = row.split(",")
    assert bounds == ["0", "1" + "0" * 800] * 3
    assert len(volume) > int_digit_limit
    assert _exact(volume) == F(5 * 10**4800, 24)


@pytest.mark.parametrize("command", ["volume", "sweep", "mixed-volume"])
def test_a_number_beyond_the_int_digit_limit_is_one_error_line(
    tmp_path, capsys, int_digit_limit, command
):
    digits = "9" * (int_digit_limit + 700)
    cfg = tmp_path / "long.json"
    cfg.write_text('{"a": [0, 0, 0], "b": [%s, 1, 1]}' % digits)
    err = bad_input(capsys, command, "--file", str(cfg))
    assert err == f"error: {cfg} has a number with more than {int_digit_limit} digits\n"


def test_bounds_beyond_the_int_digit_limit_are_one_error_line(capsys, int_digit_limit):
    digits = "9" * (int_digit_limit + 700)
    for command in ("volume", "normalize"):
        for bound in (digits, f"1.{digits}", f"1/{digits}"):
            err = bad_input(capsys, command, "--bounds", f"0,{bound},0,1,0,1")
            assert err == f"error: a number has more than {int_digit_limit} digits\n"


def test_verify_passes_cleanly(capsys):
    assert run_cli(capsys, "verify", "--trials", "15", "--seed", "3") == (
        0,
        "ok support-max closed forms (120 cases)\n"
        "ok ordering-condition equivalence (15 cases)\n"
        "ok mixed-volume symmetry (15 cases)\n"
        "ok three-way agreement (15 cases)\n"
        "all checks passed (15 trials, seed 3)\n",
        "",
    )


def test_verify_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("TRIVOL_SEED", "123")
    code, out, _ = run_cli(capsys, "verify", "--trials", "2")
    assert code == 0
    assert "seed 123" in out


def test_verify_rejects_a_non_integer_seed_env(capsys, monkeypatch):
    monkeypatch.setenv("TRIVOL_SEED", "abc")
    assert "TRIVOL_SEED" in bad_input(capsys, "verify", "--trials", "2")


def test_verify_rejects_a_negative_trial_count(capsys):
    assert "--trials" in bad_input(capsys, "verify", "--trials", "-3")


def test_verify_catches_an_injected_sign_bug(capsys, monkeypatch):
    true_z = trilinear._z_values

    def broken_z(a, b):
        z = true_z(a, b)
        return (*z[:2], -z[2], *z[3:])

    monkeypatch.setattr(trilinear, "_z_values", broken_z)
    code, out, err = run_cli(capsys, "verify", "--trials", "25", "--seed", "0")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "FAIL support-max closed forms: index 3 at a=(0,6,8) b=(5,10,10): "
        "closed form -400 != generic max 400"
    ]


def test_verify_reports_a_mixed_volume_disagreement_as_a_counterexample(capsys, monkeypatch):
    true_m6 = trilinear._mixed_volumes6_from_z

    def broken_m6(a, b):
        v_qqr6, v_qrr6 = true_m6(a, b)
        return (v_qqr6, v_qrr6 + 6) if a[2] > 1 else (v_qqr6, v_qrr6)

    monkeypatch.setattr(trilinear, "_mixed_volumes6_from_z", broken_m6)
    code, out, err = run_cli(capsys, "verify", "--trials", "25", "--seed", "0")
    assert (code, err) == (1, "")
    assert out.splitlines()[2:] == [
        "FAIL mixed-volume symmetry at a=(5,9,9) b=(8,10,10): "
        "support-sum mixed volumes 46, 47 != closed form 46"
    ]


@pytest.mark.parametrize("command", ["volume", "sweep", "mixed-volume"])
def test_a_file_that_is_not_utf8_is_bad_input(tmp_path, capsys, command):
    cfg = tmp_path / "latin1.json"
    cfg.write_bytes(b'{"a": [0, 0, 0], "b": [1, 1, 1], "note": "\xff"}')
    err = bad_input(capsys, command, "--file", str(cfg))
    assert err.startswith(f"error: {cfg} is not valid JSON: 'utf-8' codec can't decode byte 0xff")


def test_deeply_nested_json_is_bad_input(tmp_path, capsys):
    cfg = tmp_path / "deep.json"
    cfg.write_text("[" * 100000)
    for command in ("volume", "sweep", "mixed-volume"):
        err = bad_input(capsys, command, "--file", str(cfg))
        assert err.startswith(f"error: {cfg} is not valid JSON: ")


def test_verify_suites_check_the_normalized_box_and_the_pipeline_verdict(monkeypatch):
    raw = trilinear.Box3Bounds((1, 1, 1), (2, 4, 3))  # unordered: every form is False
    # a key form that is always False is right on raw, so only the normalized box shows it
    monkeypatch.setattr(trilinear, "omega_check", lambda b: False)
    cases, (box, message) = verify.ordering_equivalence([raw])
    assert (cases, box) == (0, trilinear.omega_normalize(raw).bounds)
    assert message == (
        "ordering-condition equivalence at a=(1,1,1) b=(4,3,2): "
        "key form False, ratio form True, difference form True"
    )
    real = trilinear.pipeline_volume
    monkeypatch.setattr(
        trilinear, "pipeline_volume", lambda b: dataclasses.replace(real(b), agree=False)
    )
    cases, (box, _) = verify.three_way_agreement([raw])
    assert (cases, box) == (0, raw)


def test_sweep_csv_and_determinism(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(
        json.dumps(
            {
                "a1": [0, 1],
                "b1": [1, 2],
                "a2": [0],
                "b2": [1],
                "a3": [0],
                "b3": [1],
                "filter": "valid",
            }
        )
    )
    code, out1, _ = run_cli(capsys, "sweep", "--file", str(cfg))
    assert code == 0
    code, out2, _ = run_cli(capsys, "sweep", "--file", str(cfg))
    assert out1 == out2
    lines = out1.splitlines()
    assert lines[0] == "a1,b1,a2,b2,a3,b3,volume,perm"
    assert lines[1] == "0,1,0,1,0,1,5/24,123"
    assert lines[-1] == "# skipped: 1"  # the 1,1 combination is not a box
    assert len(lines) == 5


def test_sweep_float_mode_and_out_file(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(
        json.dumps({"a1": [0], "b1": [1], "a2": [0], "b2": [1], "a3": [0], "b3": [1]})
    )
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, "sweep", "--file", str(cfg), "--float", "--out", str(target))
    assert code == 0
    assert out == ""
    lines = target.read_text().splitlines()
    assert lines[1].endswith(",123")
    assert repr(5 / 24) in lines[1]


def test_sweep_float_overflow_is_bad_input(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(
        json.dumps({"a1": [0], "b1": ["1e400"], "a2": [0], "b2": [1], "a3": [0], "b3": [1]})
    )
    bad_input(capsys, "sweep", "--file", str(cfg), "--float")
    code, out, _ = run_cli(capsys, "sweep", "--file", str(cfg))
    assert code == 0 and "1" + "0" * 400 in out
    # bounds that print as floats, a volume of about 2e799 that does not
    grid = {"a1": [0], "b1": ["1e200"], "a2": [0], "b2": ["1e200"], "a3": [0], "b3": [1]}
    cfg.write_text(json.dumps(grid))
    volume = format_rational(F(5 * 10**800, 24))
    target = tmp_path / "rows.csv"
    err = bad_input(capsys, "sweep", "--file", str(cfg), "--float", "--out", str(target))
    assert err == f"error: {volume} is too large for --float output; omit --float\n"
    assert not target.exists()


def test_sweep_float_rejects_a_volume_below_the_normal_float_range(tmp_path, capsys):
    # volumes of about 2e-401 (its float is 0) and 2e-161 (its float is subnormal)
    cfg = tmp_path / "sweep.json"
    target = tmp_path / "rows.csv"
    for b1 in ("1e-200", "1e-160"):
        grid = {"a1": [0], "b1": [b1], "a2": [0], "b2": [1], "a3": [0], "b3": [1]}
        cfg.write_text(json.dumps(grid))
        volume = trilinear.closed_form_volume(
            trilinear.Box3Bounds((0, 0, 0), (parse_rational(b1), 1, 1))
        )
        err = bad_input(capsys, "sweep", "--file", str(cfg), "--float", "--out", str(target))
        too_small = f"{format_rational(volume)} is too small for --float output; omit --float"
        assert err == f"error: {too_small}\n"
        assert not target.exists()
        code, out, _ = run_cli(capsys, "sweep", "--file", str(cfg))
        assert code == 0 and f",{format_rational(volume)},123" in out


def test_sweep_invalid_without_filter_fails(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(
        json.dumps({"a1": [2], "b1": [1], "a2": [0], "b2": [1], "a3": [0], "b3": [1]})
    )
    assert "a1" in bad_input(capsys, "sweep", "--file", str(cfg))


def test_sweep_rejects_malformed_input(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"a1": [0], "b1": [1]}))
    assert "a2" in bad_input(capsys, "sweep", "--file", str(cfg))
    cfg.write_text("not json at all{")
    bad_input(capsys, "sweep", "--file", str(cfg))
    bad_input(capsys, "sweep", "--file", str(tmp_path / "missing.json"))


def test_sweep_filter_other_than_valid_is_bad_input(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    grid = {"a1": [0, 2], "b1": [1], "a2": [0], "b2": [1], "a3": [0], "b3": [1]}
    for value in ("vaild", "", None, True, ["valid"]):
        cfg.write_text(json.dumps(dict(grid, filter=value)))
        code, out, err = run_cli(capsys, "sweep", "--file", str(cfg))
        assert (code, out, err) == (2, "", f'error: {cfg} "filter" must be "valid"\n')


# a JSON number that binary64 rounds to 0.1
LONG_DECIMAL = "0.1000000000000000000001"
LONG_EXACT = F(LONG_DECIMAL)


def test_json_numbers_keep_their_decimal_digits(tmp_path, capsys):
    cfg = tmp_path / "doc.json"
    cfg.write_text('{"a": [%s, 0, 0], "b": [1, 1, 2.5]}' % LONG_DECIMAL)
    code, out, _ = run_cli(capsys, "volume", "--file", str(cfg), "--method", "formula")
    assert code == 0
    doc = json.loads(out)
    assert doc["a"] == [format_rational(LONG_EXACT), "0", "0"]
    box = trilinear.Box3Bounds((LONG_EXACT, 0, 0), (1, 1, F(5, 2)))
    assert doc["vol_formula"] == format_rational(trilinear.closed_form_volume(box))

    # a bare 1e400 is an exact 10**400, as the string "1e400" is
    cfg.write_text(
        '{"a1": [%s], "b1": [1e400], "a2": [0], "b2": [1], "a3": [0], "b3": [1]}' % LONG_DECIMAL
    )
    code, out, _ = run_cli(capsys, "sweep", "--file", str(cfg))
    assert code == 0
    assert out.splitlines()[1].startswith(f"{format_rational(LONG_EXACT)},1{'0' * 400},0,")

    cfg.write_text(
        '{"k": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, %s]], "l": %s}'
        % (LONG_DECIMAL, json.dumps([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]))
    )
    code, out, _ = run_cli(capsys, "mixed-volume", "--file", str(cfg))
    assert code == 0
    k = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, LONG_EXACT)]
    l = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    cubic = volume_cubic([tuple(map(F, p)) for p in k], [tuple(map(F, p)) for p in l])
    assert json.loads(out)["c0"] == format_rational(cubic.c0) == format_rational(LONG_EXACT / 6)


SWEEP_KEYS = ("a1", "b1", "a2", "b2", "a3", "b3")
# per-axis scales: ints, a decimal, thirds and 20-digit rationals
SWEEP_SCALES = (F(1), F(3, 2), F(7, 3), F(12345678901234567891, 3), F(98765432109876543211, 10**19))


def _sweep_text(x: F, rng) -> object:
    """A grid value as a JSON int, a decimal string or a "p/q" string."""
    if x.denominator == 1 and rng.random() < 0.5:
        return int(x)
    if 10**20 % x.denominator == 0 and rng.random() < 0.5:
        whole, rest = divmod(x.numerator * 10**20 // x.denominator, 10**20)
        return f"{whole}.{rest:020d}"
    return f"{x.numerator}/{x.denominator}"


def _sweep_grid(rng, all_valid: bool) -> dict:
    """Seeded grid: per axis a scale s, a-values drawn with repeats from
    {0, s/2, s} and b-values from {2s, 3s} (plus {s/2, s} unless
    all_valid); s and 2s on every axis make a1/b1 = a2/b2 = a3/b3 = 1/2."""
    doc = {}
    for axis in (1, 2, 3):
        s = rng.choice(SWEEP_SCALES)
        los = [s] + rng.choices([F(0), s / 2, s], k=rng.randint(0, 2))
        his = [2 * s] + rng.choices([2 * s, 3 * s] + ([] if all_valid else [s / 2, s]), k=2)
        rng.shuffle(los)
        rng.shuffle(his)
        doc[f"a{axis}"] = [_sweep_text(x, rng) for x in los]
        doc[f"b{axis}"] = [_sweep_text(x, rng) for x in his]
    return doc


def _library_sweep(doc: dict, as_float: bool) -> tuple:
    """(exit code, stdout, stderr) of a sweep built row by row from the
    library: Box3Bounds, omega_normalize, hull_volume_formula."""
    fmt = (lambda x: repr(float(x))) if as_float else format_rational
    lines = ["a1,b1,a2,b2,a3,b3,volume,perm"]
    skipped = 0
    for a1, b1, a2, b2, a3, b3 in product(*([parse_rational(v) for v in doc[k]] for k in SWEEP_KEYS)):
        try:
            box = trilinear.Box3Bounds((a1, a2, a3), (b1, b2, b3))
        except InvalidBounds as exc:
            if doc.get("filter") == "valid":
                skipped += 1
                continue
            return 2, "", f"error: {exc}\n"
        norm = trilinear.omega_normalize(box)
        volume = trilinear.hull_volume_formula(norm.bounds.a, norm.bounds.b)
        perm = "".join(str(d) for d in norm.perm)
        lines.append(",".join([fmt(v) for v in (a1, b1, a2, b2, a3, b3, volume)] + [perm]))
    if skipped:
        lines.append(f"# skipped: {skipped}")
    return 0, "\n".join(lines) + "\n", ""


def _ties_and_perm(ratios: tuple) -> tuple:
    """Which axes tie on a_i/b_i, and the perm column of their row."""
    r1, r2, r3 = ratios
    order = sorted(range(3), key=ratios.__getitem__)
    return (r1 == r2, r1 == r3, r2 == r3), "".join(str(order.index(i) + 1) for i in range(3))


def test_sweep_matches_the_per_row_library_route(tmp_path, capsys):
    rng = random.Random(20260)
    grids = [_sweep_grid(rng, all_valid=n % 2 == 0) for n in range(12)]
    grids.append({k: [1, "1/2", "3/2", 0] if k[0] == "a" else [2, "1.0", 3] for k in SWEEP_KEYS})
    # the tie row the README documents
    grids.append(dict(a1=[1], b1=[2], a2=[0], b2=[1], a3=[1], b3=[2]))
    cfg = tmp_path / "sweep.json"
    outcomes = set()
    orders = set()
    for grid in grids:
        for doc in (grid, dict(grid, filter="valid")):
            cfg.write_text(json.dumps(doc))
            for flags in (("--float",), ()):
                expected = _library_sweep(doc, as_float=bool(flags))
                assert run_cli(capsys, "sweep", "--file", str(cfg), *flags) == expected
                outcomes.add((expected[0], "# skipped" in expected[1]))
            for line in expected[1].splitlines()[1:]:  # the exact rows
                if not line.startswith("#"):
                    a1, b1, a2, b2, a3, b3 = map(parse_rational, line.split(",")[:6])
                    ties, perm = _ties_and_perm((a1 / b1, a2 / b2, a3 / b3))
                    assert perm == line.rsplit(",", 1)[1]
                    orders.add((ties, perm))
    # the README's tie row: a1/b1 = a3/b3 = 1/2 keep their input order
    cfg.write_text(json.dumps(grids[-1]))
    code, out, _ = run_cli(capsys, "sweep", "--file", str(cfg))
    assert (code, out.splitlines()[1]) == (0, "1,2,0,1,1,2,13/24,213")
    code, out, _ = run_cli(capsys, "sweep", "--file", str(cfg), "--float")
    assert (code, out.splitlines()[1]) == (0, "1.0,2.0,0.0,1.0,1.0,2.0,0.5416666666666666,213")
    # the grids reach each path: every row valid, rows dropped, an error
    assert outcomes == {(0, False), (0, True), (2, False)}
    # and every axis order with every tie pattern it can have: 6 orders of
    # distinct ratios, 2 for each pair that ties, 1 when all three do
    assert orders == {_ties_and_perm(ranks) for ranks in product(range(3), repeat=3)}
    assert len(orders) == 13


def test_sweep_reports_the_first_invalid_row_and_writes_nothing(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    target = tmp_path / "rows.csv"
    # four valid rows, then a2 = 3 > b2; the a1 = 2 rows come later
    cfg.write_text(
        json.dumps({"a1": [0, 2], "b1": [1], "a2": [0, 3], "b2": [2], "a3": [0, 4], "b3": [5, 6]})
    )
    for flags in ((), ("--float",), ("--out", str(target)), ("--float", "--out", str(target))):
        code, out, err = run_cli(capsys, "sweep", "--file", str(cfg), *flags)
        assert (code, out, err) == (2, "", "error: need 0 <= a2 < b2, got a2=3, b2=2\n")
        assert not target.exists()
    # the bounds error comes first when its row does, though the row holds 1e400
    cfg.write_text(
        json.dumps({"a1": [2, 0], "b1": [1], "a2": [0], "b2": [1], "a3": [0], "b3": [1, "1e400"]})
    )
    code, out, err = run_cli(capsys, "sweep", "--file", str(cfg), "--float")
    assert (code, out, err) == (2, "", "error: need 0 <= a1 < b1, got a1=2, b1=1\n")
    # a --float overflow after a valid row leaves no file either
    cfg.write_text(
        json.dumps({"a1": [0], "b1": [1, "1e400"], "a2": [0], "b2": [1], "a3": [0], "b3": [1]})
    )
    err = bad_input(capsys, "sweep", "--file", str(cfg), "--float", "--out", str(target))
    assert err.startswith("error: 1" + "0" * 400 + " is too large")
    assert not target.exists()


def test_sweep_unwritable_out_is_bad_input(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({k: [0] if k[0] == "a" else [1] for k in SWEEP_KEYS}))
    target = tmp_path / "no" / "such" / "rows.csv"
    err = bad_input(capsys, "sweep", "--file", str(cfg), "--out", str(target))
    assert err.startswith(f"error: cannot write {target}: ")


def cli_env():
    """The environment for a ``python -m trivol.cli`` subprocess that
    imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_a_closed_stdout_exits_2_without_a_traceback(tmp_path):
    # 5^6 rows, several times a pipe buffer; the reader leaves after one line
    cfg = tmp_path / "sweep.json"
    grid = {k: [0, 1, 2, 3, 4] if k[0] == "a" else [5, 6, 7, 8, 9] for k in SWEEP_KEYS}
    cfg.write_text(json.dumps(grid))
    proc = subprocess.Popen(
        [sys.executable, "-m", "trivol.cli", "sweep", "--file", str(cfg)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=cli_env(),
    )
    assert proc.stdout.readline() == b"a1,b1,a2,b2,a3,b3,volume,perm\n"
    proc.stdout.close()
    code = proc.wait(timeout=60)
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1, err


ENOSPC = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class FullStdout(io.StringIO):
    """A stdout on a full disk: every write fails with ENOSPC. Its file
    descriptor is a scratch file's, which ``main`` points at os.devnull."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def fileno(self):
        return self.fd


def test_a_failed_write_to_stdout_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({k: [0] if k[0] == "a" else [1, 2] for k in SWEEP_KEYS}))
    with open(tmp_path / "stdout", "w") as scratch:
        monkeypatch.setattr(sys, "stdout", FullStdout(scratch.fileno()))
        open_fds = len(os.listdir("/dev/fd"))
        for argv in (["volume", "--bounds", "1,2,1,3,2,5"], ["sweep", "--file", str(cfg)]):
            assert cli.main(argv) == 2
            assert capsys.readouterr().err == f"error: cannot write output: {ENOSPC}\n"
        assert len(os.listdir("/dev/fd")) == open_fds  # the os.devnull descriptor is closed


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
def test_writes_to_a_full_device_exit_2_with_one_line(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({k: [0] if k[0] == "a" else [1, 2] for k in SWEEP_KEYS}))
    cases = [
        (["volume", "--bounds", "1,2,1,3,2,5"], "output"),
        (["sweep", "--file", str(cfg)], "output"),
        (["sweep", "--file", str(cfg), "--out", "/dev/full"], "/dev/full"),
    ]
    for argv, target in cases:
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "trivol.cli", *argv],
                stdout=full,
                stderr=subprocess.PIPE,
                env=cli_env(),
                timeout=60,
            )
        assert (proc.returncode, proc.stderr.decode()) == (2, f"error: cannot write {target}: {ENOSPC}\n")


def test_mixed_volume_cube_octahedron(tmp_path, capsys):
    cfg = tmp_path / "bodies.json"
    cfg.write_text(json.dumps(BODIES))
    code, out, _ = run_cli(capsys, "mixed-volume", "--file", str(cfg))
    assert code == 0
    doc = json.loads(out)
    assert [doc[k] for k in ("c0", "c1", "c2", "c3")] == ["8", "24", "12", "4/3"]
    assert doc["V_KKL"] == "8"
    assert doc["V_KLL"] == "4"


def test_mixed_volume_on_24_point_bodies(tmp_path, capsys):
    rng = random.Random(24)
    k, l = random_body(rng, 24), random_body(rng, 24)
    cfg = tmp_path / "bodies.json"
    cfg.write_text(json.dumps({"k": k, "l": l}))
    code, out, _ = run_cli(capsys, "mixed-volume", "--file", str(cfg))
    assert code == 0
    doc = json.loads(out)
    cubic = volume_cubic(k, l)
    values = (*cubic.coefficients, cubic.v_kkl, cubic.v_kll)
    names = ("c0", "c1", "c2", "c3", "V_KKL", "V_KLL")
    assert [doc[name] for name in names] == list(map(format_rational, values))


def test_mixed_volume_fit_disagreeing_with_vol_l_exits_3(tmp_path, capsys, monkeypatch):
    real = mixed_volume._pulling_volume
    calls = []

    def faulty(points, simplices):
        # calls go t = 1, 2, 3 on the one triangulation of K + tL; t = 2 is off
        calls.append(None)
        return real(points, simplices) + 1 if len(calls) == 2 else real(points, simplices)

    monkeypatch.setattr(mixed_volume, "_pulling_volume", faulty)
    with pytest.raises(InternalDisagreement, match="^fitted c3 = .* != Vol\\(L\\) = 4/3$"):
        volume_cubic(CUBE, OCTA)
    calls.clear()
    cfg = tmp_path / "bodies.json"
    cfg.write_text(json.dumps(BODIES))
    code, out, err = run_cli(capsys, "mixed-volume", "--file", str(cfg))
    assert (code, out) == (3, "")
    assert err.startswith("internal disagreement (this is a bug): fitted c3 = ")
    assert err.endswith(" != Vol(L) = 4/3\n")


def test_mixed_volume_rejects_flat_body(tmp_path, capsys):
    flat = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]
    octa = BODIES["l"]
    cfg = tmp_path / "bodies.json"
    for name, bodies in (("k", {"k": flat, "l": octa}), ("l", {"k": octa, "l": flat})):
        cfg.write_text(json.dumps(bodies))
        err = bad_input(capsys, "mixed-volume", "--file", str(cfg))
        assert err == f"error: body {name} does not span three dimensions\n"


def test_normalize_reverse_labeling(capsys):
    for bounds, keys, perm, b in (
        ("2,3,1,2,0,1", ["4", "3", "2"], [3, 2, 1], ["1", "2", "3"]),
        # axes 1 and 2 tie on a_i/b_i = 1/2 and keep their input order
        ("1,2,2,4,0,1", ["4", "4", "2"], [2, 3, 1], ["1", "2", "4"]),
    ):
        code, out, _ = run_cli(capsys, "normalize", "--bounds", bounds)
        assert code == 0
        doc = json.loads(out)
        assert doc["ordering_values"] == keys
        assert doc["perm"] == perm
        assert doc["normalized"] == {"a": ["0", "1", "2"], "b": b}


def test_a_sort_that_breaks_the_ordering_condition_exits_3(tmp_path, capsys, monkeypatch):
    # a planted bug: every axis order comes out reversed, which the ratio check catches
    real = trilinear._axis_order

    def reversed_order(keys):
        order, perm = real(keys)
        return order[::-1], tuple(4 - p for p in perm)

    monkeypatch.setattr(trilinear, "_axis_order", reversed_order)
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"a1": [1], "b1": [2], "a2": [2], "b2": [3], "a3": [3], "b3": [4]}))
    target = tmp_path / "rows.csv"
    for argv in (
        ["volume", "--bounds", "1,2,2,3,3,4"],
        ["normalize", "--bounds", "1,2,2,3,3,4"],
        ["sweep", "--file", str(cfg), "--out", str(target)],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("internal disagreement (this is a bug): sorted axes break ")
        assert err.count("\n") == 1
    assert not target.exists()
    # inside verify the same bug is a suite's counterexample
    code, out, _ = run_cli(capsys, "verify", "--trials", "5", "--seed", "0")
    assert code == 1 and out.splitlines()[-1].startswith("FAIL ")


def test_main_dispatches_to_a_handler_rebound_after_the_first_call(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"a1": [0], "b1": [1], "a2": [0], "b2": [1], "a3": [0], "b3": [1]}))
    assert run_cli(capsys, "sweep", "--file", str(cfg))[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_sweep", lambda args: seen.append(args.file) or 7)
    assert run_cli(capsys, "sweep", "--file", str(cfg)) == (7, "", "")
    assert seen == [str(cfg)]


def test_main_repeats_the_output_of_fresh_calls(capsys):
    calls = (
        ["volume", "--bounds", "0,1,0,1,0,1", "--method", "bogus"],
        ["volume", "--bounds", "0,1,0,1,0,1"],
    )
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert [code for code, _, _ in fresh] == [2, 0]
    assert [run_cli(capsys, *argv) for argv in calls] == fresh
