import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import latmoment
from latmoment import cli
from latmoment.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def lines(result):
    return result.stdout.strip().split("\n")


# ---------------------------------------------------------------- tables


def test_poisson_exact_row(runner):
    r = runner.invoke(main, ["poisson", "--n", "3", "--lambda", "1"])
    assert r.exit_code == 0
    assert r.stdout == "# latmoment-csv v1\nn,lambda,m_n,pm\n3,1,5,0\n"


def test_poisson_rational_rate_stays_exact(runner):
    r = runner.invoke(main, ["poisson", "--n", "2", "--lambda", "1/2"])
    assert r.exit_code == 0
    assert lines(r)[-1] == "2,1/2,3/4,0"


def test_field_info_csv(runner):
    r = runner.invoke(main, ["field-info", "Q(zeta,5)"])
    assert r.exit_code == 0
    assert lines(r)[0] == "# latmoment-csv v1"
    assert lines(r)[1] == "descriptor,kind,degree,r1,r2,unit_rank,discriminant,omega,conductor"
    assert lines(r)[2] == '"Q(zeta,5)",cyclotomic,4,0,2,1,125,10,5'


def test_field_info_json_schema(runner):
    r = runner.invoke(main, ["field-info", "Q", "--format", "json"])
    assert r.exit_code == 0
    d = json.loads(r.stdout)
    assert d["schema"] == 1
    row = d["rows"][0]
    assert row["degree"] == 1 and row["omega"] == 2
    assert row["conductor"] is None


def test_t0_table_default_has_published_targets(runner):
    r = runner.invoke(main, ["t0-table", "--c0", "0.24"])
    assert r.exit_code == 0
    body = lines(r)[2:]
    assert len(body) == 5
    published = [27, 97, 213, 372, 576]
    for row, pub in zip(body, published):
        cells = row.split(",")
        assert int(cells[-1]) == pub
        assert float(cells[2]) < pub
    # the canonical pairs all bind at the counting entry kM + 1/2
    assert [row.split(",")[2] for row in body] == [
        "26.5", "96.5", "210.5", "368.5", "575.5"]
    assert all(row.split(",")[3] == "0" for row in body)


def test_t0_table_length_mismatch(runner):
    r = runner.invoke(main, ["t0-table", "--k", "26,48", "--m", "1"])
    assert r.exit_code != 0


def test_height_golden_ratio(runner):
    r = runner.invoke(main, ["height", "Q(sqrt,5)", "0,1"])
    assert r.exit_code == 0
    cells = lines(r)[-1].split(",")
    # quoted element cell, then kind, height, pm
    assert abs(float(cells[-2]) - 0.24060591252980174) < 1e-12


def test_gr_height_factor_row(runner):
    r = runner.invoke(main, ["gr-height", "Q",
                             "--row", "1 0 1/2", "--row", "0 1 3",
                             "--format", "json"])
    assert r.exit_code == 0
    row = json.loads(r.stdout)["rows"][0]
    assert row["m"] == 2 and row["n"] == 3
    assert row["index"] == 2
    assert abs(row["gr_height"] - row["covolume"] * 2) < 1e-9


def test_zeta_rational_contains_pi_squared_over_six(runner):
    r = runner.invoke(main, ["zeta", "1", "--s", "2"])
    assert r.exit_code == 0
    cells = lines(r)[-1].split(",")
    low, high = float(cells[-2]), float(cells[-1])
    assert low <= math.pi**2 / 6 <= high


def test_zeta_descriptor_backend(runner):
    r = runner.invoke(main, ["zeta", "Q(sqrt,-1)", "--s", "2", "--p", "3000"])
    assert r.exit_code == 0
    cells = lines(r)[-1].split(",")
    low, high = float(cells[-2]), float(cells[-1])
    # zeta(2) L(2, chi_4) = zeta(2) G with Catalan's constant G
    assert low <= 1.506703009922985 <= high


def test_moment_bounds_long_format(runner):
    r = runner.invoke(main, ["moment-bounds", "Q", "--t", "40", "--n", "3",
                             "--volume", "1", "--format", "json"])
    assert r.exit_code == 0
    rows = {row["quantity"]: row["value"] for row in json.loads(r.stdout)["rows"]}
    assert rows["lower"] == rows["main"] == 11.0
    assert rows["upper"] > 11.0
    assert rows["component:rank_one_tail"] > 0
    assert "constant:t0_effective" in rows


def test_second_moment_row(runner):
    r = runner.invoke(main, ["second-moment", "Q", "--t", "30", "--volume", "1"])
    assert r.exit_code == 0
    header = lines(r)[1].split(",")
    cells = lines(r)[2].split(",")
    row = dict(zip(header, cells))
    assert row["lower"] == "3" and row["main"] == "3"
    assert 3.0 < float(row["upper"]) < 40.0


# ------------------------------------------------------- config and exits


def test_threshold_violation_exits_2_with_t0(runner):
    r = runner.invoke(main, ["second-moment", "Q(sqrt,-1)", "--t", "3",
                             "--volume", "1"])
    assert r.exit_code == 2
    assert "computed t0 = 4.5" in r.stderr


def test_invalid_element_exits_2(runner):
    r = runner.invoke(main, ["height", "Q", "0"])
    assert r.exit_code == 2
    assert "invalid configuration" in r.stderr
    # a zero denominator is a bad element, not a crash
    for args in (["height", "Q", "1/0"],
                 ["gr-height", "Q", "--row", "1 1/0"],
                 ["empirical", "Q", "--kind", "mc-ratio", "--t", "6", "--alpha", "1/0"]):
        r = runner.invoke(main, args)
        assert r.exit_code == 2, args
        assert "zero denominator" in r.stderr


def test_empty_element_coordinate_exits_2(runner):
    # an empty field is a bad coordinate, not a skipped one: "3,1,,2" once
    # read as 3 + zeta + 2 zeta^2
    for args in (["height", "Q(zeta,5)", "3,1,,2"],
                 ["height", "Q(sqrt,5)", "1,,1"],
                 ["gr-height", "Q(sqrt,5)", "--row", "1,,0 0,1"]):
        r = runner.invoke(main, args)
        assert r.exit_code == 2, args
        assert r.stdout == "", args
    r = runner.invoke(main, ["height", "Q(zeta,5)", "3,1,0,2"])
    assert r.exit_code == 0
    assert lines(r)[-1] == '"3,1,0,2",weil,0.9283930166760768,1e-09'


@pytest.mark.parametrize("args", [
    ["poisson", "--lambda", "nan", "--n", "3"],
    ["poisson", "--lambda", "inf", "--n", "3"],
    ["moment-bounds", "Q", "--t", "400", "--n", "3", "--volume", "inf"],
    ["second-moment", "Q(zeta,4)", "--t", "27", "--volume", "inf"],
])
def test_rate_or_volume_that_is_not_finite_exits_2(runner, args):
    r = runner.invoke(main, args)
    assert r.exit_code == 2
    assert r.stdout == ""
    assert "finite" in r.stderr


@pytest.mark.parametrize("args", [
    ["moment-bounds", "Q(zeta,5)", "--t", "4000", "--n", "3", "--volume", "1e150"],
    ["second-moment", "Q(zeta,5)", "--t", "4000", "--volume", "1e300"],
])
def test_volume_with_a_main_term_past_the_float_range_exits_2(runner, args):
    # both once exited 1 with an OverflowError traceback
    r = runner.invoke(main, args)
    assert r.exit_code == 2
    assert r.stdout == ""
    assert "invalid configuration: the main term is not a finite float" in r.stderr


def test_moment_bounds_with_a_torsion_tail_past_the_float_range_exits_2(runner):
    # once exited 1 with an OverflowError traceback
    r = runner.invoke(main, ["moment-bounds", "Q(sqrt,-1)", "--t", "19657", "--n", "40",
                             "--volume", "1"])
    assert r.exit_code == 2
    assert r.stdout == ""
    assert "invalid configuration: the torsion tail is not a finite float" in r.stderr


def test_second_moment_with_a_tail_under_half_an_ulp_exits_0(runner):
    # upper = lower + err once rounded below the exact lower and exited 2
    r = runner.invoke(main, ["second-moment", "Q(zeta,5)", "--t", "4000", "--volume", "10004/3"])
    assert r.exit_code == 0, r.stderr
    # lower, main and upper, the next float above the nearest one
    assert ",100380136/9,100380136/9,11153348.444444446," in r.stdout


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_t0_table_rank_ratio_that_is_not_finite_exits_2(runner, value):
    r = runner.invoke(main, ["t0-table", "--rank-ratio", value])
    assert r.exit_code == 2
    assert r.stdout == ""
    assert "rank_ratio must be nonnegative and finite" in r.stderr


def test_t0_table_rank_ratio_whose_entry_overflows_exits_2(runner):
    # the rank entry is inf; math.ceil(inf) once ended in a traceback (exit 1)
    r = runner.invoke(main, ["t0-table", "--k", "10", "--m", "120", "--c0", "2.0000001",
                             "--rank-ratio", "1e308", "--shifted"])
    assert r.exit_code == 2
    assert r.stdout == ""
    assert "precondition violated: requires t > inf (computed t0 = inf)" in r.stderr


def test_moment_bounds_with_a_large_c1_exits_0(runner):
    # cosh(c1)^3 in the pair-tail base once overflowed at c1 = 400 (exit 1);
    # from c1 = 3 on the base is 64/27
    r = runner.invoke(main, ["moment-bounds", "Q(sqrt,-3)", "--t", "4000", "--n", "4",
                             "--volume", "1", "--c0", "400"])
    assert r.exit_code == 0, r.stderr
    assert r.stderr == "moment 4 of Q(sqrt,-3) at t=4000: [505.0, 505.0]\n"
    assert "constant:t0_effective,24.0," in r.stdout


def test_moment_bounds_names_the_pair_tail_past_the_float_range(runner):
    # exited 2 with BoundReport's "bound_value must be finite and nonnegative"
    r = runner.invoke(main, ["moment-bounds", "Q(sqrt,-3)", "--t", "4122176", "--n", "36",
                             "--volume", "1", "--mode", "cyclotomic"])
    assert r.exit_code == 2
    assert r.stdout == ""
    assert "invalid configuration: the pair tail m=18 is not a finite float" in r.stderr


@pytest.mark.parametrize("args", [
    ["t0-table", "--c0", "1e-9"],
    ["second-moment", "Q(sqrt,5)", "--t", "400", "--volume", "1", "--c0", "1e-9"],
    ["moment-bounds", "Q(sqrt,5)", "--t", "4000", "--n", "3", "--volume", "1", "--c0", "1e-9"],
    ["second-moment", "Q", "--t", "400", "--volume", "1", "--c0", "1e-300"],
])
def test_height_floor_too_small_to_resolve_exits_2(runner, args):
    # below c0 ~ 1e-8 log f_M and log cosh round to 0, and near 1e-300 so
    # does 1 - e^(-decay): each is a divisor of a threshold or a constant
    r = runner.invoke(main, args)
    assert r.exit_code == 2, r.output
    assert r.stdout == ""
    assert "t > inf" in r.stderr or "height floors are too small" in r.stderr


def test_missing_required_parameter_exits_2(runner):
    r = runner.invoke(main, ["second-moment", "Q"])
    assert r.exit_code == 2
    assert "Missing option '--t'" in r.stderr


def test_zeta_without_a_positive_cutoff_exits_2(runner):
    r = runner.invoke(main, ["zeta", "5", "--s", "2", "--p", "0"])
    assert r.exit_code == 2
    assert "invalid configuration" in r.stderr


def test_zeta_row_has_no_truncation_column(runner):
    r = runner.invoke(main, ["zeta", "5", "--s", "2", "--p", "10000"])
    assert r.exit_code == 0
    assert lines(r)[1] == "conductor,s,value_low,value_high"


def test_moment_commands_take_no_zeta_truncation(runner):
    for cmd in (["second-moment", "Q", "--t", "30"],
                ["moment-bounds", "Q", "--t", "40", "--n", "3"]):
        r = runner.invoke(main, [*cmd, "--volume", "1", "--zeta-p", "600"])
        assert r.exit_code == 2


def test_rank_ratio_below_the_fields_own_exits_2(runner):
    r = runner.invoke(main, ["moment-bounds", "Q(sqrt,5)", "--t", "400", "--n", "3",
                             "--volume", "1", "--rank-ratio", "0"])
    assert r.exit_code == 2
    assert "invalid configuration" in r.stderr


def test_second_moment_options_it_would_ignore_exit_2(runner):
    base = ["moment-bounds", "Q(sqrt,-1)", "--t", "8", "--n", "2", "--volume", "3"]
    assert runner.invoke(main, [*base, "--k", "6"]).exit_code == 0
    for extra in (["--constant", "5"], ["--mode", "general"], ["--rank-ratio", "0.9"]):
        r = runner.invoke(main, [*base, *extra])
        assert r.exit_code == 2, extra
        assert "do not apply at n = 2" in r.stderr


def test_moment_bounds_k_below_2_exits_2_at_n_2(runner):
    r = runner.invoke(main, ["moment-bounds", "Q", "--t", "40", "--n", "2",
                             "--volume", "1", "--k", "1"])
    assert r.exit_code == 2
    assert "need k >= 2" in r.stderr


def test_moment_bounds_with_large_height_floors(runner):
    # floors far above the defaults, where alpha_M is close to 1
    r = runner.invoke(main, ["moment-bounds", "Q", "--t", "40", "--n", "3",
                             "--volume", "1", "--c0", "200", "--c1", "150"])
    assert r.exit_code == 0
    assert any(row.startswith("component:rank_one_tail,") for row in lines(r))


def test_config_t_is_read_as_an_integer(runner, tmp_path):
    cfg = tmp_path / "lm.cfg"
    cfg.write_text("t = 40.7\n")
    for cmd in (["moment-bounds", "Q", "--n", "3", "--volume", "1"],
                ["empirical", "Q", "--kind", "mc-ratio", "--alpha", "2"]):
        r = runner.invoke(main, [*cmd, "--config", str(cfg)])
        assert r.exit_code == 2, cmd
        assert "'--t': '40.7' is not a valid integer" in r.stderr
    cfg.write_text("t = 40\n")
    r = runner.invoke(main, ["moment-bounds", "Q", "--n", "3", "--volume", "1",
                             "--config", str(cfg)])
    assert r.exit_code == 0
    assert "at t=40:" in r.stderr


def test_config_mode_outside_the_choices_exits_2(runner, tmp_path):
    cfg = tmp_path / "lm.cfg"
    cfg.write_text("mode = foo\n")
    r = runner.invoke(main, ["moment-bounds", "Q", "--t", "40", "--n", "3",
                             "--volume", "1", "--config", str(cfg)])
    assert r.exit_code == 2
    assert "'--mode': 'foo' is not one of" in r.stderr


def test_config_format_outside_the_choices_exits_2(runner, tmp_path):
    cfg = tmp_path / "lm.cfg"
    cfg.write_text("format = xml\n")
    r = runner.invoke(main, ["field-info", "Q", "--config", str(cfg)])
    assert r.exit_code == 2
    assert r.stdout == ""
    assert "'--format': 'xml' is not one of" in r.stderr


def test_missing_config_file_exits_2(runner, tmp_path):
    missing = tmp_path / "absent.cfg"
    for cmd in (["field-info", "Q"], ["verify", "--seed", "7"]):
        r = runner.invoke(main, [*cmd, "--config", str(missing)])
        assert r.exit_code == 2, cmd
        assert "'--config'" in r.stderr and "absent.cfg" in r.stderr


def test_config_rank_ratio_reaches_moment_bounds(runner, tmp_path):
    cfg = tmp_path / "lm.cfg"
    cfg.write_text("rank_ratio = 0.9\n")
    base = ["moment-bounds", "Q(sqrt,5)", "--t", "7000", "--n", "3", "--volume", "1"]
    from_file = runner.invoke(main, [*base, "--config", str(cfg)])
    from_flag = runner.invoke(main, [*base, "--rank-ratio", "0.9"])
    assert from_file.exit_code == 0
    assert from_file.stdout == from_flag.stdout
    assert from_file.stdout != runner.invoke(main, base).stdout
    cfg.write_text("rank_ratio = 0\n")
    r = runner.invoke(main, [*base, "--config", str(cfg)])
    assert r.exit_code == 2
    assert "below the field's unit rank / degree" in r.stderr


def test_config_alpha_is_ignored(runner, tmp_path):
    # --alpha repeats, so it stays flag-only; kind is a single-valued option
    cfg = tmp_path / "lm.cfg"
    cfg.write_text("kind = mc-ratio\nt = 6\nalpha = 2\nsamples = 10000\n")
    r = runner.invoke(main, ["empirical", "Q", "--config", str(cfg)])
    assert r.exit_code == 2
    assert "mc-ratio needs a descriptor and --alpha" in r.stderr
    r = runner.invoke(main, ["empirical", "Q", "--alpha", "2", "--config", str(cfg)])
    assert r.exit_code == 0


# (key, value, command, the same value as a flag); every command read its key
# from a config file before options took config values as their defaults
CONFIG_KEYS = [
    ("t", "30", ["second-moment", "Q", "--volume", "1"], ["--t", "30"]),
    ("volume", "3/2", ["second-moment", "Q", "--t", "30"], ["--volume", "3/2"]),
    ("k", "6", ["second-moment", "Q", "--t", "30", "--volume", "1"], ["--k", "6"]),
    ("n", "3", ["moment-bounds", "Q", "--t", "40", "--volume", "1"], ["--n", "3"]),
    ("c0", "0.3", ["second-moment", "Q(sqrt,5)", "--t", "400", "--volume", "1"],
     ["--c0", "0.3"]),
    ("c1", "0.1", ["second-moment", "Q(sqrt,5)", "--t", "400", "--volume", "1",
                   "--c0", "0.3"], ["--c1", "0.1"]),
    ("mode", "fixed-field", ["moment-bounds", "Q", "--t", "40", "--n", "3", "--volume", "1"],
     ["--mode", "fixed-field"]),
    ("format", "json", ["field-info", "Q"], ["--format", "json"]),
    ("output", "out.csv", ["poisson", "--n", "2", "--lambda", "1"], ["--output", "out.csv"]),
    ("P", "0", ["zeta", "5", "--s", "2"], ["--p", "0"]),
    ("M", "2,3", ["t0-table", "--k", "26,48"], ["--M", "2,3"]),
    ("rank_ratio", "0.9", ["t0-table"], ["--rank-ratio", "0.9"]),
    ("seed", "3", ["empirical", "Q", "--kind", "mc-ratio", "--t", "6", "--alpha", "2",
                   "--samples", "10000"], ["--seed", "3"]),
    ("samples", "20000", ["empirical", "Q", "--kind", "mc-ratio", "--t", "6",
                          "--alpha", "2"], ["--samples", "20000"]),
    ("p", "101", ["empirical", "--kind", "lattice", "--t", "6", "--n", "2", "--volume", "2",
                  "--samples", "200", "--seed", "11"], ["--p", "101"]),
    ("cutoff", "5", ["verify", "--seed", "7"], ["--cutoff", "5"]),
]


@pytest.mark.parametrize("key,value,cmd,flag", CONFIG_KEYS, ids=[c[0] for c in CONFIG_KEYS])
def test_config_key_reaches_its_command(runner, tmp_path, monkeypatch, key, value, cmd, flag):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "lm.cfg"
    cfg.write_text(f"{key} = {value}\n")

    def run(*extra):
        r = runner.invoke(main, [*cmd, *extra])
        out = Path("out.csv")
        written = out.read_text() if out.exists() else None
        out.unlink(missing_ok=True)
        return r.exit_code, r.stdout, r.stderr, written

    from_file = run("--config", str(cfg))
    assert from_file == run(*flag)
    assert from_file != run()


def test_config_file_supplies_defaults_flags_win(runner, tmp_path):
    cfg = tmp_path / "lm.cfg"
    cfg.write_text("t = 6\nvolume = 2 # trailing comment\nformat = json\n\n# note\n")
    r = runner.invoke(main, ["second-moment", "Q", "--config", str(cfg),
                             "--t", "30"])
    assert r.exit_code == 0
    row = json.loads(r.stdout)["rows"][0]
    assert row["t"] == 30.0
    assert row["volume"] == "2"


def test_config_line_without_equals(runner, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just a line\n")
    r = runner.invoke(main, ["poisson", "--n", "1", "--lambda", "1",
                             "--config", str(cfg)])
    assert r.exit_code != 0
    assert "config line without '='" in r.stderr


def test_unwritable_output_exits_2(runner, tmp_path):
    out = tmp_path / "no-such-dir" / "z.csv"
    for cmd in (["poisson", "--n", "2", "--lambda", "1"], ["verify", "--seed", "7", "--cutoff", "5"]):
        r = runner.invoke(main, [*cmd, "--output", str(out)])
        assert r.exit_code == 2, cmd
        assert f"cannot write output '{out}'" in r.stderr


def test_output_goes_to_file(runner, tmp_path):
    out = tmp_path / "z.csv"
    r = runner.invoke(main, ["poisson", "--n", "2", "--lambda", "1",
                             "--output", str(out)])
    assert r.exit_code == 0
    assert r.stdout == ""
    assert out.read_text().startswith("# latmoment-csv v1\n")


# ------------------------------------------------------------- empirical


def test_empirical_mc_ratio_byte_identical(runner):
    args = ["empirical", "Q", "--kind", "mc-ratio", "--t", "6",
            "--alpha", "2", "--samples", "10000", "--seed", "3"]
    a = runner.invoke(main, args)
    b = runner.invoke(main, args)
    assert a.exit_code == 0
    assert a.stdout == b.stdout
    est = float(lines(a)[-1].split(",")[4])
    assert abs(est - 2.0**-6) < 0.01


def test_empirical_lattice_expected_main_exact(runner):
    r = runner.invoke(main, ["empirical", "--kind", "lattice", "--t", "6",
                             "--n", "2", "--volume", "2", "--p", "101",
                             "--samples", "200", "--seed", "11"])
    assert r.exit_code == 0
    body = lines(r)[2:]
    assert len(body) == 2
    assert body[0].split(",")[7] == "2"
    assert body[1].split(",")[7] == "8"


def test_empirical_lattice_rejects_a_composite_p(runner):
    r = runner.invoke(main, ["empirical", "--kind", "lattice", "--t", "2", "--n", "1",
                             "--volume", "2", "--p", "100", "--samples", "10"])
    assert r.exit_code == 2
    assert "odd prime" in r.stderr
    assert r.stdout == ""


def test_empirical_lattice_rejects_a_field_other_than_q(runner):
    args = ["--kind", "lattice", "--t", "6", "--n", "2", "--volume", "2", "--p", "101",
            "--samples", "200", "--seed", "11"]
    r = runner.invoke(main, ["empirical", "Q(sqrt,-1)", *args])
    assert r.exit_code == 2
    assert "ZZ-lattices only" in r.stderr
    bare = runner.invoke(main, ["empirical", *args])
    named = runner.invoke(main, ["empirical", "Q", *args])
    assert bare.exit_code == named.exit_code == 0
    assert bare.stdout == named.stdout


def test_empirical_mc_ratio_needs_alpha(runner):
    r = runner.invoke(main, ["empirical", "Q", "--kind", "mc-ratio", "--t", "6"])
    assert r.exit_code != 0


# ---------------------------------------------------------------- verify


def test_verify_core_suite_passes(runner):
    r = runner.invoke(main, ["verify", "--suite", "core", "--seed", "7",
                             "--cutoff", "5"])
    assert r.exit_code == 0
    d = json.loads(r.stdout)
    assert d["schema"] == 1 and d["suite"] == "core" and d["seed"] == 7
    assert d["all_pass"] is True
    assert len(d["checks"]) == 14
    assert all(c["verdict"] == "consistent" for c in d["checks"])
    assert r.stderr.count("PASS") == 14


def test_verify_violation_exits_3(runner, monkeypatch):
    stub = [{"check": "stub", "params": {}, "estimate": 2.0, "sigma": 0.0,
             "bound": 1.0, "verdict": "violated"}]
    monkeypatch.setattr(cli, "_core_suite", lambda seed, cutoff: stub)
    r = runner.invoke(main, ["verify"])
    assert r.exit_code == 3
    assert json.loads(r.stdout)["all_pass"] is False
    assert "FAIL stub" in r.stderr


@pytest.mark.parametrize("flag", [["--cutoff", "1"], ["--seed", "-1"]])
def test_verify_invalid_configuration_exits_2(runner, flag):
    r = runner.invoke(main, ["verify", *flag])
    assert r.exit_code == 2
    assert "invalid configuration" in r.stderr


def test_verify_output_file(runner, tmp_path):
    out = tmp_path / "verify.json"
    r = runner.invoke(main, ["verify", "--seed", "7", "--cutoff", "5",
                             "--output", str(out)])
    assert r.exit_code == 0
    assert json.loads(out.read_text())["all_pass"] is True


# ------------------------------------------------------------- cold start


def _fresh_imports(*argv):
    # exit code and imported module names of a fresh interpreter;
    # -X importtime lists every module it imports on stderr
    src = str(Path(latmoment.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    names = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    return proc.returncode, names


def test_commands_without_arrays_never_import_numpy():
    code, names = _fresh_imports("-c", "import latmoment.cli")
    assert code == 0 and "latmoment.cli" in names and "numpy" not in names
    for args, want in ((["field-info", "Q(zeta,5)"], 0),
                       (["zeta", "Q(sqrt,5)", "--s", "2.5"], 0),
                       (["zeta", "5", "--s", "2", "--p", "10000"], 0),
                       (["second-moment", "Q(zeta,5)", "--t", "40", "--volume", "4"], 0),
                       (["moment-bounds", "Q", "--t", "40", "--n", "3", "--volume", "1"], 0),
                       (["second-moment", "Q"], 2)):
        code, names = _fresh_imports("-m", "latmoment.cli", *args)
        assert code == want, args
        assert "latmoment.bounds" in names and "numpy" not in names, args


def test_commands_with_arrays_still_run_in_a_fresh_process():
    for args in (["gr-height", "Q(zeta,5)", "--row", "1,0,0,0 0,1,0,0 1/2,0,0,1",
                  "--row", "0,0,1,0 1,1,0,0 0,0,0,2"],
                 ["verify", "--suite", "core", "--seed", "7", "--cutoff", "5"]):
        code, names = _fresh_imports("-m", "latmoment.cli", *args)
        assert code == 0 and "numpy" in names, args


# ---------------------------------------------------------- package surface


def test_package_exports_the_concatenated_module_lists():
    from latmoment import bounds, heights, moments, numberfield, oracle

    layers = (numberfield, heights, moments, bounds, oracle)
    assert latmoment.__all__ == [name for mod in layers for name in mod.__all__]
    assert len(set(latmoment.__all__)) == len(latmoment.__all__)
    # the test-only references live in tests/refroutes.py, not in the package
    moved = ("euler_zeta", "_euler_interval", "_EULER_CACHE_SIZE", "_primes_upto",
             "_mult_order", "_cyclotomic_splitting", "_splitting", "_quadratic_ideal_counts",
             "_euler_phi", "FracIdeal", "ideal_from_generators", "hnf_rows",
             "mc_column_sum_ratio")
    # wrappers and bounds that nothing reached, deleted without an alias
    deleted = ("proj_point", "gr_height", "trace_pairing", "count_Am",
               "ball_intersection_sum_terms", "g_M", "volume_ratio_bound",
               "proj_unit_sum_bound")
    for mod in (latmoment, *layers):
        assert not [name for name in moved + deleted if hasattr(mod, name)], mod.__name__
    for mod in layers:
        for name in mod.__all__:
            assert getattr(latmoment, name) is getattr(mod, name), name


# public names that no command, benchmark or acceptance criterion reaches
# yet, each with the ROADMAP item that will give it a caller
_PENDING = {
    "voutier_hypothesis",  # item 8: the degree sweep's voutier floor
    "height_zeta_truncated",  # item 9: a verify check against Schanuel's count
    "enumerate_p1_rationals",  # item 9: the same verify check
}


def _caller_trees():
    # the files whose uses count as callers: the package, the benchmark, the
    # tools and the acceptance criteria, never the unit tests
    import ast

    root = Path(__file__).resolve().parents[1]
    files = [*sorted((root / "src" / "latmoment").glob("*.py")),
             *sorted((root / "perfbench").glob("*.py")),
             *sorted((root / "tools").glob("*.py")),
             root / "tests" / "test_acceptance.py"]
    return [ast.parse(path.read_text(encoding="utf-8")) for path in files]


def test_every_public_name_is_reached():
    import ast

    used = set()
    for tree in _caller_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unreached = {name for name in latmoment.__all__ if name not in used}
    assert unreached == _PENDING


def test_every_optional_parameter_is_passed():
    # every defaulted parameter of a public function or class is passed, by
    # keyword or by position, somewhere a caller lives; functools.partial(f,
    # ...) passes f's parameters with the positions shifted by one
    import ast
    import inspect

    passed: dict[str, set] = {}
    for tree in _caller_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            name = getattr(func, "id", getattr(func, "attr", None))
            if name == "partial" and args:
                func, args = args[0], args[1:]
                name = getattr(func, "id", getattr(func, "attr", None))
            slots = passed.setdefault(name, set())
            slots.update(kw.arg for kw in node.keywords)
            slots.update(range(len(args)))
    unpassed = set()
    for name in latmoment.__all__:
        obj = getattr(latmoment, name)
        if not callable(obj):
            continue
        params = list(inspect.signature(obj).parameters.values())
        for i, prm in enumerate(params):
            if prm.default is not prm.empty and not {i, prm.name} & passed.get(name, set()):
                unpassed.add(f"{name}.{prm.name}")
    assert unpassed == set()
