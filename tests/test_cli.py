"""Command line behavior: flags, exit codes, files on disk."""

import csv
import os
import subprocess
import sys

import pytest

from twrnoma.cli import main
from twrnoma.configio import DEFAULT_CONFIG_TEXT, parse_config
from twrnoma.model import SystemConfig
from twrnoma.sweep import SweepSpec, render_csv, run_sweep


def run_in(tmp_path, argv):
    old = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(argv)
    finally:
        os.chdir(old)


def test_print_default_config(capsys):
    assert main(["--print-default-config"]) == 0
    out = capsys.readouterr().out
    assert out == DEFAULT_CONFIG_TEXT
    assert parse_config(out) == SystemConfig()


def test_print_default_config_is_a_top_level_flag(capsys):
    assert main(["sweep", "--print-default-config"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert "sweep" in capsys.readouterr().out


def test_bad_flag_exits_one(capsys):
    assert main(["sweep", "--metric", "nope"]) == 1
    assert "error" in capsys.readouterr().err


def test_sweep_requires_metric_or_preset(capsys):
    assert main(["sweep"]) == 1
    assert "--preset or --metric" in capsys.readouterr().err


def test_snr_flag_parsing(tmp_path, capsys):
    code = run_in(tmp_path, ["sweep", "--metric", "outage", "--signals", "x1",
                             "--mode", "ipsic", "--snr", "0:10:5",
                             "--iterations", "2000", "--seed", "5",
                             "--out", "grid.csv"])
    assert code == 0
    with open(tmp_path / "grid.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["snr_db"] for r in rows] == ["0.0", "5.0", "10.0"]
    assert main(["sweep", "--metric", "outage", "--snr", "0-10-5"]) == 1
    assert "start:stop:step" in capsys.readouterr().err
    assert main(["sweep", "--metric", "outage", "--snr", "a:b:c"]) == 1
    assert main(["sweep", "--metric", "outage", "--signals", "x7",
                 "--snr", "0:10:5"]) == 1


def test_snr_grid_below_zero_db_in_every_form(tmp_path, capsys):
    """A grid whose start is negative reads the same after --snr, --snr=
    and the abbreviation --sn."""
    texts = {}
    for name, flag in (("separate", ["--snr", "-10:0:5"]),
                       ("joined", ["--snr=-10:0:5"]),
                       ("abbreviated", ["--sn", "-10:0:5"])):
        code = run_in(tmp_path, ["sweep", "--metric", "outage", "--signals", "x1",
                                 "--mode", "ipsic", *flag, "--iterations", "2000",
                                 "--out", f"{name}.csv"])
        assert code == 0, capsys.readouterr().err
        texts[name] = (tmp_path / f"{name}.csv").read_text()
    assert texts["separate"] == texts["joined"] == texts["abbreviated"]
    with open(tmp_path / "separate.csv", newline="") as fh:
        assert [r["snr_db"] for r in csv.DictReader(fh)] == ["-10.0", "-5.0", "0.0"]
    # an option after --snr is still an option, not a grid
    assert main(["sweep", "--metric", "outage", "--snr", "--seed", "3"]) == 1
    assert "expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("grid, db", [("3000:3100:100", "3100.0"),
                                      ("0:3100:3100", "3100.0"),
                                      ("-4000:-3900:100", "-4000.0"),
                                      ("-3100:-3000:100", "-3100.0")])
def test_snr_grid_beyond_the_float_range_exits_one(tmp_path, capsys, grid, db):
    """A grid point whose linear SNR overflows, or underflows so far that it
    or its reciprocal leaves the float range, is refused with one line that
    names it, not a traceback."""
    code = run_in(tmp_path, ["sweep", "--metric", "outage", f"--snr={grid}",
                             "--iterations", "2000"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: SNR grid point {db} dB is beyond the float "
                            f"range of a linear SNR\n")
    assert not list(tmp_path.iterdir())


def test_config_flag_and_errors(tmp_path, capsys):
    good = tmp_path / "ok.cfg"
    good.write_text("schema_version = 1\nnoma.varpi1 = 0.0\nnoma.varpi2 = 0.0\n")
    code = run_in(tmp_path, ["sweep", "--metric", "outage", "--signals", "x1",
                             "--mode", "psic", "--snr", "10:10:5",
                             "--iterations", "2000", "--config", str(good),
                             "--out", "cfg.csv"])
    assert code == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text("schema_version = 1\nnoma.b1 = 0.7\n")
    assert main(["sweep", "--metric", "outage", "--config", str(bad)]) == 1
    assert "b1 must lie in" in capsys.readouterr().err
    assert main(["sweep", "--metric", "outage",
                 "--config", str(tmp_path / "ghost.cfg")]) == 1


def test_weak_psic_ceiling_at_a_small_power_share(tmp_path):
    """At a2 = 0.1 and 0 dB, c = 1/(rho a2 Omega2) = 1000, past where e^c
    overflows; the pSIC ceiling column must still be written."""
    cfg = tmp_path / "a2.cfg"
    cfg.write_text(DEFAULT_CONFIG_TEXT.replace("noma.a2 = 0.2", "noma.a2 = 0.1"))
    code = run_in(tmp_path, ["sweep", "--config", str(cfg),
                             "--metric", "ergodic_rate", "--signals", "x2",
                             "--mode", "psic", "--snr", "0:10:10",
                             "--with-asymptotic", "--iterations", "2000",
                             "--out", "ceiling.csv"])
    assert code == 0
    with open(tmp_path / "ceiling.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert all(float(r["asymptotic"]) > 0.0 for r in rows)


def test_preset_expands_variant_files(tmp_path):
    code = run_in(tmp_path, ["sweep", "--preset", "fig3", "--snr", "10:10:5",
                             "--iterations", "2000", "--seed", "2"])
    assert code == 0
    names = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert names == ["fig3_varpi_0.01.csv", "fig3_varpi_0.1.csv",
                     "fig3_varpi_0.csv"]


def test_preset_with_plot_scripts(tmp_path):
    code = run_in(tmp_path, ["sweep", "--preset", "fig2", "--snr", "10:15:5",
                             "--iterations", "2000", "--seed", "2",
                             "--emit-plot"])
    assert code == 0
    assert (tmp_path / "fig2.csv").exists()
    assert (tmp_path / "fig2_plot.py").exists()
    with open(tmp_path / "fig2.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    modes = {r["mode"] for r in rows}
    assert modes == {"ipsic", "psic", "oma"}
    # the reference preset carries the flat asymptote column
    noma = [r for r in rows if r["mode"] != "oma"]
    assert all(r["asymptotic"] for r in noma)


@pytest.mark.parametrize("out", ["runs.d/fig3", "../x/fig3"])
def test_out_path_with_a_dot_in_a_directory(tmp_path, out):
    """Only the last path component carries the extension."""
    work = tmp_path / "work"
    target = (work / out).parent
    target.mkdir(parents=True)
    code = run_in(work, ["sweep", "--preset", "fig3", "--snr", "10:10:5",
                         "--iterations", "2000", "--seed", "2", "--out", out])
    assert code == 0
    assert sorted(p.name for p in target.iterdir()) == [
        "fig3_varpi_0.01.csv", "fig3_varpi_0.1.csv", "fig3_varpi_0.csv"]


def test_plot_script_sits_next_to_a_dotted_out_path(tmp_path):
    (tmp_path / "runs.d").mkdir()
    code = run_in(tmp_path, ["sweep", "--preset", "fig2", "--snr", "10:10:5",
                             "--iterations", "2000", "--seed", "2",
                             "--out", "runs.d/fig2", "--emit-plot"])
    assert code == 0
    assert sorted(p.name for p in (tmp_path / "runs.d").iterdir()) == [
        "fig2.csv", "fig2_plot.py"]


def test_explicit_flags_override_preset(tmp_path):
    code = run_in(tmp_path, ["sweep", "--preset", "fig6", "--snr", "20:20:5",
                             "--mode", "psic", "--signals", "x1",
                             "--iterations", "2000", "--seed", "4"])
    assert code == 0
    with open(tmp_path / "fig6.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["mode"] == "psic"
    assert rows[0]["signal"] == "x1"
    assert rows[0]["metric"] == "ergodic_rate"


def test_zero_iterations_are_refused(tmp_path, capsys):
    code = run_in(tmp_path, ["sweep", "--metric", "outage", "--signals", "x1",
                             "--mode", "ipsic", "--snr", "0:0:5",
                             "--iterations", "0"])
    assert code == 1
    assert capsys.readouterr().err == ("error: a Monte Carlo run needs at least 1000 "
                                       "samples to state a confidence interval, got 0\n")
    assert not list(tmp_path.iterdir())


def test_mode_flag_replaces_a_single_mode_preset(tmp_path):
    code = run_in(tmp_path, ["sweep", "--preset", "fig4", "--mode", "both",
                             "--snr", "10:10:5", "--iterations", "2000"])
    assert code == 0
    for name in ("fig4_omegaI_-20dB.csv", "fig4_omegaI_-10dB.csv",
                 "fig4_omegaI_0dB.csv"):
        with open(tmp_path / name, newline="") as fh:
            assert {r["mode"] for r in csv.DictReader(fh)} == {"ipsic", "psic"}


def test_unknown_mode_flag_exits_one(tmp_path, capsys):
    code = run_in(tmp_path, ["sweep", "--metric", "outage", "--mode", "perfect",
                             "--iterations", "2000"])
    assert code == 1
    assert capsys.readouterr().err == ("error: SIC mode must be one of "
                                       "('ipsic', 'psic'), got 'perfect'\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("metric", ["outage", "throughput_dt", "ee_dl"])
def test_flag_only_sweep_is_the_default_spec(tmp_path, metric):
    """Without a preset, the flags replace fields of SweepSpec's defaults."""
    code = run_in(tmp_path, ["sweep", "--metric", metric, "--snr", "0:10:10",
                             "--iterations", "2000", "--out", "flags.csv"])
    assert code == 0
    spec = SweepSpec(metric=metric, snr=(0.0, 10.0, 10.0), mc_iterations=2000)
    assert ((tmp_path / "flags.csv").read_text()
            == render_csv(run_sweep(spec, SystemConfig())))


@pytest.mark.parametrize("grid", ["0:inf:5", "nan:10:5", "-inf:0:5", "0:10:inf",
                                  "0:1e9:1e-9", "0:10000:1", "-1e308:1e308:1"])
def test_unbounded_snr_grid_exits_one(tmp_path, capsys, monkeypatch, grid):
    def no_grid(spec):
        raise AssertionError("the grid must be refused before it is built")

    monkeypatch.setattr(SweepSpec, "grid_db", no_grid)
    code = run_in(tmp_path, ["sweep", "--metric", "outage", f"--snr={grid}",
                             "--iterations", "2000"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: SNR grid ")
    assert captured.err.count("\n") == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("key, value", [("channel.d1", "1e-200"),
                                        ("channel.d2", "1e200")])
def test_distance_beyond_the_float_range_exits_one(tmp_path, capsys, key, value):
    cfg = tmp_path / "far.cfg"
    cfg.write_text(f"schema_version = 1\n{key} = {value}\n")
    code = run_in(tmp_path, ["sweep", "--metric", "outage", "--config", str(cfg),
                             "--iterations", "2000"])
    assert code == 1
    assert key.split(".")[1] in capsys.readouterr().err


def test_unwritable_out_path_exits_one(capsys):
    assert main(["sweep", "--metric", "outage", "--signals", "x1",
                 "--mode", "ipsic", "--snr", "0:0:5", "--iterations", "2000",
                 "--out", "/no_such_dir/x.csv"]) == 1
    assert "/no_such_dir/x.csv" in capsys.readouterr().err


def _assert_refused(tmp_path, capsys, argv, flag):
    """Exit 1 with one error line that names the flag, and no file written."""
    assert run_in(tmp_path, [*argv, "--iterations", "2000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert flag in captured.err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["sweep", "--metric", "throughput_dl", "--snr", "0:10:5"],
    ["sweep", "--preset", "fig7", "--snr", "0:10:5"],
    ["sweep", "--preset", "fig6", "--metric", "ee_dt", "--snr", "0:10:5"],
], ids=["metric", "preset", "replaced_metric"])
def test_signals_with_a_system_metric_exit_one(tmp_path, capsys, argv):
    """A system metric always sums x1..x4, so a signal list would change
    nothing in the CSV."""
    _assert_refused(tmp_path, capsys, [*argv, "--signals", "x1"], "--signals")


@pytest.mark.parametrize("metric", ["outage", "ee_dl"])
def test_metric_with_a_preset_whose_variants_name_theirs_exits_one(tmp_path, capsys,
                                                                   metric):
    """fig8's variants name ee_dl and ee_dt, so --metric would replace
    nothing."""
    _assert_refused(tmp_path, capsys,
                    ["sweep", "--preset", "fig8", "--metric", metric, "--snr", "0:10:5"],
                    "--metric")


@pytest.mark.parametrize("command", [["sweep", "--metric", "outage", "--snr", "0:0:5"],
                                     ["validate"]], ids=["sweep", "validate"])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exit_one(tmp_path, capsys, command, workers):
    _assert_refused(tmp_path, capsys, [*command, "--workers", workers], "--workers")


def test_validate_exit_codes(capsys):
    assert main(["validate", "--iterations", "20000"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert out.count("PASS") >= 10
    # strict profile halves every band; the checks that sit near their
    # band edge are expected to trip without crashing the battery
    assert main(["validate", "--iterations", "20000",
                 "--profile", "strict"]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out and "check(s) failed" in out


def test_validate_refuses_too_few_iterations(capsys):
    assert main(["validate", "--iterations", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_validate_refuses_a_negative_seed(capsys, monkeypatch):
    import twrnoma.validate as battery

    def unreachable(*args):
        raise AssertionError("no check may run")

    monkeypatch.setattr(battery, "_check_outage_vs_mc", unreachable)
    assert main(["validate", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be nonnegative, got -1\n"


@pytest.mark.parametrize("text, argv, key", [
    ("noma.omega_i_db = 4000", ["sweep", "--metric", "outage"], "noma.omega_i_db"),
    ("rates.r1 = 600", ["sweep", "--metric", "outage"], "r1"),
    ("rates.r1 = 300", ["sweep", "--preset", "fig2"], "r1"),
    ("rates.r1 = 600", ["validate"], "r1"),
])
def test_overflowing_config_values_exit_one(tmp_path, capsys, text, argv, key):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(f"schema_version = 1\n{text}\n")
    assert run_in(tmp_path, [*argv, "--config", str(cfg),
                             "--iterations", "2000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert key in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.cfg"]


def test_validate_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("schema_version = 1\nnoma.b3 = 0.7\n")
    assert main(["validate", "--config", str(bad)]) == 1
    assert "b3 must lie in" in capsys.readouterr().err


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "twrnoma.cli",
                           "--print-default-config"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "schema_version = 1" in proc.stdout


def test_cli_import_leaves_scipy_integrate_unloaded():
    """Every CLI call pays for what ``import twrnoma.cli`` loads; the rate
    integrals need no scipy, and scipy.integrate alone cost about 0.6 s."""
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, twrnoma.cli; "
                           "print('scipy.integrate' in sys.modules)"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
