import json
import math
import os
import time

import numpy as np
import pytest

from dirac_numerov import analytic, cli, solver
from dirac_numerov.core import EigenResult
from dirac_numerov.cli import EXIT_CONFIG, EXIT_NOT_FOUND, EXIT_NUMERICAL, EXIT_OK, main
from dirac_numerov.errors import ConfigError, NonFiniteValue
from dirac_numerov.manifest import RunManifest, format_float, render_csv
from dirac_numerov.numerov import Scheme


def read_csv(path):
    metadata = {}
    rows = []
    header = None
    with open(path) as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                metadata[key.strip()] = value.strip()
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return metadata, header, rows


def test_float_formatting_locale_independent():
    assert format_float(math.pi) == "3.14159265358979e+00"
    assert format_float(-1.5e-9) == "-1.50000000000000e-09"
    text = render_csv(["a"], [[None], ["NoTurningPoint"], [2.0]])
    assert text.splitlines() == ["a", "", "NoTurningPoint", "2.00000000000000e+00"]


def test_solve_d1_is_config_error(capsys):
    assert main(["solve", "--dimension", "1", "--ansatz", "2"]) == EXIT_CONFIG
    assert "dimension" in capsys.readouterr().err


def test_solve_d2_gauss_law_is_config_error(capsys):
    # the 1/r^(D-2) coupling is undefined at D = 2 (zero divisor in the formula)
    assert main(["solve", "--dimension", "2", "--ansatz", "2"]) == EXIT_CONFIG
    assert "D >= 3" in capsys.readouterr().err
    # the 1/r convention is fine there
    assert main(["profile", "--quantity", "mismatch_scan", "--dimension", "2",
                 "--ansatz", "1", "--scan-points", "30",
                 "--output", os.devnull]) == EXIT_OK


def test_solve_bad_flag_is_config_error():
    assert main(["solve", "--nonsense", "4"]) == EXIT_CONFIG
    assert main(["bogus-command"]) == EXIT_CONFIG


@pytest.mark.parametrize("command", [["solve"], ["scan"], ["profile", "--quantity", "phi_plus"]])
def test_unknown_ansatz_is_config_error(command, capsys):
    # solve, scan and profile share one ansatz lookup
    assert main(command + ["--ansatz", "3"]) == EXIT_CONFIG
    assert "ansatz must be 1 or 2, got 3" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["solve"], ["scan"], ["table1"], ["profile"]])
def test_unknown_scheme_is_config_error(command, capsys):
    assert main(command + ["--scheme", "foo"]) == EXIT_CONFIG
    assert "scheme must be canonical or generalized, got 'foo'" in capsys.readouterr().err


def test_scheme_name_is_case_insensitive(monkeypatch):
    seen = []

    def record(config, settings):
        seen.append(settings.scheme)
        return EigenResult(found=False, eta_star=None, epsilon_ev=None, match_rho=None,
                           mismatch_residual=math.nan, verdict_reason="stub")

    monkeypatch.setattr(solver, "solve_ground_state", record)
    assert main(["solve", "--scheme", "CANONICAL"]) == EXIT_NOT_FOUND
    assert main(["solve", "--scheme", "Generalized"]) == EXIT_NOT_FOUND
    assert seen == [Scheme.CANONICAL, Scheme.GENERALIZED]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("dimension, ansatz, code, verdict", [
    ("3", "1", EXIT_OK, "found: eta* = "), ("5", "2", EXIT_NOT_FOUND, "not found: "),
], ids=["found", "not-found"])
def test_solve_without_output_prints_only_its_verdict(capsys, fmt, dimension, ansatz, code, verdict):
    # like table1 and scan, solve writes a manifest only to --output
    assert main(["solve", "--dimension", dimension, "--ansatz", ansatz, "--format", fmt]) == code
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith(verdict)
    assert "{" not in lines[0]


def test_solve_gauss_law_d5_not_found(tmp_path, capsys):
    out = tmp_path / "run.json"
    code = main(["solve", "--dimension", "5", "--ansatz", "2",
                 "--output", str(out), "--format", "json"])
    assert code == EXIT_NOT_FOUND
    manifest = json.loads(out.read_text())
    assert manifest["results"][0]["found"] is False
    assert manifest["results"][0]["status"] == "absent"
    assert manifest["results"][0]["eta_star"] is None
    assert manifest["config_echo"]["physical"]["dimension"] == 5
    assert "not found" in capsys.readouterr().out


def test_solve_d3_gauss_law_finds_hydrogen(tmp_path, capsys):
    out = tmp_path / "run.json"
    code = main(["solve", "--dimension", "3", "--ansatz", "2",
                 "--output", str(out), "--format", "json"])
    assert code == EXIT_OK
    record = json.loads(out.read_text())["results"][0]
    assert record["found"] is True and record["status"] == "found"
    assert abs(record["epsilon_ev"] - (-13.606)) < 1.5e-3
    assert "found" in capsys.readouterr().out


def test_manifest_roundtrip_and_determinism(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["solve", "--dimension", "6", "--ansatz", "2", "--scan-points", "200",
            "--format", "json"]
    assert main(args + ["--output", str(out1)]) == EXIT_NOT_FOUND
    assert main(args + ["--output", str(out2)]) == EXIT_NOT_FOUND
    d1, d2 = (json.loads(out.read_text()) for out in (out1, out2))
    m1 = RunManifest(**d1)
    assert json.loads(m1.serialize()) == m1.to_dict() == d1  # serialize round-trips
    for d in (d1, d2):
        for record in d["results"]:
            record.pop("wall_time_ms")
    assert d1 == d2
    # byte-identical apart from the wall_time_ms lines
    lines1 = [l for l in out1.read_text().splitlines() if "wall_time_ms" not in l]
    lines2 = [l for l in out2.read_text().splitlines() if "wall_time_ms" not in l]
    assert lines1 == lines2


def test_scan_gauss_law_csv(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = main(["scan", "--d-min", "4", "--d-max", "6", "--ansatz", "2",
                 "--scan-points", "300", "--output", str(out), "--format", "csv"])
    assert code == EXIT_OK
    metadata, header, rows = read_csv(out)
    assert header[0] == "dimension" and len(rows) == 3
    assert all(row[1] == "False" for row in rows)
    assert all(row[header.index("status")] == "absent" for row in rows)
    assert "no bound state" in capsys.readouterr().out


def test_scan_errored_dimension_is_an_error_not_an_absence(capsys):
    # the same inputs make solve exit with a configuration error
    assert main(["scan", "--d-min", "2", "--d-max", "2", "--ansatz", "2"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "no bound state" not in captured.out
    assert "D = 2: configuration error" in captured.err
    assert "UnsupportedDimension" in captured.err


def test_scan_numerical_failure_exit(monkeypatch, capsys):
    def breaks(config, settings):
        raise NonFiniteValue("non-finite samples at the match node")

    monkeypatch.setattr(solver, "solve_ground_state", breaks)
    code = main(["scan", "--d-min", "4", "--d-max", "5", "--ansatz", "2", "--threads", "1"])
    assert code == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert "no bound state" not in captured.out
    assert captured.err.count("numerical failure") == 2


@pytest.mark.parametrize("command", [["solve", "--dimension", "3", "--ansatz", "1"],
                                     ["scan", "--d-min", "4", "--d-max", "5"], ["table1"]])
def test_unknown_format_is_rejected_before_any_solve(monkeypatch, tmp_path, capsys, command):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the solver ran before the format was checked")

    monkeypatch.setattr(solver, "solve_ground_state", must_not_run)
    monkeypatch.setattr(solver, "dimension_scan", must_not_run)
    out = tmp_path / "out"
    assert main([*command, "--format", "xml", "--output", str(out), "--threads", "1"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "format must be csv or json" in captured.err
    assert "found" not in captured.out and not out.exists()
    # without --output too: the format is checked whatever the destination
    assert main([*command, "--format", "xml", "--threads", "1"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "format must be csv or json" in captured.err
    assert "found" not in captured.out


def test_scan_wall_time_per_dimension(tmp_path):
    out = tmp_path / "scan.json"
    t0 = time.perf_counter()
    code = main(["scan", "--d-min", "3", "--d-max", "5", "--ansatz", "2", "--scan-points", "300",
                 "--threads", "1", "--output", str(out), "--format", "json"])
    elapsed_ms = 1000.0 * (time.perf_counter() - t0)
    assert code == EXIT_OK
    times = [r["wall_time_ms"] for r in json.loads(out.read_text())["results"]]
    # each dimension timed on its own, not the total split evenly
    assert len(times) == 3 and len(set(times)) > 1
    assert sum(times) <= elapsed_ms


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dimension = 5\nansatz = 2\nscan-points = 150\n# comment\n")
    out = tmp_path / "m.json"
    # config file applies when the flag is absent...
    code = main(["solve", "--config", str(cfg), "--output", str(out), "--format", "json"])
    assert code == EXIT_NOT_FOUND
    assert json.loads(out.read_text())["config_echo"]["physical"]["dimension"] == 5
    # ...and explicit flags win over the file
    code = main(["solve", "--config", str(cfg), "--dimension", "4",
                 "--output", str(out), "--format", "json"])
    assert code == EXIT_NOT_FOUND
    manifest = json.loads(out.read_text())
    assert manifest["config_echo"]["physical"]["dimension"] == 4
    assert manifest["config_echo"]["settings"]["scan_points"] == 150


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("dimnesion = 5\n")
    assert main(["solve", "--config", str(cfg)]) == EXIT_CONFIG
    assert "unknown option" in capsys.readouterr().err


def test_config_file_bad_value_names_the_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("dimension = 3\n# comment\nscan-points = abc\n")
    assert main(["solve", "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{cfg}:3: scan-points:" in err and "'abc'" in err


@pytest.mark.parametrize("flag", ["--grid-a", "--grid-b", "--grid-delta", "--root-tol",
                                  "--mismatch-tol", "--mass"])
def test_non_finite_flag_is_config_error(flag, capsys):
    # these ran before: a "not found" verdict (exit 3), an integer conversion
    # failure (exit 2), or epsilon = -inf eV (exit 0)
    code = main(["solve", "--dimension", "3", "--ansatz", "1", "--scan-points", "50", flag, "inf"])
    assert code == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("dimension", [3, 6])
def test_solve_on_a_grid_short_of_its_decay_margin_is_a_config_error(dimension, capsys):
    # these ran before: D = 3 exited 0 with eta* 6.6e-7 off the closed form,
    # D = 6 exited 3 with "mismatch never changes sign"
    code = main(["solve", "--dimension", str(dimension), "--ansatz", "1", "--grid-b", "8"])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "found" not in captured.out
    assert "configuration error: grid_b gives rho_max = 8, short of the 44" in captured.err


def test_scan_on_a_grid_short_of_its_decay_margin_is_a_config_error(capsys):
    # this printed "D = 6: no bound state" and exited 0 before
    code = main(["scan", "--d-min", "6", "--d-max", "6", "--ansatz", "1", "--grid-b", "8",
                 "--threads", "1"])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "no bound state" not in captured.out
    assert "D = 6: configuration error" in captured.err and "grid_b gives rho_max" in captured.err


def test_threads_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("DIRAC_NUMEROV_THREADS", "2")
    out = tmp_path / "scan.json"
    code = main(["scan", "--d-min", "4", "--d-max", "5", "--ansatz", "2",
                 "--scan-points", "120", "--threads", "1",
                 "--output", str(out), "--format", "json"])
    assert code == EXIT_OK
    assert len(json.loads(out.read_text())["results"]) == 2
    monkeypatch.setenv("DIRAC_NUMEROV_THREADS", "zebra")
    assert main(["scan", "--d-min", "4", "--d-max", "5", "--ansatz", "2"]) == EXIT_CONFIG


def test_profile_mismatch_scan_all_sentinels(tmp_path):
    out = tmp_path / "scan.csv"
    code = main(["profile", "--quantity", "mismatch_scan", "--dimension", "4",
                 "--ansatz", "2", "--scan-points", "200", "--output", str(out)])
    assert code == EXIT_OK
    metadata, header, rows = read_csv(out)
    assert header == ["eta", "mismatch"]
    assert len(rows) == 200
    assert all(row[1] == "NoTurningPoint" for row in rows)


def test_profile_mismatch_scan_rejects_an_oversized_window(capsys):
    code = main(["profile", "--quantity", "mismatch_scan", "--dimension", "3",
                 "--ansatz", "1", "--eta-min", "0.01", "--eta-max", "0.999999999999",
                 "--output", os.devnull])
    assert code == EXIT_CONFIG
    assert "grid would need" in capsys.readouterr().err


def test_profile_grid_too_large_is_a_configuration_error(capsys):
    # the record and grid are resolved before the eigenfunction: a grid past
    # the node limit exits 1 for every quantity, not 3 ("no turning point")
    for quantity in ("phi_plus", "F", "G", "effective_potential"):
        code = main(["profile", "--quantity", quantity, "--eta", "0.999999999999",
                     "--dimension", "3", "--ansatz", "1", "--output", os.devnull])
        assert code == EXIT_CONFIG, quantity
        assert "grid would need" in capsys.readouterr().err


def test_cli_defaults_are_the_solver_defaults():
    assert cli._settings(cli._DEFAULTS) == solver.SolverSettings()


def test_profile_effective_potential_d5(tmp_path):
    out = tmp_path / "pot.csv"
    code = main(["profile", "--quantity", "effective_potential", "--dimension", "5",
                 "--ansatz", "2", "--eta", "0.99", "--output", str(out)])
    assert code == EXIT_OK
    metadata, header, rows = read_csv(out)
    assert header == ["rho", "level_minus_potential"]
    assert "tau_prime" in metadata
    rho = np.array([float(r[0]) for r in rows])
    gap = np.array([float(r[1]) for r in rows])
    # outer region everywhere forbidden: no sign change beyond the collapse funnel
    assert np.all(gap[rho >= 0.05] < 0.0)


def test_profile_phi_plus_with_overlay(tmp_path):
    out = tmp_path / "phi.csv"
    code = main(["profile", "--quantity", "phi_plus", "--dimension", "3",
                 "--ansatz", "1", "--eta", "ground", "--output", str(out)])
    assert code == EXIT_OK
    metadata, header, rows = read_csv(out)
    assert header == ["rho", "phi_plus", "phi_plus_closed_form"]
    rho = np.array([float(r[0]) for r in rows])
    numeric = np.array([float(r[1]) for r in rows])
    overlay = np.array([float(r[2]) for r in rows])
    window = rho <= 20.0
    assert np.max(np.abs(numeric[window] - overlay[window])) <= 1e-3


def test_profile_f_component(tmp_path):
    out = tmp_path / "f.csv"
    code = main(["profile", "--quantity", "F", "--dimension", "3", "--ansatz", "1",
                 "--output", str(out)])
    assert code == EXIT_OK
    _, header, rows = read_csv(out)
    assert header == ["rho", "F"]
    assert len(rows) > 1000


def test_profile_ground_not_found_exit(tmp_path):
    code = main(["profile", "--quantity", "phi_plus", "--dimension", "5",
                 "--ansatz", "2", "--output", str(tmp_path / "x.csv")])
    assert code == EXIT_NOT_FOUND


def test_table1_passes(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = main(["table1", "--output", str(out), "--format", "csv"])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert printed.count(" ok") == 7
    _, header, rows = read_csv(out)
    assert len(rows) == 7
    # binding energies reproduce the published table to the printed precision
    eps = {int(row[0]): float(row[3]) for row in rows}
    published = {3: -13.606, 4: -6.047, 5: -3.401, 6: -2.177, 7: -1.512,
                 8: -1.111, 9: -0.850}
    for d, value in published.items():
        assert abs(eps[d] - value) < 5e-3, d


def _table1_solver(kind):
    """A stand-in ground-state search that misses the table in the given way."""

    def search(config, settings):
        if kind == "raises-numerical":
            raise NonFiniteValue("non-finite samples at the match node")
        if kind == "raises-config":
            raise ConfigError("grid would need too many nodes")
        if kind == "not-found":
            return EigenResult(found=False, eta_star=None, epsilon_ev=None, match_rho=None,
                               mismatch_residual=math.nan, verdict_reason="no sign change")
        eta = analytic.analytic_energy(config).energy_ratio - 1e-6  # off tolerance
        return EigenResult(found=True, eta_star=eta, epsilon_ev=-(1.0 - eta) * config.mass,
                           match_rho=5.0, mismatch_residual=1e-9)

    return search


@pytest.mark.parametrize("kind,code,label", [
    ("off-tolerance", EXIT_NUMERICAL, "detail: |dE/M|"),
    ("not-found", EXIT_NUMERICAL, "no sign change"),
    ("raises-numerical", EXIT_NUMERICAL, "numerical failure"),
    ("raises-config", EXIT_CONFIG, "configuration error"),
])
def test_table1_failure_exit_codes(monkeypatch, capsys, kind, code, label):
    monkeypatch.setattr(solver, "solve_ground_state", _table1_solver(kind))
    assert main(["table1", "--threads", "1"]) == code
    printed = capsys.readouterr().out
    assert printed.count("FAIL") == 7 and label in printed


@pytest.mark.parametrize("command,first,rest,code", [
    (["table1"], NonFiniteValue, ConfigError, EXIT_NUMERICAL),
    (["scan", "--d-min", "3", "--d-max", "4"], ConfigError, NonFiniteValue, EXIT_CONFIG),
])
def test_the_first_failed_dimension_sets_the_exit_code(monkeypatch, capsys, command, first, rest,
                                                        code):
    # D = 3 fails one way and every later dimension the other
    def search(config, settings):
        raise (first if config.dimension == 3 else rest)("stand-in failure")

    monkeypatch.setattr(solver, "solve_ground_state", search)
    assert main([*command, "--threads", "1"]) == code
    captured = capsys.readouterr()
    printed = captured.out + captured.err
    assert "numerical failure" in printed and "configuration error" in printed


@pytest.mark.parametrize("flags", [
    ["--eta-min", "0.99999", "--eta-max", "0.999999", "--scan-points", "20"],
    ["--grid-delta", "0.5"],
])
def test_solve_does_not_report_a_root_with_nodes(capsys, flags):
    # an excited level in the window, or a grid too coarse for the ground state
    assert main(["solve", "--dimension", "3", "--ansatz", "1", *flags]) == EXIT_NOT_FOUND
    printed = capsys.readouterr().out
    assert printed.startswith("not found: the mismatch root") and "excited level" in printed


@pytest.mark.parametrize("flags", [["--dimension", "15"], ["--dimension", "3", "--ell", "6"]])
def test_solve_finds_a_ground_state_past_unresolved_first_steps(capsys, flags):
    # K = 7: the outward solution flips sign across the first step, where A
    # and C are negative; that flip is no node
    assert main(["solve", "--ansatz", "1", *flags]) == EXIT_OK
    assert capsys.readouterr().out.startswith("found: eta* = 0.999999456618684")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scan_does_not_call_a_root_with_nodes_an_absence(tmp_path, capsys, fmt):
    # the window holds the n_r = 1 level, which solve rejects with exit 3
    out = tmp_path / f"scan.{fmt}"
    assert main(["scan", "--d-min", "3", "--d-max", "3", "--ansatz", "1", "--eta-min", "0.99999",
                 "--eta-max", "0.999999", "--scan-points", "20", "--threads", "1",
                 "--output", str(out), "--format", fmt]) == EXIT_OK
    printed = capsys.readouterr().out
    assert printed.startswith("D = 3: no ground state in the window (the mismatch root")
    assert "no bound state" not in printed
    if fmt == "json":
        assert json.loads(out.read_text())["results"][0]["status"] == "excited"
    else:
        _, header, rows = read_csv(out)
        assert rows[0][header.index("status")] == "excited"


def test_selftest(capsys):
    assert main(["selftest"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "Gauss-law D = 5" in out
    assert "scheme diagnostic" in out
