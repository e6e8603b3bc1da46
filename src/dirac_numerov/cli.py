"""Command-line interface.

Subcommands
-----------
table1   ground states of the 1/r problem for D = 3..9 against the closed form
         (a dimension off its tolerance or not found exits 2; one whose
         search raised exits as that failure would in solve)
solve    single ground-state search (exit 0 found, 3 certified not-found)
scan     ground-state search per dimension over a range (a dimension whose
         search failed sets the exit code, as that failure would in solve)
profile  CSV export of phi_+, F, G, the effective potential, or a mismatch scan
selftest quick internal consistency battery

Exit codes: 0 success / eigenvalue found, 1 configuration error, 2 numerical
failure, 3 certified not-found. Option precedence: command-line flags, then
``--config`` file entries (plain ``key = value`` lines, same keys as the long
flags), then built-in defaults. DIRAC_NUMEROV_THREADS overrides --threads.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import analytic, manifest, solver
from .core import Ansatz, PhysicalConfig, dimensionless_state
from .errors import ConfigError
from .numerov import Scheme, scheme_report

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_NOT_FOUND = 3

_RATIO_TOL = 5e-8      # |E/M numeric - closed form| acceptance per dimension
_EPSILON_REL_TOL = 0.01

_SOLVER_DEFAULTS = solver.SolverSettings()
_PHYSICAL_DEFAULTS = PhysicalConfig(dimension=3)

# every option: (type, built-in default)
_OPTIONS = {
    "dimension": (int, _PHYSICAL_DEFAULTS.dimension),
    "ell": (int, _PHYSICAL_DEFAULTS.ell),
    "ansatz": (int, _PHYSICAL_DEFAULTS.ansatz.value),
    "d-min": (int, 4),
    "d-max": (int, 10),
    "eta-min": (float, _SOLVER_DEFAULTS.eta_window[0]),
    "eta-max": (float, _SOLVER_DEFAULTS.eta_window[1]),
    "grid-a": (float, _SOLVER_DEFAULTS.grid_a),
    "grid-b": (float, _SOLVER_DEFAULTS.grid_b),
    "grid-delta": (float, _SOLVER_DEFAULTS.grid_delta),
    "scan-points": (int, _SOLVER_DEFAULTS.scan_points),
    "mismatch-tol": (float, _SOLVER_DEFAULTS.mismatch_tol),
    "root-tol": (float, _SOLVER_DEFAULTS.root_tol),
    "scheme": (str, _SOLVER_DEFAULTS.scheme.value),
    "threads": (int, None),
    "output": (str, None),
    "format": (str, "csv"),
    "quantity": (str, "phi_plus"),
    "eta": (str, "ground"),
    "mass": (float, _PHYSICAL_DEFAULTS.mass),
}

_DEFAULTS = {name: default for name, (_, default) in _OPTIONS.items()}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in _OPTIONS:
                    raise ConfigError(f"{path}:{lineno}: unknown option {key!r}")
                try:
                    values[key] = _OPTIONS[key][0](value.strip())
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: {key}: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _resolve(args: argparse.Namespace) -> dict:
    """Merge flags > config file > defaults into one option dict."""
    merged = dict(_DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        merged.update(_read_config_file(config_path))
    for key in _OPTIONS:
        flag_value = getattr(args, key.replace("-", "_"), None)
        if flag_value is not None:
            merged[key] = flag_value
    return merged


def _threads(opts: dict) -> int:
    env = os.environ.get("DIRAC_NUMEROV_THREADS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"DIRAC_NUMEROV_THREADS must be an integer, got {env!r}") from exc
    if opts["threads"] is not None:
        return max(1, opts["threads"])
    return os.cpu_count() or 1


def _settings(opts: dict) -> solver.SolverSettings:
    try:
        scheme = Scheme(str(opts["scheme"]).lower())
    except ValueError:
        raise ConfigError(f"scheme must be canonical or generalized, got {opts['scheme']!r}") from None
    knobs = {key.replace("-", "_"): opts[key]
             for key in ("scan-points", "root-tol", "mismatch-tol", "grid-a", "grid-b", "grid-delta")}
    return solver.SolverSettings(eta_window=(opts["eta-min"], opts["eta-max"]), scheme=scheme, **knobs)


def _ansatz(opts: dict) -> Ansatz:
    try:
        return Ansatz(opts["ansatz"])
    except ValueError:
        raise ConfigError(f"ansatz must be 1 or 2, got {opts['ansatz']!r}") from None


def _physical(opts: dict) -> PhysicalConfig:
    return PhysicalConfig(
        dimension=opts["dimension"],
        ell=opts["ell"],
        mass=opts["mass"],
        ansatz=_ansatz(opts),
    )


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _emit_results(command, config, settings, records, opts):
    """Write the records to ``--output`` as a JSON manifest or CSV; without it, write nothing."""
    if opts["output"] is None:
        return
    if opts["format"] == "json":
        run = manifest.RunManifest(
            tool_version=manifest.TOOL_VERSION,
            command=command,
            config_echo=manifest.config_echo(config, settings),
            results=records,
        )
        _write_text(opts["output"], run.serialize())
    else:
        columns = ["dimension", "found", "eta_star", "epsilon_ev", "match_rho",
                   "mismatch_residual", "wall_time_ms"]
        rows = [[r[column] for column in columns] for r in records]
        meta = {"tool_version": manifest.TOOL_VERSION, "command": command}
        _write_text(opts["output"], manifest.render_csv(columns, rows, meta))


def _run_dimensions(command, d_range, ansatz, ell, opts, report, header=None) -> int:
    """Search each dimension of ``d_range``, hand each result to ``report``, then emit the records.

    ``report(d, result)`` prints the dimension's line and returns its exit
    code. ``header``, if any, is printed after the searches, so a run whose
    settings or search raise prints nothing.
    """
    settings = _settings(opts)
    results = solver.dimension_scan(d_range, ansatz, settings, ell=ell, mass=opts["mass"],
                                    workers=_threads(opts))
    if header is not None:
        print(header)
    code = EXIT_OK
    records = []
    for d, result in results:
        failure = report(d, result)
        code = code or failure  # the first failed dimension sets the exit code
        records.append(manifest.result_record(d, result, int(1000 * result.wall_s)))
    config = PhysicalConfig(dimension=d_range[0], ell=ell, mass=opts["mass"], ansatz=ansatz)
    _emit_results(command, config, settings, records, opts)
    return code


def _cmd_table1(opts) -> int:
    def report(d, result) -> int:
        level = analytic.analytic_energy(
            PhysicalConfig(dimension=d, ell=0, mass=opts["mass"], ansatz=Ansatz.ONE_OVER_R)
        )
        eps_ref = -(1.0 - level.energy_ratio) * opts["mass"]
        if not result.found:
            failure, reason = EXIT_NUMERICAL, result.verdict_reason
            if result.error is not None:
                failure, label = _failure(result.error)
                reason = f"{label}: {reason}"
            print(f"{d:>2} {level.energy_ratio:>20.15f} {'-':>20} "
                  f"{eps_ref:>16.3f} {'-':>17} {'FAIL':>8}  ({reason})")
            return failure
        ratio_err = abs(result.eta_star - level.energy_ratio)
        eps_err = abs(result.epsilon_ev - eps_ref) / abs(eps_ref)
        ok = ratio_err <= _RATIO_TOL and eps_err <= _EPSILON_REL_TOL
        print(f"{d:>2} {level.energy_ratio:>20.15f} {result.eta_star:>20.15f} "
              f"{eps_ref:>16.3f} {result.epsilon_ev:>17.3f} {'ok' if ok else 'FAIL':>8}")
        if ok:
            return EXIT_OK
        print(f"   detail: |dE/M| = {ratio_err:.2e} (tol {_RATIO_TOL}), "
              f"eps rel err = {eps_err:.2e} (tol {_EPSILON_REL_TOL})")
        return EXIT_NUMERICAL

    header = f"{'D':>2} {'E/M closed form':>20} {'E/M numeric':>20} " \
             f"{'eps closed (eV)':>16} {'eps numeric (eV)':>17} {'status':>8}"
    return _run_dimensions("table1", (3, 9), Ansatz.ONE_OVER_R, 0, opts, report, header)


def _cmd_solve(opts) -> int:
    config = _physical(opts)
    settings = _settings(opts)
    t0 = time.perf_counter()
    result = solver.solve_ground_state(config, settings)
    wall = int(1000 * (time.perf_counter() - t0))
    records = [manifest.result_record(config.dimension, result, wall)]
    if result.found:
        print(f"found: eta* = {result.eta_star:.15f}, epsilon = {result.epsilon_ev:.6f} eV, "
              f"match rho = {result.match_rho:.6f}, residual = {result.mismatch_residual:.3e}")
    else:
        print(f"not found: {result.verdict_reason}")
    _emit_results("solve", config, settings, records, opts)
    return EXIT_OK if result.found else EXIT_NOT_FOUND


def _scan_line(d, result) -> int:
    if result.error is not None:
        failure, label = _failure(result.error)
        print(f"D = {d}: {label} ({result.verdict_reason})", file=sys.stderr)
        return failure
    if result.found:
        print(f"D = {d}: eta* = {result.eta_star:.15f}, epsilon = {result.epsilon_ev:.4f} eV")
    else:
        print(f"D = {d}: no bound state ({result.verdict_reason})")
    return EXIT_OK


def _cmd_scan(opts) -> int:
    if opts["d-min"] > opts["d-max"]:
        raise ConfigError(f"d-min {opts['d-min']} exceeds d-max {opts['d-max']}")
    return _run_dimensions("scan", (opts["d-min"], opts["d-max"]), _ansatz(opts), opts["ell"],
                           opts, _scan_line)


def _cmd_profile(opts) -> int:
    quantity = opts["quantity"]
    valid = {"phi_plus", "F", "G", "effective_potential", "mismatch_scan"}
    if quantity not in valid:
        raise ConfigError(f"quantity must be one of {sorted(valid)}, got {quantity!r}")
    config = _physical(opts)
    settings = _settings(opts)
    meta = {
        "tool_version": manifest.TOOL_VERSION,
        "quantity": quantity,
        "dimension": config.dimension,
        "ell": config.ell,
        "ansatz": config.ansatz.name,
        "scheme": settings.scheme.name,
    }

    if quantity == "mismatch_scan":
        rows = []
        for eta, delta in solver.mismatch_scan(config, settings):
            rows.append([eta, "NoTurningPoint" if delta is None else delta])
        _write_text(opts["output"], manifest.render_csv(["eta", "mismatch"], rows, meta))
        return EXIT_OK

    if opts["eta"] == "ground":
        result = solver.solve_ground_state(config, settings)
        if not result.found:
            print(f"not found: {result.verdict_reason}")
            return EXIT_NOT_FOUND
        eta_star = result.eta_star
    else:
        try:
            eta_star = float(opts["eta"])
        except ValueError as exc:
            raise ConfigError(f"--eta must be a number or 'ground', got {opts['eta']!r}") from exc
    meta["eta"] = manifest.format_float(eta_star)
    # a grid too large for eta_star is a configuration error (exit 1), not a missing turning point
    coeffs, grid = solver._trial_setup(eta_star, config, settings)
    meta["tau"] = manifest.format_float(coeffs.tau)
    meta["tau_prime"] = manifest.format_float(coeffs.tau_prime)

    if quantity == "effective_potential":
        nodes = grid.nodes()
        columns = ["rho", "level_minus_potential"]
        series = [nodes, coeffs.tau - np.asarray(coeffs.fields_fn(nodes)["v"], dtype=float)]
    else:
        try:
            wave = solver.eigenfunction(config, settings, eta_star)
        except ConfigError:
            print(f"no turning point at eta = {eta_star}; nothing to export")
            return EXIT_NOT_FOUND
        nodes = wave.grid.nodes()
        columns = ["rho", quantity]
        if quantity == "phi_plus":
            series = [nodes, wave.phi_plus]
            if config.dimension == 3 and config.ell == 0:
                columns.append("phi_plus_closed_form")
                series.append(analytic.analytic_ground_wavefunction_d3(nodes, config))
        else:
            series = [nodes, wave.f_component if quantity == "F" else wave.g_component]
    rows = np.column_stack(series).tolist()
    _write_text(opts["output"], manifest.render_csv(columns, rows, meta))
    return EXIT_OK


def _cmd_selftest() -> int:
    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append((name, True, ""))
        except Exception as exc:  # report and continue
            checks.append((name, False, str(exc)))

    def scalar_identities():
        # tau'^2 - tau^2 = A^2 lam^(D-3) for both continuations, through the
        # state's own lam^(D-3) (1 for the 1/r potential)
        rng = np.random.default_rng(7)
        for _ in range(1000):
            d = int(rng.integers(3, 11))
            eta = float(rng.uniform(-0.999999, 0.999999))
            for ansatz in Ansatz:
                st = dimensionless_state(PhysicalConfig(dimension=d, ansatz=ansatz), eta)
                lhs = (st.tau_prime - st.tau) * (st.tau_prime + st.tau)
                rhs = st.a_const**2 * st.lambda_d3
                stable = st.tau_prime**2 * st.lambda_
                assert abs(stable - rhs) <= 1e-12 * abs(rhs) + 1e-300, (ansatz, d, eta)
                assert abs(lhs - rhs) <= 1e-9 * abs(rhs) + 1e-300, (ansatz, d, eta)

    def closed_form_energies():
        # three-dimensional ground state must sit at the textbook value
        level = analytic.analytic_energy(PhysicalConfig(dimension=3, ansatz=Ansatz.ONE_OVER_R))
        assert abs(level.energy_ratio - 0.999973373968532) < 1e-12

    def order_signature():
        report = scheme_report()
        assert 3.5 < report["orders"]["canonical"] < 4.5, report["orders"]
        print(report["text"])

    def gauss_law_d5_absent():
        # the paper's headline: no interior turning point at any scanned energy
        config = PhysicalConfig(dimension=5, ansatz=Ansatz.GENERALIZED)
        result = solver.solve_ground_state(config)
        assert not result.found and all(d is None for _, d in result.scan_trace)

    def d3_solve():
        config = PhysicalConfig(dimension=3, ansatz=Ansatz.ONE_OVER_R)
        result = solver.solve_ground_state(config)
        level = analytic.analytic_energy(config)
        assert result.found and abs(result.eta_star - level.energy_ratio) < 5e-8

    check("dimensionless identities (1000 samples)", scalar_identities)
    check("closed-form energy table", closed_form_energies)
    check("integrator order signature", order_signature)
    check("three-dimensional ground state vs closed form", d3_solve)
    check("Gauss-law D = 5: certified absence of a bound state", gauss_law_d5_absent)

    failures = 0
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))
        failures += 0 if ok else 1
    return EXIT_OK if failures == 0 else EXIT_CONFIG


def _failure(kind) -> tuple:
    """(exit code, label) for a failure raised as an exception of class ``kind``.

    EtaOutOfRange, UnsupportedDimension, etc. are ValueError subclasses: all
    describe invalid problem statements, not numerical breakdowns. ``main``
    passes only ValueError, ArithmeticError and RuntimeError here; a scan
    records any exception, and counts the other classes as numerical too.
    """
    if issubclass(kind, ValueError):
        return EXIT_CONFIG, "configuration error"
    return EXIT_NUMERICAL, "numerical failure"


# subcommand: (handler, help, own options); each also takes --config and the search options
_COMMANDS = {
    "table1": (_cmd_table1, "1/r ground states, D = 3..9, vs the closed form", ("output", "format")),
    "solve": (_cmd_solve, "single ground-state search", ("dimension", "ell", "ansatz", "output", "format")),
    "scan": (_cmd_scan, "ground-state search per dimension over a range",
             ("d-min", "d-max", "ell", "ansatz", "output", "format")),
    "profile": (_cmd_profile, "CSV export of radial profiles and scans",
                ("quantity", "eta", "dimension", "ell", "ansatz", "output")),
}
_SEARCH_OPTIONS = ("eta-min", "eta-max", "grid-a", "grid-b", "grid-delta", "scan-points",
                   "mismatch-tol", "root-tol", "scheme", "threads", "mass")


def _build_parser() -> _Parser:
    parser = _Parser(prog="dirac-numerov", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=manifest.TOOL_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, own) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="key = value option file (flags take precedence)")
        for name in own + _SEARCH_OPTIONS:
            p.add_argument(f"--{name}", type=_OPTIONS[name][0], default=None, dest=name.replace("-", "_"))
    sub.add_parser("selftest", help="quick internal consistency battery")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "selftest":
            return _cmd_selftest()
        handler, _, own = _COMMANDS[args.command]
        opts = _resolve(args)
        # a command that takes --format checks it before any solve, with or without --output
        if "format" in own and opts["format"] not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {opts['format']!r}")
        return handler(opts)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        code, label = _failure(type(exc))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
