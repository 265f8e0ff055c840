"""Command-line interface.

Subcommands: state, qpd, evolve, scan, fit, reproduce-paper.  Every
command writes its results as JSON and/or CSV files under --out; numeric
CSV output uses 17 significant digits so reports are diff-stable.

Option precedence: command-line flags override the --config file, which
overrides built-in defaults.  The config file is flat ``key = value``
text; keys match option names (method, tol, format, out, grid), and an
unknown key or a value that does not convert fails naming path:line.
"""

import json
import math
import sys
from pathlib import Path

import click

from .dynamics import (
    PropagationError,
    PropagatorConfig,
    TwistProtocol,
    evolve,
    make_sss,
    tact_generator,
)
from .fitting import FitError, fit
from .observables import prob_distribution, qpd
from .reproduce import run_reproduction
from .scan import METRICS, ScanSpec, scan_tau
from .states import (
    CoherentSpinParams,
    SpinState,
    basis_state,
    make_cat,
    make_css,
    make_ewss,
    make_twin_fock,
)

STATE_KINDS = ("css", "ewss", "tfs", "cat", "sss")
_METHODS = ("auto", "dense_expm", "krylov")
_FORMATS = ("json", "csv", "both")
# config key -> the values it accepts (None: any, converted where it is used)
_CONFIG_KEYS = {"method": _METHODS, "tol": None, "format": _FORMATS, "out": None, "grid": None}


def _fmt(x) -> str:
    """Full round-trip precision for CSV cells."""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_csv(path: Path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(cell) for cell in row) + "\n")


def _write_json(path: Path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _load_config(path):
    """{key: (value, "path:line")} from a flat ``key = value`` file."""
    values = {}
    if path is None:
        return values
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise click.ClickException(
                f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise click.ClickException(f"{path}:{line_no}: unknown key {key!r}; "
                                       f"expected one of {', '.join(_CONFIG_KEYS)}")
        if _CONFIG_KEYS[key] and value not in _CONFIG_KEYS[key]:
            raise click.ClickException(f"{path}:{line_no}: bad {key} value {value!r}; "
                                       f"expected one of {', '.join(_CONFIG_KEYS[key])}")
        values[key] = (value, f"{path}:{line_no}")
    return values


def _parse_grid(grid):
    try:
        n_phi, n_theta = map(int, str(grid).lower().split("x"))
    except ValueError:
        raise ValueError("expected NPHIxNTHETA") from None
    return n_phi, n_theta


class _Settings:
    """Resolved defaults: CLI flag > config file > built-in default."""

    def __init__(self, config_values):
        self.config = config_values

    def get(self, key, cli_value, default, convert=str):
        if cli_value is not None:
            value, where = cli_value, f"--{key}"
        elif key in self.config:
            value, where = self.config[key]
        else:
            return default
        try:
            return convert(value)
        except ValueError as exc:
            raise ValueError(f"{where}: bad {key} value {value!r}: {exc}") from None


pass_settings = click.make_pass_decorator(_Settings)

_METHOD_OPTION = click.option(
    "--method", type=click.Choice(_METHODS), default=None,
    help="Propagator. auto (default): one cached tridiagonal eigensolve per "
         "parity block, for parity-preserving skew-hermitian generators only; "
         "dense_expm and krylov are the cross-check oracles.")
_TOL_OPTION = click.option(
    "--tol", type=float, default=None,
    help="Krylov error tolerance (binds only --method krylov).")
_OUT_OPTION = click.option("--out", type=click.Path(file_okay=False), default=None)
_FORMAT_OPTION = click.option("--format", "fmt", type=click.Choice(_FORMATS), default=None)


@click.group()
@click.option("--config", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Flat key=value settings file.")
@click.pass_context
def main(ctx, config):
    """Collective-spin squeezing toolkit."""
    ctx.obj = _Settings(_load_config(config))


def _propagator(settings, method, tol):
    method = settings.get("method", method, "auto")
    tol = settings.get("tol", tol, 1e-10, float)
    return PropagatorConfig(method=method, tolerance=tol)


def _out_dir(settings, out) -> Path:
    out = settings.get("out", out, ".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _build_state(kind, j, alpha, beta, tau, chi, gamma, cfg) -> SpinState:
    if kind == "css":
        return make_css(j, CoherentSpinParams(alpha=alpha, beta=beta))
    if kind == "ewss":
        return make_ewss(j)
    if kind == "tfs":
        return make_twin_fock(j)
    if kind == "cat":
        return make_cat(j)
    if kind == "sss":
        protocol = TwistProtocol(chi=chi, gamma=gamma)
        return make_sss(j, tau=tau, protocol=protocol, cfg=cfg)
    raise ValueError(f"unknown state kind {kind!r}")


def _emit_state(out: Path, prefix: str, state: SpinState, fmt: str):
    paths = []
    if fmt in ("json", "both"):
        path = out / f"{prefix}.json"
        _write_json(path, state.to_json_dict())
        paths.append(path)
    prob = prob_distribution(state)
    path = out / f"{prefix}_prob.csv"
    _write_csv(path, ("M", "P"),
               [(float(m), float(p)) for m, p in zip(state.m_values, prob)])
    paths.append(path)
    return paths


def _fail(exc):
    click.echo(f"error: {exc}", err=True)
    sys.exit(1)


@main.command()
@click.option("--kind", type=click.Choice(STATE_KINDS), required=True)
@click.option("--j", type=float, required=True)
@click.option("--alpha", type=float, default=0.0, show_default=True)
@click.option("--beta", type=float, default=0.0, show_default=True)
@click.option("--tau", type=float, default=0.0, show_default=True,
              help="Evolution time (sss only).")
@click.option("--chi", type=float, default=1.0, show_default=True)
@click.option("--gamma", type=float, default=0.0, show_default=True)
@_METHOD_OPTION
@_TOL_OPTION
@_OUT_OPTION
@_FORMAT_OPTION
@pass_settings
def state(settings, kind, j, alpha, beta, tau, chi, gamma, method, tol, out, fmt):
    """Construct a named state; write its JSON record and P(M) CSV."""
    try:
        cfg = _propagator(settings, method, tol)
        fmt = settings.get("format", fmt, "both")
        st = _build_state(kind, j, alpha, beta, tau, chi, gamma, cfg)
        prefix = f"state_{kind}_j{j:g}" + (f"_tau{tau:g}" if kind == "sss" else "")
        paths = _emit_state(_out_dir(settings, out), prefix, st, fmt)
    except (ValueError, PropagationError) as exc:
        _fail(exc)
    for path in paths:
        click.echo(str(path))


@main.command(name="qpd")
@click.option("--j", type=float, required=True)
@click.option("--kind", type=click.Choice(STATE_KINDS), default=None,
              help="State to analyze (default: sss at --tau).")
@click.option("--tau", type=float, default=None)
@click.option("--alpha", type=float, default=0.0)
@click.option("--beta", type=float, default=0.0)
@click.option("--chi", type=float, default=1.0)
@click.option("--gamma", type=float, default=0.0)
@click.option("--grid", default=None, help="Resolution as NPHIxNTHETA.")
@_METHOD_OPTION
@_TOL_OPTION
@_OUT_OPTION
@pass_settings
def qpd_cmd(settings, j, kind, tau, alpha, beta, chi, gamma, grid, method, tol, out):
    """Quasi-probability distribution of a state on the Bloch sphere."""
    try:
        cfg = _propagator(settings, method, tol)
        n_phi, n_theta = settings.get("grid", grid, (360, 180), _parse_grid)
        if kind is None and tau is None:
            raise ValueError("give --kind, or --tau for the squeezed state")
        if kind is None:
            kind = "sss"
        if kind == "sss" and tau is None:
            tau = 0.0
        st = _build_state(kind, j, alpha, beta, tau, chi, gamma, cfg)
        grid_result = qpd(st, n_phi=n_phi, n_theta=n_theta)
        out_path = _out_dir(settings, out)
        prefix = f"qpd_{kind}_j{j:g}" + (f"_tau{tau:g}" if kind == "sss" else "")
        _write_csv(out_path / f"{prefix}.csv", ("phi", "theta", "value"),
                   grid_result.csv_rows())
        _write_json(out_path / f"{prefix}.json", grid_result.to_json_dict())
    except (ValueError, PropagationError) as exc:
        _fail(exc)
    click.echo(str(out_path / f"{prefix}.csv"))
    click.echo(str(out_path / f"{prefix}.json"))


@main.command(name="evolve")
@click.option("--j", type=float, required=True)
@click.option("--tau", type=float, required=True)
@click.option("--chi", type=float, default=1.0, show_default=True)
@click.option("--gamma", type=float, default=0.0, show_default=True)
@_METHOD_OPTION
@_TOL_OPTION
@_OUT_OPTION
@_FORMAT_OPTION
@pass_settings
def evolve_cmd(settings, j, tau, chi, gamma, method, tol, out, fmt):
    """Evolve |J,J> under the twisting generator (no final rotation)."""
    try:
        cfg = _propagator(settings, method, tol)
        fmt = settings.get("format", fmt, "both")
        gen = tact_generator(j, chi=chi, gamma=gamma)
        st = evolve(basis_state(j, j), gen, tau, cfg)
        prefix = f"evolved_j{j:g}_tau{tau:g}"
        paths = _emit_state(_out_dir(settings, out), prefix, st, fmt)
    except (ValueError, PropagationError) as exc:
        _fail(exc)
    for path in paths:
        click.echo(str(path))


@main.command(name="scan")
@click.option("--j", type=float, required=True)
@click.option("--metric", type=click.Choice(list(METRICS)), required=True)
@click.option("--tau-min", type=float, default=None)
@click.option("--tau-max", type=float, default=None)
@click.option("--grid", type=int, default=None, help="Coarse grid size.")
@click.option("--refine-tol", type=float, default=None)
@_METHOD_OPTION
@_TOL_OPTION
@_OUT_OPTION
@pass_settings
def scan_cmd(settings, j, metric, tau_min, tau_max, grid, refine_tol,
             method, tol, out):
    """Locate the evolution time optimizing one metric."""
    try:
        cfg = _propagator(settings, method, tol)
        n_grid = settings.get("grid", grid, 512, int)
        base = ScanSpec.auto(j, metric, n_grid=n_grid)
        spec = ScanSpec(
            j=j, metric=metric,
            tau_min=tau_min if tau_min is not None else 0.0,
            tau_max=tau_max if tau_max is not None else base.tau_max,
            n_grid=n_grid,
            refine_tol=refine_tol if refine_tol is not None else base.refine_tol,
        )
        result = scan_tau(spec, cfg)
        out_path = _out_dir(settings, out)
        prefix = f"scan_{metric}_j{j:g}"
        _write_csv(out_path / f"{prefix}.csv",
                   ("j", "metric", "tau_star", "value_star", "grid_size", "tol"),
                   [(j, metric, result.tau_star, result.value_star,
                     spec.n_grid, spec.refine_tol)])
        _write_json(out_path / f"{prefix}.json", result.to_json_dict())
    except (ValueError, PropagationError) as exc:
        _fail(exc)
    click.echo(f"tau_star = {result.tau_star!r}")
    click.echo(f"value_star = {result.value_star!r}")
    click.echo(str(out_path / f"{prefix}.csv"))


def _read_pairs(path):
    """(J, value) rows of a two-column CSV file.

    Blank and '#' lines are skipped and the first other line may be a
    header; any other line that is not two numbers is an error naming
    path:line.
    """
    rows = []
    header_allowed = True
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values = [float(part) for part in line.split(",")]
        except ValueError:
            values = None
        is_header, header_allowed = values is None and header_allowed, False
        if is_header:
            continue
        if values is None or len(values) != 2:
            raise ValueError(f"{path}:{line_no}: expected 'J,value', got {raw!r}")
        if not all(map(math.isfinite, values)):
            raise ValueError(f"{path}:{line_no}: non-finite number in {raw!r}")
        rows.append(tuple(values))
    return rows


@main.command(name="fit")
@click.option("--family", type=click.Choice(["sq_power_offset", "shifted_power",
                                             "log_over_linear"]), required=True)
@click.option("--data", "data_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="CSV with two columns: J, value.")
@click.option("--init", default=None, help="Comma-separated initial parameters.")
@_OUT_OPTION
@pass_settings
def fit_cmd(settings, family, data_path, init, out):
    """Fit one scaling-law family to (J, value) pairs from a CSV file."""
    try:
        rows = _read_pairs(data_path)
        init_params = None
        if init is not None:
            init_params = [float(v) for v in init.split(",")]
        result = fit(family, rows, init=init_params)
        out_path = _out_dir(settings, out)
        _write_json(out_path / f"fit_{family}.json", result.to_json_dict())
    except (ValueError, FitError) as exc:
        _fail(exc)
    click.echo(json.dumps(result.to_json_dict(), indent=2))


@main.command(name="reproduce-paper")
@click.option("--j-list", default="5,10,20,50,100,200,400", show_default=True,
              help="Ascending integer J values to sweep.")
@click.option("--grid", type=int, default=None, help="Coarse grid size.")
@_METHOD_OPTION
@_TOL_OPTION
@_OUT_OPTION
@pass_settings
def reproduce_cmd(settings, j_list, grid, method, tol, out):
    """Run the full sweep-and-fit pipeline and compare against the
    published reference coefficients; exit nonzero if a check fails."""
    try:
        cfg = _propagator(settings, method, tol)
        n_grid = settings.get("grid", grid, 512, int)
        js = [float(part) for part in str(j_list).split(",") if part.strip()]
        report = run_reproduction(js, cfg=cfg, n_grid=n_grid)
        out_path = _out_dir(settings, out)
        _write_json(out_path / "report.json", report.to_json_dict())
        (out_path / "report.txt").write_text(report.to_text() + "\n")
        _write_csv(out_path / "sweep.csv",
                   ("j", "metric", "tau_star", "value_star", "grid_size",
                    "tol", "status"),
                   [tuple(row.to_csv_dict().values()) for row in report.sweep_rows])
        series_cols = ["j", "tau_fid_ewss", "value_fid_ewss", "tau_fid_tfs",
                       "value_fid_tfs", "tau_var_z_max", "value_var_z_max",
                       "tau_var_y_min", "value_var_y_min",
                       "dz_at_tau_ewss", "dz_at_tau_tfs"]
        _write_csv(out_path / "series.csv", series_cols,
                   [tuple(entry.get(col, math.nan) for col in series_cols)
                    for entry in report.series])
        _write_csv(out_path / "fit_comparison.csv",
                   ("key", "family", "fitted_params", "published_params",
                    "relative_deviation", "fitted_range", "stated_range", "status"),
                   [(row.key, row.family,
                     ";".join(_fmt(p) for p in row.fitted.model.params) if row.fitted else "",
                     ";".join(_fmt(p) for p in row.published),
                     ";".join(f"{k}={v:.6g}" for k, v in row.deviation.items()),
                     row.j_range, row.stated_range, row.status)
                    for row in report.fit_rows])
    except (ValueError, PropagationError) as exc:
        _fail(exc)
    click.echo(report.to_text())
    click.echo(str(out_path / "report.json"))
    sys.exit(0 if report.all_passed else 1)


if __name__ == "__main__":
    main()
