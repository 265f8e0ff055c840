"""Command-line interface.

Subcommands: state, qpd, evolve, scan, fit, reproduce-paper.  Every
command writes its results as JSON and/or CSV files under --out; numeric
CSV output uses 17 significant digits so reports are diff-stable.  Every
JSON file comes from the one key table ``_JSON_KEYS`` and is strict JSON:
a non-finite number is written as null.  --out is resolved before any work.

Option precedence: command-line flags override the --config file, which
overrides built-in defaults; every command resolves each setting with the
one function ``_setting``, which reads the parsed config from the root
context (none when a subcommand is invoked on its own).  The config file
is flat ``key = value`` text; keys match option names (format, out,
qpd-grid and scan-grid for the two meanings of --grid), and an unknown
key, the old key grid, or a value that does not convert fails naming
path:line.  A number list (--j-list, --init) that does not convert or
holds a non-finite entry fails naming its option.  Any command's
ValueError or PropagationError ends as ``error: ...`` on stderr and exit
code 1 (``_Group``).
"""

import dataclasses
import json
import math
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from .dynamics import PropagationError, evolve, make_sss, tact_generator
from .fitting import FAMILY_NAMES, FitResult, fit
from .observables import QpdGrid, prob_distribution, qpd
from .reproduce import SERIES_COLUMNS, FitRow, ReproductionReport, run_reproduction
from .scan import METRICS, ScanResult, ScanSpec, SweepRow, scan_tau
from .states import (
    CoherentSpinParams,
    SpinState,
    basis_state,
    make_cat,
    make_css,
    make_ewss,
    make_twin_fock,
)

# state kind -> (the flags it reads, its factory from j and those flags' values)
_STATE_FACTORIES = {
    "css": (("alpha", "beta"),
            lambda j, alpha, beta: make_css(j, CoherentSpinParams(alpha=alpha, beta=beta))),
    "ewss": ((), make_ewss),
    "tfs": ((), make_twin_fock),
    "cat": ((), make_cat),
    "sss": (("tau", "chi", "gamma"), make_sss),
}
STATE_KINDS = tuple(_STATE_FACTORIES)
_FORMATS = ("json", "csv", "both")
# config key -> the values it accepts (None: any, converted where it is used)
_CONFIG_KEYS = {"format": _FORMATS, "out": None, "qpd-grid": None, "scan-grid": None}

# record type -> {JSON key: attribute name, or a function of the record}, in file
# order; a type with no entry (SpinState, ScanSpec, Check) writes all of its fields
_JSON_KEYS = {
    QpdGrid: {"j": "j", "n_phi": "n_phi", "n_theta": "n_theta", "phi": "phis",
              "theta": "thetas", "values": "values"},
    ScanResult: {key: key for key in ("spec", "grid_taus", "grid_values", "tau_star",
                                      "value_star")},  # not the state
    FitResult: {"family": lambda r: r.model.family,
                "params": lambda r: dict(zip(r.model.param_names, r.model.params)),
                "param_se": lambda r: dict(zip(r.model.param_names, r.param_se)),
                **{key: key for key in ("rss", "n_points", "iterations", "converged")}},
    SweepRow: {**{key: key for key in ("j", "metric", "tau_star", "value_star", "grid_size")},
               "tol": "refine_tol", "status": "status", "error": "error"},  # not the result
    FitRow: {"key": "key", "family": "family", "published_params": "published",
             "stated_range": "stated_range", "fitted_range": "j_range", "status": "status",
             "fit": "fitted",
             "relative_deviation": lambda r: r.deviation if r.fitted else None,
             "error": "error"},
    ReproductionReport: {"j_list": "j_list", "sweep": "sweep_rows", "series": "series",
                         "fits": "fit_rows", "checks": "checks", "notes": "notes",
                         "all_passed": "all_passed"},
}
# sweep.csv: the sweep row's keys but its error, which goes to report.json and
# report.txt; a scan CSV is one such row without its status
_SWEEP_COLUMNS = tuple(key for key in _JSON_KEYS[SweepRow] if key != "error")
_SCAN_COLUMNS = tuple(key for key in _SWEEP_COLUMNS if key != "status")


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


def _record(obj) -> dict:
    """{JSON key: raw value} of a record, per ``_JSON_KEYS``; a None value is left out."""
    keys = _JSON_KEYS.get(type(obj)) or {f.name: f.name for f in fields(obj)}
    values = {key: source(obj) if callable(source) else getattr(obj, source)
              for key, source in keys.items()}
    return {key: value for key, value in values.items() if value is not None}


def _jsonable(value):
    """value with records as dicts, arrays as nested lists (a complex entry as
    [re, im]) and a non-finite float as None."""
    if is_dataclass(value):
        value = _record(value)
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            value = np.stack([value.real, value.imag], axis=-1)
        return np.where(np.isfinite(value), value, None).tolist()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _json_text(obj) -> str:
    return json.dumps(_jsonable(obj), indent=2, allow_nan=False)


def _write_json(path: Path, obj):
    path.write_text(_json_text(obj) + "\n")


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
        if key == "grid":
            raise click.ClickException(f"{path}:{line_no}: key 'grid' is split in two: "
                                       "qpd-grid = NPHIxNTHETA for qpd, scan-grid = N for "
                                       "scan and reproduce-paper")
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


def _parse_floats(text):
    values = [float(part) for part in str(text).split(",")]
    if not all(map(math.isfinite, values)):
        raise ValueError("numbers must be finite")
    return values


def _setting(option, cli_value, default, convert=str, key=None):
    """One setting, converted: the flag --option, else the config file's key
    (option by default), else the built-in default."""
    key = key or option
    config = click.get_current_context().find_root().obj or {}
    if cli_value is not None:
        value, where, name = cli_value, f"--{option}", option
    elif key in config:
        (value, where), name = config[key], key
    else:
        return default
    try:
        return convert(value)
    except ValueError as exc:
        raise ValueError(f"{where}: bad {name} value {value!r}: {exc}") from None


_OUT_OPTION = click.option("--out", type=click.Path(file_okay=False), default=None)
_FORMAT_OPTION = click.option("--format", "fmt", type=click.Choice(_FORMATS), default=None)


class _Group(click.Group):
    """The one error boundary: an input or propagation error from any command
    prints ``error: ...`` to stderr and exits 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, PropagationError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)


@click.group(cls=_Group)
@click.option("--config", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Flat key=value settings file.")
@click.pass_context
def main(ctx, config):
    """Collective-spin squeezing toolkit."""
    ctx.obj = _load_config(config)


def _make_dir(out) -> Path:
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create the directory ({exc.strerror})") from None
    return path


def _build_state(kind, j, **flags) -> SpinState:
    """The state of one kind from the flags it reads; a flag given on the
    command line that the kind does not read fails naming it."""
    reads, factory = _STATE_FACTORIES[kind]
    source = click.get_current_context().get_parameter_source
    for flag in flags:
        if flag not in reads and source(flag) == ParameterSource.COMMANDLINE:
            users = " or ".join(k for k, (used, _) in _STATE_FACTORIES.items() if flag in used)
            raise ValueError(f"--{flag} is used only by --kind {users}")
    return factory(j, *(flags[flag] for flag in reads))


def _emit_state(out: Path, prefix: str, state: SpinState, fmt: str):
    paths = []
    if fmt in ("json", "both"):
        path = out / f"{prefix}.json"
        _write_json(path, state)
        paths.append(path)
    if fmt in ("csv", "both"):
        prob = prob_distribution(state)
        path = out / f"{prefix}_prob.csv"
        _write_csv(path, ("M", "P"),
                   [(float(m), float(p)) for m, p in zip(state.m_values, prob)])
        paths.append(path)
    return paths


@main.command()
@click.option("--kind", type=click.Choice(STATE_KINDS), required=True)
@click.option("--j", type=float, required=True)
@click.option("--alpha", type=float, default=0.0, show_default=True)
@click.option("--beta", type=float, default=0.0, show_default=True)
@click.option("--tau", type=float, default=0.0, show_default=True,
              help="Evolution time (sss only).")
@click.option("--chi", type=float, default=1.0, show_default=True)
@click.option("--gamma", type=float, default=0.0, show_default=True)
@_OUT_OPTION
@_FORMAT_OPTION
def state(kind, j, alpha, beta, tau, chi, gamma, out, fmt):
    """Construct a named state; write its JSON record and P(M) CSV."""
    fmt = _setting("format", fmt, "both")
    out_path = _setting("out", out, Path("."), _make_dir)
    st = _build_state(kind, j, alpha=alpha, beta=beta, tau=tau, chi=chi, gamma=gamma)
    prefix = f"state_{kind}_j{j:g}" + (f"_tau{tau:g}" if kind == "sss" else "")
    for path in _emit_state(out_path, prefix, st, fmt):
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
@_OUT_OPTION
def qpd_cmd(j, kind, tau, alpha, beta, chi, gamma, grid, out):
    """Quasi-probability distribution of a state on the Bloch sphere."""
    n_phi, n_theta = _setting("grid", grid, (360, 180), _parse_grid, key="qpd-grid")
    out_path = _setting("out", out, Path("."), _make_dir)
    if kind is None and tau is None:
        raise ValueError("give --kind, or --tau for the squeezed state")
    if kind is None:
        kind = "sss"
    if kind == "sss" and tau is None:
        tau = 0.0
    st = _build_state(kind, j, alpha=alpha, beta=beta, tau=tau, chi=chi, gamma=gamma)
    result = qpd(st, n_phi=n_phi, n_theta=n_theta)
    prefix = f"qpd_{kind}_j{j:g}" + (f"_tau{tau:g}" if kind == "sss" else "")
    # one row per grid node, phi-major
    _write_csv(out_path / f"{prefix}.csv", ("phi", "theta", "value"),
               zip(np.repeat(result.phis, n_theta).tolist(),
                   np.tile(result.thetas, n_phi).tolist(), result.values.ravel().tolist()))
    _write_json(out_path / f"{prefix}.json", result)
    click.echo(str(out_path / f"{prefix}.csv"))
    click.echo(str(out_path / f"{prefix}.json"))


@main.command(name="evolve")
@click.option("--j", type=float, required=True)
@click.option("--tau", type=float, required=True)
@click.option("--chi", type=float, default=1.0, show_default=True)
@click.option("--gamma", type=float, default=0.0, show_default=True)
@_OUT_OPTION
@_FORMAT_OPTION
def evolve_cmd(j, tau, chi, gamma, out, fmt):
    """Evolve |J,J> under the twisting generator (no final rotation)."""
    fmt = _setting("format", fmt, "both")
    out_path = _setting("out", out, Path("."), _make_dir)
    st = evolve(basis_state(j, j), tact_generator(j, chi=chi, gamma=gamma), tau)
    for path in _emit_state(out_path, f"evolved_j{j:g}_tau{tau:g}", st, fmt):
        click.echo(str(path))


@main.command(name="scan")
@click.option("--j", type=float, required=True)
@click.option("--metric", type=click.Choice(list(METRICS)), required=True)
@click.option("--tau-min", type=float, default=None)
@click.option("--tau-max", type=float, default=None)
@click.option("--grid", type=int, default=None, help="Coarse grid size.")
@click.option("--refine-tol", type=float, default=None)
@_OUT_OPTION
def scan_cmd(j, metric, tau_min, tau_max, grid, refine_tol, out):
    """Locate the evolution time optimizing one metric."""
    n_grid = _setting("grid", grid, 512, int, key="scan-grid")
    out_path = _setting("out", out, Path("."), _make_dir)
    given = {name: value for name, value in
             (("tau_min", tau_min), ("tau_max", tau_max), ("refine_tol", refine_tol))
             if value is not None}
    spec = dataclasses.replace(ScanSpec.auto(j, metric, n_grid=n_grid), **given)
    result = scan_tau(spec)
    prefix = f"scan_{metric}_j{j:g}"
    row = _record(SweepRow(j, metric, result.tau_star, result.value_star, spec.n_grid,
                           spec.refine_tol, status="ok"))
    _write_csv(out_path / f"{prefix}.csv", _SCAN_COLUMNS, [[row[c] for c in _SCAN_COLUMNS]])
    _write_json(out_path / f"{prefix}.json", result)
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
@click.option("--family", type=click.Choice(FAMILY_NAMES), required=True)
@click.option("--data", "data_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="CSV with two columns: J, value.")
@click.option("--init", default=None, help="Comma-separated initial parameters.")
@_OUT_OPTION
def fit_cmd(family, data_path, init, out):
    """Fit one scaling-law family to (J, value) pairs from a CSV file."""
    rows = _read_pairs(data_path)
    init_params = _setting("init", init, None, _parse_floats)
    out_path = _setting("out", out, Path("."), _make_dir)
    result = fit(family, rows, init=init_params)
    _write_json(out_path / f"fit_{family}.json", result)
    click.echo(_json_text(result))


@main.command(name="reproduce-paper")
@click.option("--j-list", default="5,10,20,50,100,200,400", show_default=True,
              help="Ascending integer J values to sweep.")
@click.option("--grid", type=int, default=None, help="Coarse grid size.")
@_OUT_OPTION
def reproduce_cmd(j_list, grid, out):
    """Run the full sweep-and-fit pipeline and compare against the
    published reference coefficients; exit nonzero if a check fails."""
    n_grid = _setting("grid", grid, 512, int, key="scan-grid")
    js = _setting("j-list", j_list, None, _parse_floats)
    out_path = _setting("out", out, Path("."), _make_dir)
    report = run_reproduction(js, n_grid=n_grid)
    _write_json(out_path / "report.json", report)
    (out_path / "report.txt").write_text(report.to_text() + "\n")
    _write_csv(out_path / "sweep.csv", _SWEEP_COLUMNS,
               [[_record(row)[c] for c in _SWEEP_COLUMNS] for row in report.sweep_rows])
    _write_csv(out_path / "series.csv", SERIES_COLUMNS,
               [[entry.get(col, math.nan) for col in SERIES_COLUMNS]
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
    click.echo(report.to_text())
    click.echo(str(out_path / "report.json"))
    sys.exit(0 if report.all_passed else 1)


if __name__ == "__main__":
    main()
