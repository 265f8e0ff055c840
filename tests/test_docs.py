"""The README's "File formats" section against the files the CLI writes and
the tables they are written from, so the documented columns cannot drift;
and the private names the package's docstrings and comments, and the
README, cite against the package itself."""

import importlib
import json
import pkgutil
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

import tactsim
from tactsim import cli
from tactsim.cli import main
from tactsim.fitting import FAMILY_NAMES
from tactsim.reproduce import SERIES_COLUMNS
from tactsim.scan import SweepRow

README = Path(__file__).resolve().parents[1] / "README.md"


def _file_formats():
    """{file label: documented columns} and the documented fit families."""
    section = README.read_text().split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]
    columns = {name: cols.split(",") for name, cols in
               re.findall(r"^\* \*\*([^*]+)\*\*: (?:header|keys) `([^`]+)`", section, re.M)}
    families = re.search(r"The `family` is one of\s+([^.]+)\.", section).group(1)
    return columns, re.findall(r"`(\w+)`", families)


DOCUMENTED, DOCUMENTED_FAMILIES = _file_formats()


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """{file label: the header (or top-level keys) of the file the CLI wrote}."""
    out = tmp_path_factory.mktemp("formats")
    data = out / "fit_data.csv"
    data.write_text("".join(f"{j},{0.4 * (j + 1.0)}\n" for j in range(5, 50, 5)))
    runner = CliRunner()
    for args in (["state", "--kind", "ewss", "--j", "1"],
                 ["qpd", "--j", "1", "--kind", "ewss", "--grid", "4x3"],
                 ["scan", "--j", "2", "--metric", "fid_tfs", "--grid", "32"],
                 ["fit", "--family", "shifted_power", "--data", str(data)],
                 ["reproduce-paper", "--j-list", "2,3,4", "--grid", "32"]):
        runner.invoke(main, args + ["--out", str(out)], catch_exceptions=False)
    files = {"probability CSV": "state_ewss_j1_prob.csv", "QPD CSV": "qpd_ewss_j1.csv",
             "scan CSV": "scan_fid_tfs_j2.csv", "sweep.csv": "sweep.csv",
             "series.csv": "series.csv", "fit_comparison.csv": "fit_comparison.csv"}
    headers = {label: (out / name).read_text().splitlines()[0].split(",")
               for label, name in files.items()}
    records = {"state JSON": "state_ewss_j1.json", "QPD JSON": "qpd_ewss_j1.json",
               "scan JSON": "scan_fid_tfs_j2.json", "fit JSON": "fit_shifted_power.json",
               "report.json": "report.json"}
    headers.update({label: list(json.loads((out / name).read_text()))
                    for label, name in records.items()})
    return headers


def test_every_written_file_is_documented(written):
    assert set(DOCUMENTED) == set(written)


@pytest.mark.parametrize("label", sorted(DOCUMENTED))
def test_documented_columns_match_the_written_file(label, written):
    assert DOCUMENTED[label] == written[label]


def test_series_columns_are_the_one_table():
    assert DOCUMENTED["series.csv"] == list(SERIES_COLUMNS)


_OK_ROW = SweepRow(j=1.0, metric="fid_ewss", tau_star=0.0, value_star=0.0,
                   grid_size=8, refine_tol=0.0, status="ok")


def test_sweep_columns_come_from_the_sweep_row():
    assert DOCUMENTED["sweep.csv"] == list(cli._record(_OK_ROW)) == list(cli._SWEEP_COLUMNS)


def test_scan_columns_are_the_sweep_columns_without_status():
    assert DOCUMENTED["scan CSV"] + ["status"] == DOCUMENTED["sweep.csv"]
    assert DOCUMENTED["scan CSV"] == [key for key in cli._record(_OK_ROW) if key != "status"]
    assert DOCUMENTED["scan CSV"] == list(cli._SCAN_COLUMNS)


def test_documented_families():
    assert DOCUMENTED_FAMILIES == list(FAMILY_NAMES)
    fit_family = next(p for p in main.commands["fit"].params if p.name == "family")
    assert list(fit_family.type.choices) == list(FAMILY_NAMES)


def _cited(path, pattern):
    return [(f"{path.name}:{line_no}", name)
            for line_no, line in enumerate(path.read_text().splitlines(), 1)
            for name in re.findall(pattern, line)]


def test_cited_private_names_exist():
    # double backticks mark names only in docstrings and comments, never in code;
    # README.md cites them in single backticks
    modules = [importlib.import_module(f"tactsim.{info.name}")
               for info in pkgutil.iter_modules(tactsim.__path__)]
    cited = [cite for path in sorted(Path(tactsim.__file__).parent.glob("*.py"))
             for cite in _cited(path, r"``(_\w+)``")]
    cited += _cited(README, r"(?<!`)`(_\w+)`(?!`)")
    dangling = [f"{where}: {name}" for where, name in cited
                if not any(hasattr(module, name) for module in modules)]
    assert dangling == []
