"""``import tactsim`` loads every submodule it exports and nothing the package
does not use, scipy included: any such module is import time in every run.
Nor does a run import a numpy submodule late, inside the work it times.  And
every name a package module imports is used there, and every field a package
dataclass declares is read, so that no deletion leaves a dead import or dead
data behind."""

import ast
import subprocess
import sys
from pathlib import Path

from test_bench_sites import _traced_sites

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SUBMODULES = ("dynamics", "fitting", "observables", "operators", "reference", "reproduce",
              "scan", "states")
UNUSED = ("scipy", "click")


def _modules_loaded(code):
    run = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); "
                          + code], capture_output=True, text=True, timeout=120, check=True)
    return set(run.stdout.split())


def test_import_loads_no_unused_module():
    loaded = _modules_loaded("import tactsim; print(*sys.modules)")
    assert {f"tactsim.{name}" for name in SUBMODULES} <= loaded
    unused = sorted(m for m in loaded if any(m == u or m.startswith(u + ".") for u in UNUSED))
    assert not unused, f"import tactsim loads {unused}"


def test_desk_run_and_state_request_load_no_module_late():
    # numpy loads numpy.ma (np.unique, in a fit: three J at least) and numpy.fft on first
    # use; the QPDs take the real half route, the fold (J = 400 on 360 phi) and the
    # complex route of a state with no mirror symmetry
    late = _modules_loaded(
        "import tactsim, tactsim.cli; from tactsim import dynamics, observables, reproduce; "
        "from tactsim.states import CoherentSpinParams, make_css; "
        "before = set(sys.modules); reproduce.run_reproduction([5, 10, 20]); "
        "observables.qpd(dynamics.make_sss(20, 0.05), 36, 18); "
        "observables.qpd(dynamics.make_sss(400, 0.005), 360, 180); "
        "observables.qpd(make_css(20, CoherentSpinParams(alpha=0.4, beta=1.0)), 36, 19); "
        "print(*(set(sys.modules) - before))")
    assert not sorted(m for m in late if m.startswith(("numpy.", "scipy")))


def _unused_imports(path):
    """The imports of one module whose bound name the module never reads, each as
    written: the dotted module of ``import a.b``, else the name bound."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imports = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imports.update((a.asname or a.name.split(".")[0], a.asname or a.name)
                           for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imports.update((a.asname or a.name, a.asname or a.name) for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {written for bound, written in imports.items() if bound not in used}


def test_every_imported_name_is_used():
    # kept on purpose: the package's re-exports (__init__.py), the numpy.fft preload,
    # and the attributes the bench tracer wraps where no code of the module reads them
    kept = {("observables", "numpy.fft")} | {(module, attr) for module, attr, _ in _traced_sites()}
    unused = sorted(f"tactsim.{path.stem}: {name}"
                    for path in (SRC / "tactsim").glob("*.py") if path.name != "__init__.py"
                    for name in _unused_imports(path) if (path.stem, name) not in kept)
    assert not unused, f"imported but never used: {unused}"


def _private_definitions(tree):
    """The private names a module binds at its top level: functions, classes and
    constants, not dunders or imports."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def test_every_private_definition_is_read():
    # a private helper or constant that no code of the package reads is left behind
    # by a deletion; tests and the bench tracer do not count as readers
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in (SRC / "tactsim").glob("*.py")}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}
    unread = sorted(f"tactsim.{stem}: {name}" for stem, tree in trees.items()
                    for name in _private_definitions(tree) if name not in read)
    assert not unread, f"defined but never read in the package: {unread}"


def _dataclass_fields(tree):
    """(class, field) of every field declared on a dataclass of one module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                ast.unparse(getattr(d, "func", d)).split(".")[-1] == "dataclass"
                for d in node.decorator_list):
            yield from ((node.name, item.target.id) for item in node.body
                        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                        and not ast.unparse(item.annotation).startswith("ClassVar"))


def test_every_dataclass_field_is_read():
    # a field counts as read where src, tests or perfbench load it as an attribute or
    # name it in a string (the cli._JSON_KEYS form); one nothing reads is dead data
    trees = [ast.parse(path.read_text(), filename=str(path))
             for folder in ("src", "tests", "perfbench") for path in (ROOT / folder).rglob("*.py")]
    read = {node.attr if isinstance(node, ast.Attribute) else node.value
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Constant) and isinstance(node.value, str)}
    unread = sorted(f"{cls}.{name}" for path in (SRC / "tactsim").glob("*.py")
                    for cls, name in _dataclass_fields(ast.parse(path.read_text()))
                    if name not in read)
    assert not unread, f"dataclass fields that nothing reads: {unread}"
