"""``import tactsim`` loads every submodule it exports and scipy.linalg, and
nothing the package does not use: any such module is import time in every run."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SUBMODULES = ("dynamics", "fitting", "observables", "operators", "reference", "reproduce",
              "scan", "states")
UNUSED = ("scipy.special", "scipy.optimize", "click")


def test_import_loads_no_unused_module():
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import tactsim; "
            "print(*sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, check=True)
    loaded = set(run.stdout.split())
    assert {f"tactsim.{name}" for name in SUBMODULES} | {"scipy.linalg"} <= loaded
    unused = sorted(m for m in loaded if any(m == u or m.startswith(u + ".") for u in UNUSED))
    assert not unused, f"import tactsim loads {unused}"
