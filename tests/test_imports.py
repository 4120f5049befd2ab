"""Each command imports only what it runs.

The package and the pure-Python commands (asymptotic, fit-qber) load
neither numpy nor scipy; the Monte-Carlo oracle loads numpy but not
scipy; a finite key length loads scipy.special. Every case runs in a
fresh isolated interpreter, since a module once imported stays in
sys.modules for the rest of the process.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
WATCHED = ("numpy", "scipy", "scipy.special")

TINY_OPTIMIZER = "[optimizer]\ngrid_resolution = 6\nrefinement_rounds = 1\n"
TINY_ORACLE = ("[oracle]\nn_pulses = 10000\nchernoff_trials = 1000\nsampling_trials = 10\n"
               "losses_db = 0\n")


def _main(argv: str) -> str:
    return f"from bb84rate.cli import main\nassert main({argv.split()!r}) == 0"


def loaded_after(code: str, cwd: Path) -> dict[str, bool]:
    """Which WATCHED modules are in sys.modules after running code in a fresh interpreter."""
    script = (f"import json, sys\nsys.path.insert(0, {str(SRC_DIR)!r})\n{code}\n"
              f"print(json.dumps({{name: name in sys.modules for name in {WATCHED!r}}}))")
    proc = subprocess.run([sys.executable, "-I", "-c", script], cwd=cwd, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


NEITHER = {"numpy": False, "scipy": False}


@pytest.mark.parametrize("code, expected", [
    pytest.param("import bb84rate", NEITHER, id="import-package"),
    pytest.param("import bb84rate.cli", NEITHER, id="import-cli"),
    pytest.param(_main("asymptotic --config tiny.ini --out akr.csv"), NEITHER, id="asymptotic"),
    pytest.param(_main("fit-qber --data qber.csv --out fit.json"), NEITHER, id="fit-qber"),
    pytest.param(_main("oracle --config oracle.ini --out oracle.json"),
                 {"numpy": True, "scipy": False}, id="oracle"),
    pytest.param(_main("finite --config tiny.ini --out finite.csv"),
                 {"scipy.special": True}, id="finite"),
])
def test_command_loads_only_what_it_runs(tmp_path, code, expected):
    (tmp_path / "tiny.ini").write_text(
        TINY_OPTIMIZER + "[asymptotic]\ndistances_km = 0,100\n", encoding="utf-8")
    (tmp_path / "oracle.ini").write_text(TINY_ORACLE, encoding="utf-8")
    (tmp_path / "qber.csv").write_text("distance_km,qber\n0,0.004\n100,0.006\n",
                                       encoding="utf-8")
    loaded = loaded_after(code, tmp_path)
    assert {name: loaded[name] for name in expected} == expected
