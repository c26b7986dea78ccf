"""Start-up loads only the modules a command runs.

Each case runs a fresh interpreter with ``src`` on the path, does one
thing and prints the ``meanlab`` submodules it loaded and whether mpmath
is loaded.
"""

import json
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent

_REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith(("meanlab.", "mpmath")))))
"""


def loaded_after(code: str) -> set[str]:
    """The meanlab submodules, and ``mpmath`` if loaded, after ``code``
    runs in a fresh interpreter."""
    prelude = (f"import sys; sys.path[:0] = [{str(_ROOT / 'src')!r}, "
               f"{str(_ROOT / 'bench')!r}]\n")
    # -B: importing bench/worker.py writes no bytecode under bench/
    out = subprocess.run([sys.executable, "-B", "-c",
                          prelude + code + _REPORT],
                         capture_output=True, text=True, check=True,
                         cwd=_ROOT)
    names = json.loads(out.stdout.splitlines()[-1])
    return {"mpmath" if n.startswith("mpmath") else n for n in names}


def test_importing_the_package_loads_no_submodule():
    assert loaded_after("import meanlab") == set()


def test_the_benchmark_catalogue_needs_no_grammar_audit_or_mpmath():
    loaded = loaded_after("import meanlab, worker\n"
                          "worker.catalogue(meanlab)")
    assert "meanlab.means" in loaded
    assert not loaded & {"mpmath", "meanlab.setexpr", "meanlab.axioms",
                         "meanlab.analysis"}


def test_eval_loads_neither_the_audit_nor_mpmath():
    loaded = loaded_after(
        "from meanlab import cli\n"
        "cli.main(['eval', '--mean', 'avg1', '--set', '[0,1] u {3}'])")
    assert "meanlab.setexpr" in loaded
    assert not loaded & {"mpmath", "meanlab.axioms", "meanlab.analysis"}


def test_an_exp_conjugate_loads_mpmath():
    loaded = loaded_after(
        "from meanlab import cli\n"
        "cli.main(['eval', '--mean', 'avg1', '--f', 'exp(2)', "
        "'--set', '[0,1]'])")
    assert "mpmath" in loaded
