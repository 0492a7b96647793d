import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import memqkd

LAYERS = ["bsm", "cavity", "config", "qubits", "rates", "session"]
README = Path(__file__).resolve().parents[1] / "README.md"


def test_import_binds_only_the_layer_modules():
    # A fresh interpreter, so that no other test's imports are counted.
    env = dict(os.environ, PYTHONPATH=str(Path(memqkd.__file__).parents[1]))
    code = (
        "import sys, memqkd; "
        "print(sorted(m for m in sys.modules if m.startswith('memqkd.'))); "
        "print(sorted((n, type(v).__name__) for n, v in vars(memqkd).items()"
        " if not n.startswith('_')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    modules, names = proc.stdout.splitlines()
    assert modules == str([f"memqkd.{layer}" for layer in LAYERS])
    assert names == str([(layer, "module") for layer in LAYERS])


def test_readme_library_use_runs():
    section = README.read_text().split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    # The preset's own 1e9 cycles, drawn around the expected QBER.
    assert out.getvalue() == (
        "35155 coincidences, 17745 sifted, QBER 0.117, R/Rmax 3.42\n"
        "expected QBER 0.1153\n"
    )
