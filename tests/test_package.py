import ast
import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import memqkd

LAYERS = ["bsm", "cavity", "config", "qubits", "rates", "session"]
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
# Public definitions that no code outside the tests reads yet, and why each stays.
CAVITY = "a device figure that the acceptance suite checks, until memqkd.cavity goes"
UNREAD = {
    "serialize_config": "README's Scenario files section documents it; a run manifest will write it",
    "cooperativity": CAVITY,
    "total_heralding_efficiency": CAVITY,
}


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


def test_every_public_definition_is_read_outside_the_tests():
    # No test-only exports: each public function, class or method of the
    # package is named in the package, the benchmark or a README example.
    sources = [path.read_text() for path in (ROOT / "src" / "memqkd").rglob("*.py")]
    readers = sources + [path.read_text() for path in (ROOT / "perfbench").glob("*.py")]
    readers += re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for text in readers for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.Name, ast.Attribute))}
    defined = {node.name for text in sources for node in ast.walk(ast.parse(text))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined = {name for name in defined if not name.startswith("_")}
    assert sorted(defined - read - UNREAD.keys()) == []
    assert UNREAD.keys() <= defined - read, "an allowed entry is read now: drop it"
