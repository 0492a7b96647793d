"""Golden outputs: every recorded command still prints and writes the same bytes.

`golden/outputs.json` holds, for each command, its argv, the input files it
reads and the SHA-256 of its stdout, its stderr and each file it writes,
with its exit code. The commands are those of the CI console-script step
(less the two `| true` pipe checks), the presets at their own cycle counts
and the benchmark's sweep and Bell-test argvs for workload seeds 1-12.
Each one is replayed in-process through `memqkd.cli.run`.

In an argv and in every output, `{tmp}` stands for the run's temporary
directory. An input file's text is stored with bytes outside ASCII
hex-escaped (`\\xff`).

A change that moves an output on purpose runs `golden/regenerate.py` and
says which outputs moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shlex
from pathlib import Path

from memqkd.cli import run

GOLDEN = Path(__file__).parent / "golden" / "outputs.json"
TMP = "{tmp}"
RESULT_KEYS = ("exit", "stdout", "stderr", "written")


def decode_file(text: str) -> bytes:
    return text.encode("ascii").decode("unicode_escape").encode("latin-1")


def encode_file(data: bytes) -> str:
    return data.decode("ascii", "backslashreplace")


def _digest(data: bytes, tmp: Path) -> str:
    return hashlib.sha256(data.replace(str(tmp).encode(), TMP.encode())).hexdigest()


def replay(entry: dict, tmp: Path) -> dict:
    """Run one recorded command in the empty directory `tmp`; its results."""
    tmp.mkdir()
    for name, text in entry["files"].items():
        (tmp / name).write_bytes(decode_file(text))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run([arg.replace(TMP, str(tmp)) for arg in entry["argv"]])
    written = sorted(p for p in tmp.iterdir() if p.name not in entry["files"])
    return {
        "exit": code,
        "stdout": _digest(stdout.getvalue().encode(), tmp),
        "stderr": _digest(stderr.getvalue().encode(), tmp),
        "written": {p.name: _digest(p.read_bytes(), tmp) for p in written},
    }


def test_golden_outputs_unchanged(tmp_path):
    entries = json.loads(GOLDEN.read_text())
    moved = []
    for index, entry in enumerate(entries):
        got = replay(entry, tmp_path / str(index))
        keys = [key for key in RESULT_KEYS if got[key] != entry[key]]
        if keys:
            moved.append(f"{entry['name']}: {', '.join(keys)} of "
                         f"`memqkd {shlex.join(entry['argv'])}`")
    assert not moved, f"{len(moved)} of {len(entries)} outputs moved:\n" + "\n".join(moved)
