"""Golden outputs: every recorded command and session still gives the same bytes.

`golden/outputs.json` is the one list of CLI commands the project checks.
It holds, for each command, its argv, the input files it reads and the
SHA-256 of its stdout, its stderr and each file it writes, with its exit
code. The commands are the CLI edge cases and exit-2 cases, `simulate` on
the default scenario, the presets at their own cycle counts, `sweep` along
both axes on each preset and the benchmark's sweep and Bell-test argvs for
workload seeds 1-12. Each one is replayed in-process through
`memqkd.cli.run`. A new CLI edge case is added
here; CI's console-script step keeps only what an installed process alone
shows: the entry point, the pipe closes and the exit status.

In an argv and in every output, `{tmp}` stands for the run's temporary
directory. An input file's text is stored with bytes outside ASCII
hex-escaped (`\\xff`). Commands run at 80 columns, so usage lines wrap
alike in a terminal and out of one.

`golden/reference.json` holds reference-engine sessions, which no command
reaches: each one's call and the SHA-256 of its 256 tally cells and its
report's fields.

A change that moves an output on purpose runs `golden/regenerate.py` and
says which outputs moved and why.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shlex
from pathlib import Path
from unittest import mock

from memqkd.bsm import ChannelConfig, SequenceConfig
from memqkd.cli import run
from memqkd.qubits import NoiseParams
from memqkd.session import PartyConfig, simulate_session

GOLDEN = Path(__file__).parent / "golden" / "outputs.json"
REFERENCE = Path(__file__).parent / "golden" / "reference.json"
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
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}):
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


def replay_reference(call: dict) -> str:
    """SHA-256 of the 256 tally cells and the report of one reference-engine session."""
    seq = SequenceConfig(n_pi=call["n_pi"], n_sub=call["n_sub"])
    tally, report = simulate_session(
        seq,
        ChannelConfig.from_mean_photons(call["n_m"], seq.n_qubits),
        PartyConfig(mode=call["mode"], assignment=call["assignment"]),
        NoiseParams(**call["noise"]),
        call["cycles"],
        call["seed"],
        engine="reference",
    )
    cells = tally.counts.ravel().tolist() + tally.excluded.ravel().tolist()
    return hashlib.sha256(json.dumps([cells, dataclasses.asdict(report)]).encode()).hexdigest()


def test_reference_engine_tallies_unchanged():
    entries = json.loads(REFERENCE.read_text())
    moved = [entry["name"] for entry in entries if replay_reference(entry["call"]) != entry["digest"]]
    assert not moved, f"{len(moved)} of {len(entries)} tallies moved:\n" + "\n".join(moved)
