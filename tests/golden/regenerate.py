"""Rewrite the digests of outputs.json and reference.json from the current code.

    PYTHONPATH=src python tests/golden/regenerate.py

Each entry's name, argv and input files (for a reference-engine session,
its name and call) are kept; its exit code and digests are replaced by
what the code gives now. For each file it prints the name of each entry
whose exit code or digests changed, then their count. To add a command
or a session, append an entry with everything but its results and run
this. A change that moves a recorded output on purpose runs this and says
in its notes which outputs moved and why.
"""

from __future__ import annotations

import json
import sys
import tempfile
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import (  # noqa: E402
    GOLDEN,
    REFERENCE,
    RESULT_KEYS,
    decode_file,
    encode_file,
    replay,
    replay_reference,
)


def write(path: Path, entries: list[dict], moved: list[str]) -> None:
    # One line per key, so a diff names the entries and streams that moved.
    path.write_text("[\n" + ",\n".join(
        " {" + ",\n  ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in entry.items()) + "}"
        for entry in entries
    ) + "\n]\n")
    for name in moved:
        print(f"moved: {name}")
    print(f"wrote {len(entries)} entries to {path}, {len(moved)} moved")


def main() -> None:
    # As in the tier-1 tests: a RuntimeWarning is an error.
    warnings.simplefilter("error", RuntimeWarning)
    entries, moved = json.loads(GOLDEN.read_text()), []
    with tempfile.TemporaryDirectory() as tmp:
        for index, entry in enumerate(entries):
            for text in entry["files"].values():
                if encode_file(decode_file(text)) != text:
                    raise SystemExit(f"{entry['name']}: input file text does not round-trip")
            got = replay(entry, Path(tmp) / str(index))
            if any(entry.get(key) != got[key] for key in RESULT_KEYS):
                moved.append(entry["name"])
            entry.update(got)
    write(GOLDEN, entries, moved)
    sessions, moved = json.loads(REFERENCE.read_text()), []
    for entry in sessions:
        digest = replay_reference(entry["call"])
        if entry.get("digest") != digest:
            moved.append(entry["name"])
        entry["digest"] = digest
    write(REFERENCE, sessions, moved)


if __name__ == "__main__":
    main()
