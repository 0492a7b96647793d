"""Rewrite the digests of outputs.json from the current code.

    PYTHONPATH=src python tests/golden/regenerate.py

Each entry's name, argv and input files are kept; its exit code and
digests are replaced by what the command gives now. To add a command,
append an entry with its name, argv and files and run this. A change
that moves a recorded output on purpose runs this and says in its notes
which outputs moved and why.
"""

from __future__ import annotations

import json
import sys
import tempfile
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import GOLDEN, decode_file, encode_file, replay  # noqa: E402


def main() -> None:
    # As in the tier-1 tests: a RuntimeWarning is an error.
    warnings.simplefilter("error", RuntimeWarning)
    entries = json.loads(GOLDEN.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        for index, entry in enumerate(entries):
            for text in entry["files"].values():
                if encode_file(decode_file(text)) != text:
                    raise SystemExit(f"{entry['name']}: input file text does not round-trip")
            entry.update(replay(entry, Path(tmp) / str(index)))
    # One line per key, so a diff names the entries and streams that moved.
    GOLDEN.write_text("[\n" + ",\n".join(
        " {" + ",\n  ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in entry.items()) + "}"
        for entry in entries
    ) + "\n]\n")
    print(f"wrote {len(entries)} entries to {GOLDEN}")


if __name__ == "__main__":
    main()
