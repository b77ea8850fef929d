"""Print the sha256 of every file the broker writes, one JSON line each.

Builds a small log with fixed timestamps in a temporary directory: one
topic of 3 partitions with a 512-byte segment size, so partitions roll,
holding unkeyed (round-robin), keyed and empty-keyed records of several
sizes, then one group commit. Prints the sha256 of each segment and group
file, by its path under the broker root.

The package comes from ``PYTHONPATH``, so that one copy of this script
can check another checkout's broker; point it at each checkout's ``src``
and diff the output to see whether a change moves the on-disk bytes:

    PYTHONPATH=src python3 tools/log_digests.py > log-digests.jsonl
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from ideation_stream.broker import Broker

TIMESTAMP_MS = 1_700_000_000_000


def main() -> int:
    print(f"log_digests: broker from {sys.modules[Broker.__module__].__file__}",
          file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "log"
        with Broker(root, segment_bytes=512) as broker:
            broker.create_topic("t", partitions=3)
            for i in range(60):
                key = (None, f"user-{i % 7}".encode(), b"")[i % 3]
                value = f"post {i} ".encode() * (1 + i % 9)
                broker.produce("t", value, key=key, timestamp_ms=TIMESTAMP_MS + i)
            broker.commit("g", "t", {p: end // 2 for p, end in enumerate(broker.end_offsets("t"))})
        files = sorted([*root.glob("topics/*/*/*.log"), *root.glob("groups/*.json")])
        if not any(f.stem != f"{0:020d}" for f in files if f.suffix == ".log"):
            print("log_digests: no segment rolled", file=sys.stderr)
            return 1
        for path in files:
            print(json.dumps({"file": path.relative_to(root).as_posix(),
                              "sha256": hashlib.sha256(path.read_bytes()).hexdigest()},
                             sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
