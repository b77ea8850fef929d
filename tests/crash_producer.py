"""Helper child process for crash-replay tests.

Produces records with fsync durability and prints each payload to stdout
only after the broker acknowledged it, so every line the parent manages to
read is guaranteed durable. The parent kills this process at a random
moment; any torn tail frame must be truncated away on reopen.

Usage: python crash_producer.py <broker_root> <run_id>
"""

import sys
from pathlib import Path

# the parent's pytest ``pythonpath`` setting does not reach this child
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ideation_stream.broker import Broker
from ideation_stream.errors import TopicExists


def main() -> None:
    root, run_id = sys.argv[1], sys.argv[2]
    broker = Broker(root, durability="fsync")
    try:
        broker.create_topic("crash", partitions=2)
    except TopicExists:
        pass
    i = 0
    while True:
        payload = f"{run_id}-{i}".encode()
        broker.produce("crash", payload, key=payload)
        sys.stdout.write(payload.decode() + "\n")
        sys.stdout.flush()
        i += 1


if __name__ == "__main__":
    main()
