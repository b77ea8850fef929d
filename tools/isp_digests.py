"""Print the sha256 of every saved model, one JSON line per (kind, combo).

Trains each of the six model kinds on each of the four feature combos
with the ``train`` CLI on ``gen.labeled_posts(5, 300)`` (3 folds, seed 5,
``SOURCE_DATE_EPOCH=1700000000``) and prints the ``.isp`` sha256 with the
``--json`` payload minus its paths. RF trains 10 trees, and on the 2^18
hashed buckets of ``uni-tfidf`` samples 1% of the columns per tree.

Run it on two checkouts and diff the output to see which stored models a
change moves:

    python3 tools/isp_digests.py > digests.jsonl
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402
from ideation_stream import cli  # noqa: E402


def _hyper(kind: str, combo: str) -> list[str]:
    if kind != "rf":
        return []
    pairs = ["num_trees=10"] + (["feature_fraction=0.01"] if combo == "uni-tfidf" else [])
    return [arg for pair in pairs for arg in ("--hyper", pair)]


def main() -> int:
    os.environ["SOURCE_DATE_EPOCH"] = "1700000000"
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        data = work / "labeled.csv"
        gen.write_csv(data, gen.labeled_posts(5, 300))
        for kind in cli.MODEL_CHOICES:
            for combo in cli.COMBO_CHOICES:
                out = work / f"{kind}-{combo}.isp"
                argv = ["train", "--data", str(data), "--model", kind, "--combo", combo,
                        "--folds", "3", "--seed", "5", "--out", str(out), "--json",
                        *_hyper(kind, combo)]
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = cli.main(argv)
                if code != 0:
                    print(f"{kind} {combo}: train exited {code}", file=sys.stderr)
                    return code
                payload = json.loads(stdout.getvalue())
                del payload["model"], payload["manifest"]
                line = {"kind": kind, "combo": combo,
                        "sha256": hashlib.sha256(out.read_bytes()).hexdigest(),
                        "payload": payload}
                print(json.dumps(line, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
