"""Print the command-line surface, one sorted JSON line per option.

Walks the ``ideation-stream`` argument parser and each of its subcommands
and prints, for every (subcommand path, option): the option strings, dest,
default, choices, required, nargs, action class name and help text. Lines
are sorted, so the order options are declared in (or a move into a shared
parent parser) does not show; an added, removed or changed option does.

The package comes from ``PYTHONPATH``, so that one copy of this script
can check another checkout's CLI; point it at each checkout's ``src`` and
diff the output to see whether a change moves the surface:

    PYTHONPATH=src python3 tools/cli_surface.py > cli-surface.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys

from ideation_stream import cli


def _walk(parser: argparse.ArgumentParser, path: list[str]):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _walk(child, [*path, name])
            continue
        yield {"command": " ".join(path), "option_strings": action.option_strings,
               "dest": action.dest, "default": action.default, "choices": action.choices,
               "required": action.required, "nargs": action.nargs,
               "action": type(action).__name__, "help": action.help}


def main() -> int:
    print(f"cli_surface: cli from {cli.__file__}", file=sys.stderr)
    lines = [json.dumps(option, sort_keys=True, default=repr)
             for option in _walk(cli.build_parser(), [])]
    print("\n".join(sorted(lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
