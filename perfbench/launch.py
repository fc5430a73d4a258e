"""Run the shipped ``repro`` CLI with the benchmark's span wrappers on.

Usage (from the checkout root)::

    python3 perfbench/launch.py --spans-dir DIR -- serve --queues 13 ...

Installs :class:`spans.SpanRecorder` wrappers, calls ``repro.cli.main``
with the arguments after ``--``, and writes this process's spans (and
those of every router partition it forks) into ``DIR`` when it ends.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import use_checkout_sources  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans-dir" or argv[2] != "--":
        raise SystemExit("usage: launch.py --spans-dir DIR -- <repro args>")
    spans_dir, cli_args = argv[1], argv[3:]
    use_checkout_sources()
    import spans

    recorder = spans.SpanRecorder()
    recorder.install()
    recorder.install_partition_hook(spans_dir)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(spans_dir, role="main")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
