"""``repro serve`` with the benchmark's span recorder installed.

    python3 perfbench/traced_serve.py SPANS_OUT [repro serve arguments...]

Used only by the traced run of ``serve_mixed``: it patches the layer
boundaries (``tracer.Recorder.install``), runs the stock ``serve``
command in this process and writes the spans to ``SPANS_OUT`` when the
server has drained and exits.
"""

from __future__ import annotations

import atexit
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Recorder  # noqa: E402


def main() -> int:
    out = Path(sys.argv[1])
    recorder = Recorder()
    recorder.install()
    atexit.register(recorder.dump, out)
    from repro.cli import main as cli_main

    return cli_main(["serve", *sys.argv[2:]])


if __name__ == "__main__":
    sys.exit(main())
