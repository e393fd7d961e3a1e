"""Launcher for the ``serve`` workload's server child.

Usage (from the checkout root, with ``src`` and the root on PYTHONPATH)::

    python3 perfbench/serve_child.py [--trace SPANS.jsonl] -- serve --port 0 ...

Everything after ``--`` goes to ``repro.cli.main`` unchanged.  With
``--trace`` the span recorder is installed before the service starts, and
the spans are written when ``repro serve`` returns after SIGINT.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    split = argv.index("--")
    options, cli_args = argv[:split], argv[split + 1 :]
    trace = options[options.index("--trace") + 1] if "--trace" in options else None

    import repro.cli

    recorder = None
    if trace:
        from perfbench.spans import Recorder, install

        recorder = Recorder()
        install(recorder)
    code = repro.cli.main(cli_args)
    if recorder is not None:
        recorder.dump(trace)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
