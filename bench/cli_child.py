"""Traced stand-in for ``python -m hpiso.cli``, used by traced cli_session runs.

Usage: ``python bench/cli_child.py STATS_PATH SPAWN_TIME SUBCOMMAND [ARGS...]``.
``SPAWN_TIME`` is the parent's ``time.monotonic()`` just before it started
this process.  Writes the interpreter, import and ``main`` times plus the
span statistics to ``STATS_PATH`` and exits with ``main``'s code.
"""

import sys
import time

t_start = time.monotonic()

import hpiso.cli  # noqa: E402  (the import is what is being timed)

t_imported = time.monotonic()

import json  # noqa: E402

from spans import Tracer  # noqa: E402

tracer = Tracer().install()
t_main = time.monotonic()
code = hpiso.cli.main(sys.argv[3:])
t_end = time.monotonic()
tracer.end_op(0)
tracer.flush()
sys.stdout.flush()
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump(
        {
            "interpreter_ms": (t_start - float(sys.argv[2])) * 1e3,
            "import_ms": (t_imported - t_start) * 1e3,
            "main_ms": (t_end - t_main) * 1e3,
            "stats": tracer.stats.to_json(),
        },
        fh,
    )
sys.exit(code)
