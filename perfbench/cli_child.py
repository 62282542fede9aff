"""One traced ``dyadic`` CLI call: install the per-layer wrappers, then run it.

Usage: ``python perfbench/cli_child.py SPANS_OUT ARG...`` with ``src`` on
``PYTHONPATH`` and ``PERFBENCH_SPAWN_TIME`` set to the parent's
``time.time()`` at spawn.  The spans, counters and the start-up plus import
time go to SPANS_OUT as JSON; the exit code is the command's.
"""

import json
import os
import sys
import time

import tracing


def main() -> int:
    out_path, args = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    import click
    import dyadic.cli

    import_s = time.time() - float(os.environ["PERFBENCH_SPAWN_TIME"])
    tracer.install()
    code = 0
    idx = tracer.begin(tracing.CLI_MAIN)
    try:
        dyadic.cli.main.main(args=args, prog_name="dyadic", standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        code = exc.exit_code
    finally:
        tracer.end(idx)
        with open(out_path, "w") as fh:
            json.dump({"import_s": import_s, **tracer.export()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
