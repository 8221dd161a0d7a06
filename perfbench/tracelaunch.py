"""Traced fresh-process CLI call: ``python tracelaunch.py SPANS_JSON ARGV...``.

Imports the package the way ``python -m spherezeta.cli`` does, installs the
tracer, runs ``cli.main(ARGV)``, restores every binding and writes the
spans and work counts of this one call to SPANS_JSON.  The exit code is the
CLI's.  Import time is not traced here; ``run.py`` measures it separately.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tracing  # noqa: E402
from spherezeta import cli  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tr = tracing.Tracer()
    tr.install()
    tr.task = int(os.environ.get("PERFBENCH_TASK", "-1"))
    try:
        with tr.span("task"):
            rc = cli.main(argv)
    finally:
        tr.restore()
    with open(out_path, "w") as fh:
        json.dump({"spans": tr.spans, "work": dict(tr.work)}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
