"""Run one nlsblow CLI command in this process and write a timing report.

    python3 child.py <plain|trace> <report.json> <nlsblow arguments...>

``plain`` wraps only the set-up boundaries, so the command runs at full
speed; ``trace`` records a span at every point of ``tracing.TRACE_POINTS``.
The report holds monotonic timestamps (comparable with the parent's), the
exit code and, when traced, the spans.  ``src`` must be on PYTHONPATH.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402


def main(argv) -> int:
    mode, report_path, cli_args = argv[0], argv[1], argv[2:]
    from nlsblow import cli

    t_import = time.monotonic()
    tracer = tracing.Tracer(time.monotonic)
    tracing.instrument(tracer, tracing.TRACE_POINTS if mode == "trace"
                       else tracing.SETUP_POINTS)
    rc = 1
    try:
        rc = cli.main(cli_args)
    finally:
        t_end = time.monotonic()
        report = {
            "mode": mode,
            "rc": rc,
            "t_start": T_START,
            "t_import": t_import,
            "t_setup": tracing.setup_end(tracer.spans, t_import),
            "t_end": t_end,
            "spans": tracer.spans if mode == "trace" else [],
        }
        with open(report_path, "w") as fh:
            json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
