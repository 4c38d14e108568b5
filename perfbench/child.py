"""Run one timeflip CLI operation in a fresh interpreter, as the `timeflip`
entry point does, and record when cli.main was entered and left.

usage: python3 child.py SIDECAR OP_ID TRACE -- CLI-ARGS...

The times are CLOCK_MONOTONIC readings, which the parent compares with its
own reading taken just before it started this process.  With TRACE=1 the
span tracer is installed between the import and the call, and its spans go
into the SIDECAR JSON file as well.  Nothing else is imported before cli.main
runs, so the untraced set-up time is the interpreter plus `import
timeflip.cli`.
"""

import sys
import time


def main() -> int:
    sidecar, op_id, trace, sep = sys.argv[1:5]
    if sep != "--":
        raise SystemExit("usage: child.py SIDECAR OP_ID TRACE -- CLI-ARGS...")
    cli_args = sys.argv[5:]

    from timeflip import cli

    tracer = None
    if trace == "1":
        import spans

        tracer = spans.Tracer(op_id)
        spans.install(tracer)
    entry = time.clock_gettime(time.CLOCK_MONOTONIC)
    frame = tracer.open("cli.main") if tracer else None
    try:
        status = cli.main(cli_args)
    except SystemExit as exc:  # argparse rejects the arguments
        status = exc.code if isinstance(exc.code, int) else 2
    finally:
        if tracer:
            tracer.close(frame)
        leave = time.clock_gettime(time.CLOCK_MONOTONIC)

    import json

    record = {"op_id": op_id, "entry": entry, "exit": leave, "status": status,
              "cli_file": cli.__file__}
    if tracer:
        record["trace"] = tracer.dump()
    with open(sidecar, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
