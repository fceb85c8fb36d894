"""Run one pgroupcert CLI command in this fresh process with the layer tracer installed.

usage: python3 perfbench/child.py SPANS_OUT OP_ID CLI_ARGS...

Times the fresh-process ``import pgroupcert.cli``, runs the command as the
console script would, and writes the spans (rooted at one "cli.main" span),
the counts and the import time to SPANS_OUT as JSON.  Exits with the
command's exit status.
"""

import json
import sys
import time

_start = time.perf_counter()
import pgroupcert.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _start

import layers  # noqa: E402
import spans  # noqa: E402


def main() -> int:
    out_path, op_id, args = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = spans.Tracer()
    tracer.op_id = op_id
    layers.install(tracer)
    status = 0
    begin = time.perf_counter()
    try:
        pgroupcert.cli.main.main(args=args, prog_name="pgroupcert")
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        root = tracer.add("cli.main", begin, time.perf_counter())
        rows = [
            (name, tag, start, end, root if parent == spans.NO_PARENT and i != root else parent, op)
            for i, (name, tag, start, end, parent, op) in enumerate(tracer.rows())
        ]
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"import_s": IMPORT_S, "spans": rows, "counts": dict(tracer.counts)}, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
