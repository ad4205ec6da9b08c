"""Run one ``qentropy`` command in this fresh process and record timings.

    python3 launch.py RECORD TRACE -- QENTROPY-ARGS...

Does what the ``qentropy`` console script does (import ``qentropy.cli``
and call ``main``) and writes RECORD, a JSON object with the moment the
import ended (``imported_at``, on the system-wide ``CLOCK_MONOTONIC`` so
the parent can subtract the moment it started this process), the
command time after import (``run_s``), the path the package was
imported from and, when TRACE is 1, the spans of :mod:`spans` and the
time the tracer adds to one call (``span_overhead_s``), timed after the
command ends.  The exit code is passed on unchanged.
"""

import json
import sys
import time


def main(argv: list[str]) -> int:
    record_path, trace, args = argv[1], argv[2] == "1", argv[4:]
    import qentropy.cli
    imported_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    code = 0
    t2 = time.perf_counter()
    try:
        qentropy.cli.main(args=args, prog_name="qentropy")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        t3 = time.perf_counter()
        record = {"imported_at": imported_at, "run_s": t3 - t2,
                  "package": qentropy.__file__}
        if tracer is not None:
            record.update(tracer.dump())
            record["span_overhead_s"] = spans.per_call_overhead()
        with open(record_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
