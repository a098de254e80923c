"""Run the maslovkit CLI as `python -m maslovkit` would, timing its stages.

    python3 perfbench/launch.py REPORT TRACE [ARGV...]

stdout and the exit code are the CLI's own.  REPORT receives a JSON object
with `import_s` (importing maslovkit.cli) and `main_s` (time inside
maslovkit.cli.main); with TRACE = 1 it also holds the tracer totals and
spans of the call.  With no ARGV only the import is timed.
"""

import json
import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import maslovkit.cli  # noqa: E402

imported = time.perf_counter()


def main() -> int:
    report_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    report = {"import_s": imported - start, "main_s": 0.0, "code": 0}
    if argv:
        entry = maslovkit.cli.main
        tracer = None
        if trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            entry = tracer.span("cli.main", entry)
            tracer.active = True
        began = time.perf_counter()
        report["code"] = entry(argv)
        report["main_s"] = time.perf_counter() - began
        if tracer is not None:
            tracer.active = False
            report["trace"] = tracer.totals()
            report["spans"] = tracer.spans
    sys.stdout.flush()
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return report["code"]


if __name__ == "__main__":
    sys.exit(main())
