"""One pass of a workload: runcons CLI invocations in turn, in a fresh interpreter.

    python3 bench/child.py RECORD MODE PLAN

MODE is `plain` (time only) or `trace` (also record spans of every layer).
PLAN is a JSON list of [output directory, runcons arguments] steps.  The
child stops at the first step that fails and writes RECORD as JSON: per step,
the CLI's exit code, the monotonic time at which its first scenario parse
returned and the time at which it returned; when traced, the span summary.
The parent takes the spawn and exit times and the resource usage.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import Tracer, clock  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[1] not in ("plain", "trace"):
        raise SystemExit("usage: child.py RECORD plain|trace PLAN")
    record_path, mode, plan = argv
    from runcons import cli, scenario

    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        tracer.install()
    step: dict = {}
    parse = scenario.parse

    def timed_parse(text):
        result = parse(text)
        step.setdefault("parsed_at", clock())
        return result

    scenario.parse = timed_parse
    record: dict = {"steps": []}
    exit_code = 0
    for out_dir, cli_args in json.loads(plan):
        step.clear()
        os.environ[cli.OUT_DIR_ENV] = out_dir
        exit_code = cli.main(cli_args)
        record["steps"].append({**step, "exit_code": exit_code, "returned_at": clock()})
        if exit_code != 0:
            break
    if tracer is not None:
        record["trace"] = tracer.summary()
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
