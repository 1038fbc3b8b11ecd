"""Rebuild `reference/<workload>.json` from replicate passes of the benchmark.

    python3 bench/make_reference.py [WORKLOAD ...]

Run from the root of a source checkout.  Each replicate is one untraced pass
of the workload at a seed of its own, far from any seed a benchmark run
derives from `--seed`.  Rebuild only when the program's outputs change on
purpose: a different set of files, columns or rows, or different values of a
deterministic quantity.  A change of random stream alone needs no rebuild.
"""

from __future__ import annotations

import argparse
import json
import shutil

import check
import run

REFERENCE_SEED = 10**12
REPLICATES = 30


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=sorted(run.WORKLOADS))
    args = parser.parse_args(argv)
    run.validate_inputs()
    (run.HERE / "reference").mkdir(exist_ok=True)
    for name in args.workloads:
        work_dir = run.WORK_DIR / f"reference-{name}"
        shutil.rmtree(work_dir, ignore_errors=True)
        dirs = []
        for r in range(REPLICATES):
            out = work_dir / f"replicate-{r}"
            result = run.run_pass(run.WORKLOADS[name], REFERENCE_SEED + r, out, "plain", None)
            if result["failures"]:
                raise SystemExit(f"{name}: replicate {r} failed: {result['failures']}")
            dirs.append(out)
            print(f"{name}: replicate {r} run_s={result['run_s']:.2f}", flush=True)
        reference = check.build_reference(dirs)
        path = run.HERE / "reference" / f"{name}.json"
        path.write_text(json.dumps(reference, separators=(",", ":")) + "\n")
        shutil.rmtree(work_dir)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
