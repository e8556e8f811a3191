"""Regenerate perfbench/expected.json, the frozen result of every pool entry.

    python3 perfbench/freeze.py

Run it only when a change is meant to alter results; a change that claims
only a speed-up must pass against the file as it stands.
"""

import json
import os
import shutil
import sys
import tempfile

import run


def freeze(wl) -> dict:
    workdir = tempfile.mkdtemp(prefix="freeze-", dir=run.OUT)
    try:
        state = wl.setup(wl.make_inputs(), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    frozen = {wl.key(op): wl.record(op, wl.run(state, op)) for op in wl.pool()}
    problems = [p for op in wl.pool() for p in wl.verify(op, frozen[wl.key(op)], frozen)]
    if problems:
        raise SystemExit(f"{wl.name}: refusing to freeze, outputs break invariants:\n"
                         + "\n".join(problems[:20]))
    return frozen


def main() -> int:
    run.import_package()
    import workloads

    os.makedirs(run.OUT, exist_ok=True)
    expected = {}
    for name, cls in workloads.WORKLOADS.items():
        expected[name] = freeze(cls())
        print(f"{name}: {len(expected[name])} frozen results", file=sys.stderr)
    with open(run.EXPECTED, "w") as f:
        json.dump(expected, f, indent=0, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
