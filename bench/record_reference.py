"""Record the reference outputs that the benchmark's correctness gates compare to.

    python3 bench/record_reference.py

Writes ``bench/reference.json``: for each workload, the outputs of its
canonical input and of the first inputs the default seed draws, keyed
by input digest. The file was recorded once, on the commit that added
the benchmark; re-record it only for a change that is meant to alter
the program's output, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import DEFAULT_SEED, OUT, make_workload  # noqa: E402
from workloads import REFERENCE, Cli  # noqa: E402

DEFAULT_SEED_INPUTS = {"sweep": 2, "sessions": 200, "cli": Cli.traced_pass_ops}


def main() -> int:
    reference = {}
    workdir = OUT / "tmp-record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, count in DEFAULT_SEED_INPUTS.items():
            w = make_workload(name, DEFAULT_SEED, workdir)
            inputs = [w.canonical_input()] + [w.next_input() for _ in range(count)]
            entries = {}
            for key, payload in inputs:
                out = w.run(payload)
                problems = w.check((key, payload), out, {})
                if problems:
                    raise SystemExit(f"{name}: output fails its checks: {problems}")
                entries[key] = w.summary(out)
            reference[name] = entries
            print(f"{name}: {len(entries)} reference outputs")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=0) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
