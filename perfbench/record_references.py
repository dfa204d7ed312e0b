"""Record the outputs that the benchmark's checks compare against.

    python3 perfbench/record_references.py SEED [SEED ...]

For each seed this runs the full-size ``trace-sweep`` and ``trace-audit`` jobs
once and stores, in ``references.json``, the sha256 of each sweep CSV and the
audit's optimum and policy costs. Entries of other seeds are kept. A seed
whose outputs fail any invariant check is refused. ``small-verify`` needs no
recording: its references are zero problems and the closed-form optima.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as W  # noqa: E402


def record(workload: str, seed: int, workdir: Path) -> dict:
    inputs = W.setup(workload, seed, workdir)
    output = W.job(workload, inputs)
    outcomes, _digest = W.check(workload, inputs, output)
    failed = [o for o in outcomes if not o.ok]
    if failed:
        raise SystemExit(f"{workload} seed {seed} fails its checks, not recorded: {failed[:3]}")
    if workload == "trace-sweep":
        return {rs: hashlib.sha256(path.read_bytes()).hexdigest() for rs, (_code, path) in output.items()}
    return {key: output[key] for key in ("opt",) + W.POLICIES}


def main(argv: list[str]) -> int:
    if not argv:
        raise SystemExit(__doc__)
    refs = json.loads(W.REFERENCES.read_text(encoding="utf-8")) if W.REFERENCES.exists() else {}
    results = W.HERE / "results"
    results.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=results) as tmp:
        for seed in map(int, argv):
            for workload in ("trace-sweep", "trace-audit"):
                refs.setdefault(workload, {})[str(seed)] = record(workload, seed, Path(tmp) / f"{workload}-{seed}")
                print(f"recorded {workload} seed {seed}", flush=True)
    W.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
