"""Self-test of the benchmark's checks.

    python3 bench/selftest.py

For each workload and seeds 1, 2 and 3 it runs one round, asks that every clean output
pass every check, that only the ``tiny`` slices of ``kernel_rows`` fail, and
then corrupts each clean output in the way each check is meant to catch and
asks that the check reject it.  Exits 1 on the first broken expectation.
"""

from __future__ import annotations

import sys
import tempfile
from types import SimpleNamespace

import checks
import run


def selftest(workload_name: str, seed: int) -> list[str]:
    errors = []
    args = SimpleNamespace(workload=workload_name, seed=seed)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR, prefix=f"selftest-{workload_name}-") as workdir:
        _, workload = run.setup(args, workdir)
        digests = []
        for kind, params in workload.ops:
            digest = workload.digest(kind, params, workload.run_op(kind, params))
            workload.cleanup(kind, params)
            if digest["finite"] != (kind != "tiny"):
                errors.append(f"{kind} operation gave finite={digest['finite']}")
            if digest["finite"]:
                digests.append((kind, params, digest))
    for kind, params, digest in digests:
        errors.extend(f"{kind}: clean output rejected: {p}" for p in checks.check_operation(workload_name, kind, params, digest))
    for name, (check, corrupt) in checks.CHECKS[workload_name].items():
        rejected = 0
        for kind, params, digest in digests:
            if kind not in getattr(check, "kinds", (kind,)) or check(kind, params, digest) is not None:
                continue  # already reported above
            try:
                bad = corrupt(kind, params, digest)
            except (KeyError, IndexError):
                continue  # nothing of this kind to corrupt in this output
            if check(kind, params, bad) is None:
                errors.append(f"check {name} accepted a corrupted {kind} output")
            else:
                rejected += 1
        if rejected == 0:
            errors.append(f"check {name} rejected no corrupted output")
    return errors


def main() -> int:
    run.OUT_DIR.mkdir(exist_ok=True)
    failures = 0
    for name in run.WORKLOADS:
        for seed in (1, 2, 3):
            errors = selftest(name, seed)
            failures += len(errors)
            for error in errors:
                print(f"FAIL {name} seed={seed}: {error}")
            print(f"{'ok  ' if not errors else 'FAIL'} {name} seed={seed}: {len(checks.CHECKS[name])} checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
