"""Print sha256 digests of a checkout's benchmark runs, to compare two checkouts bit for bit.

For each workload of ``<checkout>/perfbench/workloads.py`` and each
seed, the checkout's own ``simulate`` runs the workload's
``library_runs`` with the audit on, and one line gives the sha256 over
every record's end time t, end state q, v, g, a, z, x, y, impulse P,
local velocities U_prev and U_next (the two states' u), active set,
penetration and energy report fields.  So every array a state carries
is covered, the gaps g that the next step's forecast reads included.
Every version of the package since states carry g has these fields, so
a change that adds a field still compares with its parent.  For the two
CLI workloads a second line gives the sha256 of the CLI's output files,
from ``workloads.Command``.  The checkout is only read: no bytecode is
written into it, and the CLI writes into a temporary directory.

Usage: python tools/record_digest.py <checkout> [--seeds 1,5] [--smoke]
Run it on two checkouts and compare the two outputs, e.g. with diff.
``--smoke`` runs the workloads' short smoke lengths.
"""

import argparse
import dataclasses
import hashlib
import importlib
import sys
import tempfile
from pathlib import Path

import numpy as np

STATE_FIELDS = ("q", "v", "g", "a", "z", "x", "y")
RECORD_FIELDS = ("P", "U_prev", "U_next")
CLI_WORKLOADS = ("sweep_ball", "bar200_ga")


def load_workloads(checkout: Path):
    """``<checkout>/perfbench/workloads.py``, importing the package from ``<checkout>/src``."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    workloads = importlib.import_module("workloads")
    package = Path(workloads.integrators.__file__).resolve().parents[1]
    if package != (checkout / "src").resolve():
        sys.exit(f"imported nscontact from {package}, not from {checkout / 'src'}")
    return workloads


def update(digest, records) -> None:
    for rec in records:
        end = rec.state_next
        arrays = [[end.t], *(getattr(end, name) for name in STATE_FIELDS),
                  *(getattr(rec, name) for name in RECORD_FIELDS), [rec.penetration],
                  dataclasses.astuple(rec.report)]
        for arr in arrays:
            digest.update(np.ascontiguousarray(arr, dtype=float).tobytes())
        digest.update(repr(rec.active_set).encode())


def digest_lines(workloads, seed: int, smoke: bool):
    for name in workloads.WORKLOADS:
        digest = hashlib.sha256()
        for model, state, h, spec, t_end in workloads.library_runs(name, seed, smoke):
            update(digest, workloads.integrators.simulate(model, state, h, spec, t_end))
        yield f"{name} seed={seed} records {digest.hexdigest()}"
        if name in CLI_WORKLOADS:
            with tempfile.TemporaryDirectory() as tmp:
                command = workloads.Command(name, seed, smoke, Path(tmp))
                command.run()
                result = command.finish()
            if not result.ok:
                sys.exit(f"{name} seed={seed}: the CLI failed ({result.detail})")
            yield f"{name} seed={seed} output {result.output_hash}"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--seeds", default="1,5",
                        help="comma-separated workload seeds (default 1,5)")
    parser.add_argument("--smoke", action="store_true",
                        help="run the workloads' smoke lengths")
    args = parser.parse_args(argv)
    workloads = load_workloads(args.checkout)
    for seed in (int(s) for s in args.seeds.split(",")):
        for line in digest_lines(workloads, seed, args.smoke):
            print(line, flush=True)


if __name__ == "__main__":
    main()
