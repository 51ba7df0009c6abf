"""Regenerate the reference curves that bench/run.py checks sweeps against.

    python3 bench/make_reference.py --workload sweep_a

For each workload this writes `reference/<workload>.json` with the SHA-256
of the CSV for every seed in `DIGEST_SEEDS` and `HELD_OUT_SEED`, and the
full CSV for the config's default seed and the held-out seed.  References
are made once, from the commit that defined the benchmark; regenerating
them from a later commit would let a change of the curves pass unnoticed.
"""

from __future__ import annotations

import argparse
import json
import sys

import run

DIGEST_SEEDS = range(128)
# A seed outside the range the benchmark is tuned on, kept for checking a
# claimed gain on inputs not used while the change was written.
HELD_OUT_SEED = 7919


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    args = parser.parse_args(argv)
    run.load_fdmimo()
    from fdmimo import cli

    default_seed = cli.parse_config(run.WORKLOADS[args.workload][0]).seed
    digests = {}
    for seed in [*DIGEST_SEEDS, HELD_OUT_SEED]:
        text, _ = run.sweep(args.workload, seed)
        digests[str(seed)] = run.csv_digest(text)
        if seed in (default_seed, HELD_OUT_SEED):
            run.reference_path(args.workload, seed).write_text(text)
        print(f"{args.workload} seed {seed}", file=sys.stderr, flush=True)
    table = {"trials": run.WORKLOADS[args.workload][1], "sha256": digests}
    (run.REFERENCE / f"{args.workload}.json").write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
