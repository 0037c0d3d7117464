"""Scoring-path benchmark: ``.bench`` text in, per-node scores out.

    python3 perfbench/run.py --workload score_large --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the benchmark uses that checkout's
``src/``.  Workloads (see ``BENCHMARK.json`` and ``README.md``):

* ``score_large`` — offline ``api.load_netlist`` → ``validate_netlist`` →
  ``api.score`` on ~100k- and ~200k-gate designs;
* ``serve_mixed`` — open-loop traffic against a ``repro serve`` subprocess
  through ``ServeClient``, then a saturation phase;
* ``opi`` — ``api.insert_observation_points`` on a ~1.5k-gate design.

With ``--trace 0`` the last line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  The line before it
is a detail record: every workload-specific figure, operation counts,
the layer map and the environment.  Exits 2 without a result when the
checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SRC, WORK  # noqa: E402

WORKLOADS = ("score_large", "serve_mixed", "opi")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "api.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(parents=True, exist_ok=True)

    import layers
    from common import environment

    if args.workload == "serve_mixed":
        from serve_mixed import serve_mixed as run
    else:
        import offline

        run = getattr(offline, args.workload)
    result = run(args.seed, args.seconds, bool(args.trace))

    correct = result["failed"] == 0 and not result["problems"]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "attempted": result["attempted"],
        "succeeded": result["attempted"] - result["failed"],
        "failed": result["failed"],
        "refused": result["refused"],
        "problems": result["problems"][:20],
        "end_to_end": result["metrics"],
        **result["details"],
        "environment": environment(),
    }
    if args.trace:
        metrics = layers.complete(result["per_layer"])
        detail["layer_map"] = layers.layer_map()
    else:
        metrics = result["metrics"]
    print(json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
