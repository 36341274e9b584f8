"""Deterministic stand-in for model training, used by the nn-external workload.

Reads one JSON line {"learning_rate": ..., "dropout": ..., "units": [...]}
from stdin and writes {"fitness": ...}. The fitness is a cheap, smooth
function of the decoded architecture (lower is better), so every cost the
workload shows is the round trip itself. Standard library only; started
as `python -I -S evaluator.py`.
"""

import json
import math
import sys


def fitness(learning_rate: float, dropout: float, units: list) -> float:
    lr_term = abs(math.log10(learning_rate) + 3.0) if learning_rate > 0 else 4.0
    depth_term = abs(len(units) - 4)
    width_term = sum(abs(u - 150) for u in units) / 100.0
    return lr_term + 10.0 * abs(dropout - 0.2) + depth_term + width_term


def main() -> int:
    request = json.loads(sys.stdin.readline())
    value = fitness(request["learning_rate"], request["dropout"], request["units"])
    sys.stdout.write(json.dumps({"fitness": value}) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
