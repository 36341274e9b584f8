"""In-process A/B timing of two cvoa source trees on the guided sweep grid.

    python3 tools/ab_pandemics.py PARENT_SRC CHANGE_SRC [--rounds N]
        [--bits 10,20,30,40,50] [--seeds 1-30] [--count]

PARENT_SRC and CHANGE_SRC are directories that hold a `cvoa` package (a
checkout's `src`). Each tree loads under its own package name in this one
process. A round runs every pandemic of the grid (each bit length × each
seed: 5 strains, `max_hamming_spread`, target 15, stop at fitness 0) on
both trees, pandemic by pandemic, alternating which tree goes first, and
times each pandemic with `time.process_time`. Each round prints the ratio
parent CPU / change CPU (above 1: the change is faster); the end prints
the median ratio and the rounds the change won. With --count, one more
pass of the grid per tree, after the timed rounds, counts the bytecodes it
runs, for a per-evaluation figure that does not move with the machine's
load.

The trees must agree on every result: exit status 1 if their hashes of
the whole results (merged and per-strain histories, terminations, bests)
or their evaluation counts differ, 2 on a usage error, 0 otherwise.
The script gates nothing; it measures what a benchmark run on a loaded
machine cannot resolve.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

NAMES = ("parent", "change")


def load_tree(src: Path, name: str):
    """The `cvoa` package under src, imported as the package `name`."""
    package = src / "cvoa"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # the package's relative imports resolve through this entry
    spec.loader.exec_module(module)
    return module


def int_list(text: str) -> list[int]:
    """Comma-separated integers and inclusive ranges: "10,20" or "1-30"."""
    values: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        values.extend(range(int(low), int(high or low) + 1))
    return values


def pandemic(cvoa, bits: int, seed: int):
    config = cvoa.MultiStrainConfig.uniform(
        cvoa.EpidemicParameters(seed=seed, strains=5), cvoa.PzStrategy.MAX_HAMMING_SPREAD
    )
    return cvoa.run_pandemic(config, cvoa.BinaryCodec(bits=bits, target=15), stop_fitness=0)


def count_bytecodes(tree, grid) -> tuple[int, int]:
    """Bytecodes run (opcode events under sys.settrace) and evaluations
    made by one pass of the grid."""
    executed = 0

    def trace(frame, event, arg):
        nonlocal executed
        if event == "call":
            frame.f_trace_opcodes = True
        elif event == "opcode":
            executed += 1
        return trace

    evaluations = 0
    sys.settrace(trace)
    try:
        for bits, seed in grid:
            evaluations += pandemic(tree, bits, seed).evaluations_total
    finally:
        sys.settrace(None)
    return executed, evaluations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="source directory holding the parent's cvoa")
    parser.add_argument("change", type=Path, help="source directory holding the change's cvoa")
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--bits", type=int_list, default=int_list("10,20,30,40,50"))
    parser.add_argument("--seeds", type=int_list, default=int_list("1-30"))
    parser.add_argument(
        "--count",
        action="store_true",
        help="also count each tree's bytecodes per evaluation over one more pass; "
        "C-level work (set and dict operations, getrandbits) is not counted",
    )
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error(f"--rounds must be at least 1, got {args.rounds}")
    for src in (args.parent, args.change):
        if not (src / "cvoa" / "__init__.py").is_file():
            parser.error(f"no cvoa package under {src}")
    trees = [load_tree(src, f"cvoa_ab_{name}") for src, name in zip((args.parent, args.change), NAMES)]
    grid = [(bits, seed) for bits in args.bits for seed in args.seeds]
    hashes = [hashlib.sha256() for _ in trees]
    evaluations = [0, 0]
    ratios: list[float] = []
    for round_ in range(args.rounds):
        cpu = [0.0, 0.0]
        for i, (bits, seed) in enumerate(grid):
            for side in (0, 1) if (round_ + i) % 2 == 0 else (1, 0):
                started = time.process_time()
                result = pandemic(trees[side], bits, seed)
                cpu[side] += time.process_time() - started
                hashes[side].update(repr(result).encode())
                evaluations[side] += result.evaluations_total
        ratios.append(cpu[0] / cpu[1])
        print(
            f"round {round_ + 1}: parent {cpu[0]:.3f} s, change {cpu[1]:.3f} s, "
            f"ratio {ratios[-1]:.4f}",
            flush=True,
        )
    wins = sum(ratio > 1 for ratio in ratios)
    print(f"median ratio {statistics.median(ratios):.4f}; change faster in {wins} of {len(ratios)}")
    digests = [h.hexdigest()[:16] for h in hashes]
    for name, digest, count in zip(NAMES, digests, evaluations):
        print(f"{name}: history hash {digest}, {count // args.rounds} evaluations per round")
    if args.count:
        for name, tree in zip(NAMES, trees):
            executed, made = count_bytecodes(tree, grid)
            print(f"{name}: {executed / made:.1f} bytecodes per evaluation ({executed} over {made})")
    if digests[0] != digests[1] or evaluations[0] != evaluations[1]:
        print("error: the trees' results differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
