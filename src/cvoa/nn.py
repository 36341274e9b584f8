"""Variable-length discrete codification for neural-architecture search.

A genotype holds a learning-rate code, a dropout code and a variable number
of per-layer unit codes. Codes decode through fixed lookup tables:

    lr_code    0..5  -> 0, 0.1, 0.01, 0.001, 0.0001, 0.00001
    drop_code  0..8  -> 0, 0.10, 0.15, ..., 0.45
    layer code 0..11 -> 25 * (code + 1) units (25..300)

A genotype is a `NetGenotype` named tuple, hashed and compared in C.
Building one checks nothing: the engine builds only well-formed genotypes,
and `parse_net_text` and `NetCodec` check the types and ranges of those
that enter from outside.

Two codecs search this space, one per scoring mode, and every integer draw
is `params.randbelow`. `NetCodec(target)` scores a surrogate distance to a
hidden target genotype (desk-scale stand-in for model training).
`ExternalNetCodec(evaluator)` ships the decoded architecture to an external
evaluator process as line JSON; it is the one with the `fitness_all` hook.
"""

from __future__ import annotations

import json
import math
import os
import shlex
import subprocess
from random import Random
from typing import Iterator, NamedTuple

from .codec import EvaluationError
from .params import DistanceMode, Validated, is_integer, randbelow

LR_TABLE = (0.0, 0.1, 0.01, 0.001, 0.0001, 0.00001)
DROP_TABLE = (0.0, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45)
LAYER_CODE_MAX = 11
MIN_LAYERS = 2
MAX_LAYERS = 11
MISSING_LAYER_PENALTY = 12

# longest evaluator wait, in seconds: poll() takes whole milliseconds in a C int
MAX_TIMEOUT_S = (2**31 - 1) / 1000

# bias strength of target-seeking moves when a toward genotype is known
_E_GUIDE = 0.85
# highest code at each replicate_net position: LR, DROP, then each layer
_POSITION_MAX = (len(LR_TABLE) - 1, len(DROP_TABLE) - 1) + (LAYER_CODE_MAX,) * MAX_LAYERS


class NetGenotype(NamedTuple):
    lr_code: int
    drop_code: int
    layer_codes: tuple[int, ...]

    # named __post_init__ because perfbench/child.py wraps that attribute;
    # the rename goes with the next change to the benchmark
    def __post_init__(self) -> None:
        for name, code in (("lr_code", self.lr_code), ("drop_code", self.drop_code)):
            if not is_integer(code):
                raise ValueError(f"{name} must be an integer, got {code!r}")
        if not isinstance(self.layer_codes, tuple):
            raise ValueError(f"layer_codes must be a tuple, got {self.layer_codes!r}")
        if not 0 <= self.lr_code < len(LR_TABLE):
            raise ValueError(f"lr_code {self.lr_code} out of [0,{len(LR_TABLE) - 1}]")
        if not 0 <= self.drop_code < len(DROP_TABLE):
            raise ValueError(f"drop_code {self.drop_code} out of [0,{len(DROP_TABLE) - 1}]")
        if not MIN_LAYERS <= len(self.layer_codes) <= MAX_LAYERS:
            raise ValueError(
                f"layer count {len(self.layer_codes)} out of ({MIN_LAYERS - 1},{MAX_LAYERS}]"
            )
        for code in self.layer_codes:
            if not is_integer(code):
                raise ValueError(f"layer code must be an integer, got {code!r}")
            if not 0 <= code <= LAYER_CODE_MAX:
                raise ValueError(f"layer code {code} out of [0,{LAYER_CODE_MAX}]")

    def text(self) -> str:
        head = f"{{{self.lr_code},{self.drop_code},{len(self.layer_codes)}}}"
        body = "{" + ",".join(str(c) for c in self.layer_codes) + "}"
        return head + body


def parse_net_text(text: str) -> NetGenotype:
    """Parse the {lr,drop,L}{u1,...,uL} log form back into a genotype."""
    stripped = text.strip()
    if not (stripped.startswith("{") and stripped.endswith("}")):
        raise ValueError(f"malformed genotype text: {text!r}")
    try:
        head, body = stripped[1:-1].split("}{")
        lr, drop, count = (int(x) for x in head.split(","))
        codes = tuple(int(x) for x in body.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed genotype text: {text!r}") from exc
    if count != len(codes):
        raise ValueError(f"layer count {count} does not match {len(codes)} codes: {text!r}")
    genotype = NetGenotype(lr, drop, codes)
    genotype.__post_init__()
    return genotype


class ArchitectureSpec(NamedTuple):
    learning_rate: float
    dropout: float
    units_per_layer: tuple[int, ...]


def decode(g: NetGenotype) -> ArchitectureSpec:
    return ArchitectureSpec(
        learning_rate=LR_TABLE[g.lr_code],
        dropout=DROP_TABLE[g.drop_code],
        units_per_layer=tuple(25 * (c + 1) for c in g.layer_codes),
    )


def mutate_position(value: int, low: int, high: int, rng: Random) -> int:
    """Nudge value by -2, -1, +1 or +2 (quartiles of one draw), clamped."""
    p = rng.random()
    if p < 0.25:
        c = -2
    elif p < 0.5:
        c = -1
    elif p < 0.75:
        c = 1
    else:
        c = 2
    return max(low, min(high, value + c))


def resize_layers(g: NetGenotype, new_count: int, rng: Random) -> NetGenotype:
    """Truncate trailing layers or append fresh uniform codes to reach new_count."""
    if not MIN_LAYERS <= new_count <= MAX_LAYERS:
        raise ValueError(f"layer count {new_count} out of ({MIN_LAYERS - 1},{MAX_LAYERS}]")
    codes = g.layer_codes[:new_count]
    codes += tuple(randbelow(rng, LAYER_CODE_MAX + 1) for _ in range(new_count - len(codes)))
    return NetGenotype(g.lr_code, g.drop_code, codes)


def _step_toward(value: int, desired: int | None, low: int, high: int, rng: Random) -> int:
    """Step value up to 2 toward desired (one guide draw), else nudge it by
    mutate_position; with desired None there is no goal and no guide draw."""
    if desired is not None and rng.random() < _E_GUIDE and value != desired:
        return value + max(-2, min(2, desired - value))
    return mutate_position(value, low, high, rng)


def replicate_net(
    parent: NetGenotype,
    mode: DistanceMode,
    traveler_rate: int,
    rng: Random,
    *,
    toward: NetGenotype | None = None,
) -> NetGenotype:
    """Mutated child of parent.

    The layer count itself mutates with probability 1/3 (resizing the
    genotype). Then m non-count positions are picked without replacement
    from {LR, DROP, LAYER 1..L} and each is nudged by mutate_position:
    m = 1 for ordinary moves, m = traveler_rate for traveler moves, and a
    negative traveler_rate draws m uniformly in [0, 2+L]. With `toward`
    set, position picks and nudges prefer closing the gap to that genotype.
    """
    if rng.random() < 1 / 3:
        desired = None if toward is None else len(toward.layer_codes)
        count = _step_toward(len(parent.layer_codes), desired, MIN_LAYERS, MAX_LAYERS, rng)
        parent = resize_layers(parent, count, rng)
    values = [parent.lr_code, parent.drop_code, *parent.layer_codes]
    positions = len(values)
    if mode is DistanceMode.ORDINARY:
        m = 1
    elif traveler_rate >= 0:
        m = traveler_rate
    else:
        m = randbelow(rng, positions + 1)
    m = min(m, positions)

    # the toward genotype's codes by position, front-aligned with values
    codes = () if toward is None else (toward.lr_code, toward.drop_code, *toward.layer_codes)
    goal = dict(enumerate(codes))
    differing = [pos for pos, value in enumerate(values) if goal.get(pos, value) != value]
    chosen: set[int] = set()
    for _ in range(m):
        pool = [p for p in differing if p not in chosen]
        if pool and rng.random() < _E_GUIDE:
            pos = pool[randbelow(rng, len(pool))]
        else:
            free = [p for p in range(positions) if p not in chosen]
            pos = free[randbelow(rng, len(free))]
        chosen.add(pos)

    for pos in sorted(chosen):
        values[pos] = _step_toward(values[pos], goal.get(pos), 0, _POSITION_MAX[pos], rng)
    lr, drop, *layers = values
    return NetGenotype(lr, drop, tuple(layers))


class ExternalEvaluator:
    """Subprocess fitness bridge speaking one JSON line each way.

    The decoded architecture goes to the evaluator's stdin as
    {"learning_rate": ..., "dropout": ..., "units": [...]} and the reply
    must be {"fitness": <finite JSON number in float range>}, not a string
    or bool. `command` is a non-empty list of strings, or a string that
    shlex splits into one, and no word may hold a NUL; any other command
    is a ValueError at construction. `timeout` is None (wait forever) or a
    number of seconds above 0 and at most MAX_TIMEOUT_S (an int or a float,
    not a bool); anything else is a ValueError at construction too. The
    evaluator's output is read as UTF-8 with undecodable bytes replaced, so
    such a byte can spoil a reply but not escape it. Each fitness() call
    is one evaluator process; the evaluator keeps no per-genotype state,
    because the engine's ledger already scores each genotype once per
    pandemic.
    `invocations` counts the round trips that fitness_all() started, the
    one way the engine reaches an evaluator. One caller at a time.
    """

    def __init__(self, command: str | list[str], timeout: float | None = 60.0) -> None:
        words = shlex.split(command) if isinstance(command, str) else command
        if not (isinstance(words, list) and words and all(isinstance(w, str) for w in words)):
            raise ValueError(f"command must be a non-empty list of strings or a string, got {command!r}")
        if any("\0" in w for w in words):
            raise ValueError(f"command words must not contain a NUL, got {command!r}")
        seconds = is_integer(timeout) or isinstance(timeout, float)
        if timeout is not None and not (seconds and 0 < timeout <= MAX_TIMEOUT_S):
            raise ValueError(
                f"timeout must be None or a number of seconds in (0, {MAX_TIMEOUT_S}], got {timeout!r}"
            )
        self.command = list(words)
        self.timeout = timeout
        self.invocations = 0

    def fitness_all(self, genotypes: list[NetGenotype]) -> Iterator[float]:
        """Scores of the genotypes in order, from at most one evaluator
        process per CPU this process may run on at a time. Every process
        has finished on return; iterating the result raises the first
        failure in order. A failed round trip starts no round trip queued
        behind it, and an interrupt in the wait (Ctrl-C) starts no queued
        round trip; the running ones finish."""
        # loaded on first use: a surrogate run never needs the thread pool
        from concurrent.futures import ThreadPoolExecutor

        # the CPUs this process may run on, not the machine's; Linux alone has sched_getaffinity
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count() or 1
        # the pool hands out indices in order, so every index not taken yet
        # lies above every index taken: no round trip past `last` starts
        last = len(genotypes) - 1
        started: list[int] = []

        def round_trip(index: int) -> float | None:
            # a skipped index yields None, which map never reaches: it raises at the failure first
            nonlocal last
            if index <= last:
                started.append(index)
                try:
                    return self.fitness(genotypes[index])
                except BaseException:
                    last = min(last, index)  # before this worker takes its next index
                    raise

        # the pool starts no more threads than there are round trips
        pool = ThreadPoolExecutor(max_workers=cpus)
        try:
            scores = pool.map(round_trip, range(len(genotypes)))
            pool.shutdown()
        finally:
            # an interrupt in the wait starts no queued round trip
            last = -1
            pool.shutdown(wait=False)
            self.invocations += len(started)
        return scores

    def fitness(self, genotype: NetGenotype) -> float:
        """One round trip; a crash, timeout or bad reply is an EvaluationError."""
        spec = decode(genotype)
        request = json.dumps(
            {
                "learning_rate": spec.learning_rate,
                "dropout": spec.dropout,
                "units": list(spec.units_per_layer),
            }
        )
        try:
            proc = subprocess.run(
                self.command,
                input=request + "\n",
                capture_output=True,
                encoding="utf-8",
                errors="replace",
                timeout=self.timeout,
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise EvaluationError(f"evaluator failed to run: {exc}") from exc
        if proc.returncode != 0:
            raise EvaluationError(
                f"evaluator exited {proc.returncode}: {proc.stderr.strip()[:500]}"
            )
        line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        try:
            value = json.loads(line)["fitness"]
            if type(value) not in (int, float):  # float() would take a string or a bool
                raise TypeError(f"fitness {value!r} is not a number")
            value = float(value)  # an int past the float range overflows
        except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
            raise EvaluationError(f"malformed evaluator reply {line[:500]!r}") from exc
        if not math.isfinite(value):
            raise EvaluationError(f"evaluator returned non-finite fitness {value!r}")
        return value


class _NetSpace:
    """The genotype space that both nn codecs search. Its one brood
    generator steers toward the codec's `target`, unless that is None."""

    __slots__ = ()

    @staticmethod
    def generate_patient_zero(rng: Random) -> NetGenotype:
        layer_count = MIN_LAYERS + randbelow(rng, MAX_LAYERS - MIN_LAYERS + 1)
        return NetGenotype(
            lr_code=randbelow(rng, len(LR_TABLE)),
            drop_code=randbelow(rng, len(DROP_TABLE)),
            layer_codes=tuple(randbelow(rng, LAYER_CODE_MAX + 1) for _ in range(layer_count)),
        )

    @staticmethod
    def distance(a: NetGenotype, b: NetGenotype) -> int:
        """Element-wise mismatch count after front alignment, for PZ spreading."""
        d = int(a.lr_code != b.lr_code) + int(a.drop_code != b.drop_code)
        for x, y in zip(a.layer_codes, b.layer_codes):
            d += int(x != y)
        return d + abs(len(a.layer_codes) - len(b.layer_codes))

    @staticmethod
    def search_space_size() -> int:
        layer_shapes = sum(
            (LAYER_CODE_MAX + 1) ** count for count in range(MIN_LAYERS, MAX_LAYERS + 1)
        )
        return len(LR_TABLE) * len(DROP_TABLE) * layer_shapes

    def replicate(
        self, parent: NetGenotype, mode: DistanceMode, count: int, traveler_rate: int, rng: Random
    ) -> Iterator[NetGenotype]:
        for _ in range(count):
            yield replicate_net(parent, mode, traveler_rate, rng, toward=self.target)

    def text(self, genotype: NetGenotype) -> str:
        return genotype.text()


class _NetCodecFields(NamedTuple):
    target: NetGenotype


class NetCodec(Validated, _NetSpace, _NetCodecFields):
    """Codec over NetGenotype scored by surrogate distance to `target`.

    The target must be an in-range NetGenotype. The codec knows its
    optimum (0, at the target) and steers replication toward the target.
    """

    __slots__ = ()

    def __post_init__(self) -> None:
        if not isinstance(self.target, NetGenotype):
            raise ValueError(f"target must be a NetGenotype, got {self.target!r}")
        self.target.__post_init__()

    def fitness(self, genotype: NetGenotype) -> int:
        """Weighted mismatch distance to the target; 0 iff they are equal."""
        target = self.target
        total = abs(genotype.lr_code - target.lr_code)
        total += abs(genotype.drop_code - target.drop_code)
        count_gap = abs(len(genotype.layer_codes) - len(target.layer_codes))
        total += 2 * count_gap
        for a, b in zip(genotype.layer_codes, target.layer_codes):
            total += abs(a - b)
        total += MISSING_LAYER_PENALTY * count_gap
        return total

    def optimum_fitness(self) -> int:
        return 0


class _ExternalNetCodecFields(NamedTuple):
    evaluator: ExternalEvaluator


class ExternalNetCodec(Validated, _NetSpace, _ExternalNetCodecFields):
    """Codec over NetGenotype scored by `evaluator`, batch by batch.

    It knows no optimum and no target, so replication stays unguided.
    """

    __slots__ = ()
    target = None

    def __post_init__(self) -> None:
        if not isinstance(self.evaluator, ExternalEvaluator):
            raise ValueError(f"evaluator must be an ExternalEvaluator, got {self.evaluator!r}")

    def fitness(self, genotype: NetGenotype) -> float:
        return self.evaluator.fitness(genotype)

    def fitness_all(self, genotypes: list[NetGenotype]) -> Iterator[float]:
        return self.evaluator.fitness_all(genotypes)

    def optimum_fitness(self) -> None:
        return None
