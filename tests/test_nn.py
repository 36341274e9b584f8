"""Variable-length network codec: decoding, mutation, surrogate, evaluator bridge."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvoa.nn
from conftest import REPLIES, REQUEST, evaluator_script, replying
from cvoa import (
    DistanceMode,
    EvaluationError,
    ExternalEvaluator,
    ExternalNetCodec,
    NetCodec,
    NetGenotype,
    SharedLedger,
    mutate_position,
    parse_net_text,
    replicate_net,
    resize_layers,
)
from cvoa.nn import (
    DROP_TABLE,
    LR_TABLE,
    MAX_LAYERS,
    MIN_LAYERS,
    decode,
)

SRC = Path(cvoa.nn.__file__).resolve().parent.parent

# scores 8 genotypes on 2 CPUs through the evaluator command in argv[1:],
# and interrupts itself 0.3 s into the batch
INTERRUPTED_BATCH = f"""
import os, signal, sys, threading
sys.path.insert(0, {str(SRC)!r})
from cvoa import ExternalEvaluator, NetGenotype

os.sched_getaffinity = lambda pid: {{0, 1}}
os.cpu_count = lambda: 2
evaluator = ExternalEvaluator(sys.argv[1:])
threading.Timer(0.3, os.kill, (os.getpid(), signal.SIGINT)).start()
try:
    evaluator.fitness_all([NetGenotype(0, 0, (c, 0)) for c in range(8)])
except KeyboardInterrupt:
    print("interrupted")
"""


class ForcedP(Random):
    """Random stub whose random() replays a fixed sequence of P draws."""

    def __init__(self, *values: float):
        super().__init__(0)
        self._values = list(values)

    def random(self) -> float:
        return self._values.pop(0)


net_genotypes = st.builds(
    NetGenotype,
    lr_code=st.integers(0, 5),
    drop_code=st.integers(0, 8),
    layer_codes=st.lists(st.integers(0, 11), min_size=2, max_size=11).map(tuple),
)


def assert_in_range(g):
    """Every code and the layer count inside its table, checked independently."""
    assert 0 <= g.lr_code < len(LR_TABLE)
    assert 0 <= g.drop_code < len(DROP_TABLE)
    assert 2 <= len(g.layer_codes) <= 11
    assert all(0 <= code <= 11 for code in g.layer_codes)


class TestDecode:
    def test_worked_architecture(self):
        g = parse_net_text("{4,0,8}{9,7,2,7,2,7,10,7}")
        spec = decode(g)
        assert spec.learning_rate == 0.0001
        assert spec.dropout == 0.0
        assert spec.units_per_layer == (250, 200, 75, 200, 75, 200, 275, 200)

    def test_first_table_entries(self):
        spec = decode(NetGenotype(0, 0, (0, 0)))
        assert spec.learning_rate == 0.0
        assert spec.dropout == 0.0

    def test_top_layer_code_is_300_units(self):
        assert decode(NetGenotype(0, 0, (11, 11))).units_per_layer == (300, 300)

    def test_lookup_tables(self):
        assert LR_TABLE == (0.0, 0.1, 0.01, 0.001, 0.0001, 0.00001)
        assert DROP_TABLE == (0.0, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45)


class TestGenotype:
    def test_is_a_named_tuple_equal_to_the_plain_tuple(self):
        g = NetGenotype(1, 2, (3, 4))
        assert g == (1, 2, (3, 4)) and hash(g) == hash((1, 2, (3, 4)))
        assert repr(g) == "NetGenotype(lr_code=1, drop_code=2, layer_codes=(3, 4))"
        assert len(g.layer_codes) == 2 and g.text() == "{1,2,2}{3,4}"

    def test_code_ranges_enforced(self):
        # construction checks nothing; parsing does, and so does a NetCodec's
        # target (rows of test_records.CASES)
        for text in ("{6,0,2}{0,0}", "{0,9,2}{0,0}", "{0,0,2}{12,0}"):
            with pytest.raises(ValueError, match="out of"):
                parse_net_text(text)

    def test_layer_count_bounds(self):
        for genotype in (NetGenotype(0, 0, (1,)), NetGenotype(0, 0, (0,) * 12)):
            with pytest.raises(ValueError, match="layer count"):
                parse_net_text(genotype.text())

    @given(net_genotypes)
    def test_text_round_trip(self, g):
        assert parse_net_text(g.text()) == g

    def test_malformed_text_rejected(self):
        for bad in ("", "{1,2}{3}", "{1,2,3}{4,5}", "{a,0,2}{1,2}", "1,0,2}{3,4}"):
            with pytest.raises(ValueError):
                parse_net_text(bad)


class TestPatientZero:
    def test_invariants_hold(self):
        rng = Random(0)
        for _ in range(1000):
            g = NetCodec.generate_patient_zero(rng)
            assert 2 <= len(g.layer_codes) <= 11

    def test_layer_count_uniform(self):
        rng = Random(1)
        draws = 10_000
        counts = {}
        for _ in range(draws):
            g = NetCodec.generate_patient_zero(rng)
            counts[len(g.layer_codes)] = counts.get(len(g.layer_codes), 0) + 1
        for value in range(2, 12):
            assert abs(counts.get(value, 0) / draws - 0.1) < 0.02

    def test_lr_code_uniform(self):
        rng = Random(2)
        draws = 10_000
        zero = sum(NetCodec.generate_patient_zero(rng).lr_code == 0 for _ in range(draws))
        assert abs(zero / draws - 1 / 6) < 0.02


class TestMutatePosition:
    def test_p_in_top_quartile_adds_two(self):
        assert mutate_position(3, 0, 11, ForcedP(0.8)) == 5

    def test_upper_clamp(self):
        assert mutate_position(11, 0, 11, ForcedP(0.9)) == 11

    def test_lower_clamp(self):
        assert mutate_position(0, 0, 11, ForcedP(0.1)) == 0

    def test_quartile_boundaries(self):
        assert mutate_position(5, 0, 11, ForcedP(0.0)) == 3
        assert mutate_position(5, 0, 11, ForcedP(0.25)) == 4
        assert mutate_position(5, 0, 11, ForcedP(0.5)) == 6
        assert mutate_position(5, 0, 11, ForcedP(0.75)) == 7

    def test_change_amounts_equally_likely(self):
        rng = Random(3)
        draws = 10_000
        counts = {-2: 0, -1: 0, 1: 0, 2: 0}
        for _ in range(draws):
            counts[mutate_position(5, 0, 11, rng) - 5] += 1
        for c in counts.values():
            assert abs(c / draws - 0.25) < 0.02

    @given(st.integers(0, 11), st.integers(0, 5))
    def test_never_leaves_range(self, value, seed):
        assert 0 <= mutate_position(value, 0, 11, Random(seed)) <= 11


class TestResize:
    def test_truncation_example(self):
        g = parse_net_text("{2,0,4}{3,2,1,6}")
        assert resize_layers(g, 2, Random(0)) == parse_net_text("{2,0,2}{3,2}")

    def test_growth_keeps_prefix_and_draws_fresh_codes(self):
        g = parse_net_text("{2,0,4}{3,2,1,6}")
        grown = resize_layers(g, 6, Random(0))
        assert len(grown.layer_codes) == 6
        assert grown.layer_codes[:4] == (3, 2, 1, 6)
        assert all(0 <= c <= 11 for c in grown.layer_codes[4:])

    def test_same_count_is_identity(self):
        g = parse_net_text("{2,0,4}{3,2,1,6}")
        assert resize_layers(g, 4, Random(0)) == g

    def test_count_bounds(self):
        g = parse_net_text("{2,0,4}{3,2,1,6}")
        with pytest.raises(ValueError):
            resize_layers(g, 1, Random(0))
        with pytest.raises(ValueError):
            resize_layers(g, 12, Random(0))

    @given(net_genotypes, st.integers(0, 1000))
    @settings(max_examples=100)
    def test_grow_then_shrink_preserves_prefix(self, g, seed):
        rng = Random(seed)
        bigger = min(11, len(g.layer_codes) + 3)
        back = resize_layers(resize_layers(g, bigger, rng), len(g.layer_codes), rng)
        assert back == g


@pytest.fixture
def mutation_log(monkeypatch):
    """The nudges and resizes replicate_net makes, as ("mutate", value, low,
    high) and ("resize", old_count, new_count) entries; each position of the
    parents below has a distinct (value, low, high), so it names the position."""
    log = []
    nudge, resize = cvoa.nn.mutate_position, cvoa.nn.resize_layers

    def logged_nudge(value, low, high, rng):
        # the layer-count nudge before a resize is not a position
        if (low, high) != (MIN_LAYERS, MAX_LAYERS):
            log.append(("mutate", value, low, high))
        return nudge(value, low, high, rng)

    def logged_resize(g, new_count, rng):
        if new_count != len(g.layer_codes):
            log.append(("resize", len(g.layer_codes), new_count))
        return resize(g, new_count, rng)

    monkeypatch.setattr(cvoa.nn, "mutate_position", logged_nudge)
    monkeypatch.setattr(cvoa.nn, "resize_layers", logged_resize)
    return log


class TestReplicate:
    def test_ordinary_mutates_one_position(self, mutation_log):
        rng = Random(4)
        parent = parse_net_text("{2,3,5}{1,4,7,9,11}")
        for _ in range(300):
            mutation_log.clear()
            child = replicate_net(parent, DistanceMode.ORDINARY, 3, rng)
            mutes = [entry for entry in mutation_log if entry[0] == "mutate"]
            assert len(mutes) == 1
            assert 2 <= len(child.layer_codes) <= 11

    def test_traveler_rate_counts_positions_not_value_diffs(self, mutation_log):
        # clamping can hide a mutation in the value diff; the log cannot lie
        rng = Random(5)
        parent = parse_net_text("{2,3,5}{1,4,7,9,11}")
        samples = 0
        for _ in range(2000):
            mutation_log.clear()
            replicate_net(parent, DistanceMode.TRAVELER, 3, rng)
            if any(entry[0] == "resize" for entry in mutation_log):
                continue
            mutes = [entry[1:] for entry in mutation_log if entry[0] == "mutate"]
            assert len(mutes) == 3
            assert len(set(mutes)) == 3
            samples += 1
        assert samples > 500

    def test_negative_rate_draws_count_uniformly(self, mutation_log):
        rng = Random(6)
        parent = parse_net_text("{2,3,5}{1,4,7,9,11}")  # 5 layers -> m in [0,7]
        counts = {}
        samples = 0
        for _ in range(30_000):
            mutation_log.clear()
            replicate_net(parent, DistanceMode.TRAVELER, -1, rng)
            if any(entry[0] == "resize" for entry in mutation_log):
                continue
            m = sum(entry[0] == "mutate" for entry in mutation_log)
            counts[m] = counts.get(m, 0) + 1
            samples += 1
        assert set(counts) == set(range(8))
        for m in range(8):
            assert abs(counts[m] / samples - 1 / 8) < 0.02

    def test_zero_rate_can_clone(self):
        rng = Random(7)
        parent = parse_net_text("{2,3,5}{1,4,7,9,11}")
        clones = sum(
            replicate_net(parent, DistanceMode.TRAVELER, 0, rng) == parent for _ in range(300)
        )
        assert clones > 0  # m = 0 duplicates are allowed; the population set collapses them

    def test_layer_count_mutates_about_a_third_of_the_time(self, mutation_log):
        rng = Random(8)
        parent = parse_net_text("{2,3,5}{1,4,7,9,11}")
        resized = 0
        draws = 10_000
        for _ in range(draws):
            mutation_log.clear()
            replicate_net(parent, DistanceMode.ORDINARY, 3, rng)
            resized += any(entry[0] == "resize" for entry in mutation_log)
        assert abs(resized / draws - 1 / 3) < 0.02

    def test_long_mutation_chain_preserves_invariants(self):
        rng = Random(9)
        g = NetCodec.generate_patient_zero(rng)
        for step in range(100_000):
            mode = DistanceMode.TRAVELER if step % 3 == 0 else DistanceMode.ORDINARY
            g = replicate_net(g, mode, -1 if step % 5 == 0 else 3, rng)
            assert_in_range(g)

    @given(
        st.integers(0, 2**32),
        st.sampled_from(
            [
                (DistanceMode.ORDINARY, 3),
                (DistanceMode.TRAVELER, 3),
                (DistanceMode.TRAVELER, -1),
                (DistanceMode.TRAVELER, 0),
            ]
        ),
        st.booleans(),
    )
    @settings(max_examples=200)
    def test_every_child_passes_the_range_check(self, seed, move, guided):
        # the engine builds genotypes unchecked, so both builders must stay in range
        rng = Random(seed)
        toward = NetCodec.generate_patient_zero(rng) if guided else None
        g = NetCodec.generate_patient_zero(rng)
        g.__post_init__()
        mode, rate = move
        for _ in range(50):
            g = replicate_net(g, mode, rate, rng, toward=toward)
            g.__post_init__()

    def test_replication_is_pinned(self):
        """2,560 chains of 25 children, hashed: a change meant to keep every
        fixed-seed result must keep each child and the stream it leaves
        byte-identical. Seeds 1-40, blind (toward=None, as the evaluator
        codec draws) and guided, both distance modes, traveler rates 3, 0,
        -1 and 20. The sha256 runs over repr() of each child and of the
        stream state after each chain."""
        digest = hashlib.sha256()
        for seed in range(1, 41):
            parent = NetCodec.generate_patient_zero(Random(seed))
            target = NetCodec.generate_patient_zero(Random(seed + 10_000))
            rng = Random(seed + 1_000)
            for toward in (None, target):
                for mode in DistanceMode:
                    for rate in (3, 0, -1, 20):
                        g = parent
                        for _ in range(25):
                            g = replicate_net(g, mode, rate, rng, toward=toward)
                            digest.update(repr(g).encode())
                        digest.update(repr(rng.getstate()).encode())
        assert digest.hexdigest()[:16] == "8731e7e26f6e3a78", (
            "a fixed-seed nn child changed; if replication was changed on "
            "purpose, re-pin and declare it in CHANGES.md"
        )


class TestSurrogate:
    def test_equal_genotypes_score_zero(self):
        g = parse_net_text("{4,0,8}{9,7,2,7,2,7,10,7}")
        assert NetCodec(g).fitness(g) == 0

    def test_single_lr_step(self):
        target = parse_net_text("{4,0,2}{9,7}")
        g = parse_net_text("{3,0,2}{9,7}")
        assert NetCodec(target).fitness(g) == 1

    def test_worked_length_mismatch_case(self):
        target = parse_net_text("{4,0,8}{9,7,2,7,2,7,10,7}")
        g = parse_net_text("{4,0,2}{9,7}")
        assert NetCodec(target).fitness(g) == 2 * 6 + 6 * 12

    @given(net_genotypes, net_genotypes)
    @settings(max_examples=200)
    def test_symmetric_and_nonnegative(self, a, b):
        assert NetCodec(b).fitness(a) == NetCodec(a).fitness(b) >= 0

    @given(net_genotypes, net_genotypes, st.sampled_from(["equal", "one-layer-gap", "drawn"]))
    @settings(max_examples=300)
    def test_distance_and_fitness_are_zero_exactly_at_equality(self, a, b, relation):
        # genotypes of every layer count; equal pairs, and pairs that differ
        # only by one trailing layer, are rare among independent draws
        if relation == "equal":
            b = NetGenotype(*a)
        elif relation == "one-layer-gap":
            codes = a.layer_codes[:-1] if len(a.layer_codes) == MAX_LAYERS else a.layer_codes + (0,)
            b = NetGenotype(a.lr_code, a.drop_code, codes)
        assert NetCodec.distance(a, b) == NetCodec.distance(b, a)
        assert (NetCodec.distance(a, b) == 0) == (a == b)
        assert (NetCodec(b).fitness(a) == 0) == (a == b)

    def test_distance_counts_mismatches_and_length_gap(self):
        a = parse_net_text("{4,0,2}{9,7}")
        b = parse_net_text("{4,1,3}{9,8,2}")
        assert NetCodec.distance(a, b) == 0 + 1 + (0 + 1) + 1

    def test_search_space_cardinality(self):
        expected = 6 * 9 * sum(12**count for count in range(2, 12))
        assert NetCodec.search_space_size() == expected


class TestExternalEvaluator:
    @pytest.mark.parametrize("body, reply", REPLIES)
    def test_reply(self, tmp_path, body, reply):
        # callers score one genotype through fitness, the engine a batch through fitness_all
        evaluator = ExternalEvaluator(evaluator_script(tmp_path, body))
        for score in (evaluator.fitness, lambda g: list(evaluator.fitness_all([g]))[0]):
            if isinstance(reply, str):
                with pytest.raises(EvaluationError, match=reply):
                    score(REQUEST)
            else:
                assert score(REQUEST) == reply

    @pytest.mark.parametrize("batch", [False, True], ids=["fitness", "fitness_all"])
    def test_timeout_is_error_and_reaps_the_evaluator(self, tmp_path, batch):
        pid_path = tmp_path / "pid"
        command = evaluator_script(
            tmp_path,
            "import os, pathlib, time\n"
            f"pathlib.Path({str(pid_path)!r}).write_text(str(os.getpid()))\n"
            "time.sleep(60)\n",
        )
        evaluator = ExternalEvaluator(command, timeout=0.5)
        g = NetGenotype(0, 0, (0, 0))
        start = time.monotonic()
        with pytest.raises(EvaluationError, match="failed to run"):
            list(evaluator.fitness_all([g])) if batch else evaluator.fitness(g)
        assert time.monotonic() - start < 5
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid_path.read_text()), 0)

    @pytest.mark.parametrize("timeout", [-1, 0, math.nan, "60", True])
    def test_timeout_that_is_no_positive_number_of_seconds_is_rejected(self, timeout):
        # a timeout of -1 once built, and then failed every round trip
        with pytest.raises(ValueError, match=f"timeout .* got {timeout!r}"):
            ExternalEvaluator(["true"], timeout=timeout)

    @pytest.mark.parametrize("timeout", [None, 0.5])
    def test_no_timeout_or_a_positive_one_builds(self, timeout):
        assert ExternalEvaluator(["true"], timeout=timeout).timeout is timeout

    @pytest.mark.parametrize("batch", [False, True], ids=["fitness", "fitness_all"])
    def test_longest_timeout_poll_can_wait_builds_and_scores(self, tmp_path, batch):
        command = evaluator_script(tmp_path, replying('{"fitness": 1.5}'))
        evaluator = ExternalEvaluator(command, timeout=2147483.647)
        g = NetGenotype(0, 0, (0, 0))
        assert (list(evaluator.fitness_all([g])) if batch else [evaluator.fitness(g)]) == [1.5]

    @pytest.mark.parametrize("timeout", [2147483.648, 1e12, math.inf])
    def test_timeout_past_what_poll_can_wait_is_rejected(self, timeout):
        # these once built, and then each round trip raised OverflowError,
        # which is no EvaluationError, so a failed run kept no partial result
        with pytest.raises(ValueError, match=f"timeout .* got {timeout!r}"):
            ExternalEvaluator(["true"], timeout=timeout)

    @pytest.mark.parametrize("command", ["", [], "   ", {"cmd": "python3"}, ["python3", 5]])
    def test_empty_command_is_rejected(self, command):
        with pytest.raises(ValueError, match="empty"):
            ExternalEvaluator(command)

    @pytest.mark.parametrize(
        "command",
        [["python3\0"], "python3 -c\0", ["python3", "-\0c"]],
        ids=["list", "string", "second-word"],
    )
    def test_command_word_with_a_nul_is_rejected(self, command):
        with pytest.raises(ValueError, match="NUL"):
            ExternalEvaluator(command)

    def test_fitness_all_scores_in_order(self, tmp_path):
        command = evaluator_script(
            tmp_path,
            "import json, sys\n"
            "req = json.loads(sys.stdin.readline())\n"
            "print(json.dumps({'fitness': req['units'][0]}))\n",
        )
        evaluator = ExternalEvaluator(command)
        genotypes = [NetGenotype(0, 0, (c, 0)) for c in range(4)]
        assert list(evaluator.fitness_all(genotypes)) == [25.0, 50.0, 75.0, 100.0]
        assert evaluator.invocations == 4
        assert list(evaluator.fitness_all(genotypes[:2])) == [25.0, 50.0]
        assert evaluator.invocations == 6

    @pytest.mark.parametrize(
        "cpu_count, sched_getaffinity",
        [(4, lambda pid: {0}), (1, None)],
        ids=["sched_getaffinity", "cpu_count"],
    )
    def test_fitness_all_runs_one_evaluator_per_cpu_the_process_may_use(
        self, tmp_path, monkeypatch, cpu_count, sched_getaffinity
    ):
        # a machine of 4 CPUs with this process pinned to one of them, or a
        # machine of one CPU off Linux, where os has no sched_getaffinity: an
        # evaluator that finds the lock file taken ran beside another one
        lock = tmp_path / "running"
        command = evaluator_script(
            tmp_path,
            "import os, sys, time\n"
            "sys.stdin.readline()\n"
            "try:\n"
            f"    os.close(os.open({str(lock)!r}, os.O_CREAT | os.O_EXCL))\n"
            "except FileExistsError:\n"
            "    sys.exit('another evaluator is running')\n"
            "time.sleep(0.3)\n"
            f"os.remove({str(lock)!r})\n"
            "print('{\"fitness\": 1.0}')\n",
        )
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        if sched_getaffinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", sched_getaffinity, raising=False)
        evaluator = ExternalEvaluator(command)
        genotypes = [NetGenotype(0, 0, (c, 0)) for c in range(3)]
        assert list(evaluator.fitness_all(genotypes)) == [1.0, 1.0, 1.0]

    def test_fitness_all_raises_the_first_failure_in_order(self, tmp_path, monkeypatch):
        # on 2 CPUs the second round trip fails while the first still runs,
        # and neither round trip queued behind the failure starts
        starts, pid_path = tmp_path / "starts", tmp_path / "pids"
        command = evaluator_script(
            tmp_path,
            "import json, os, sys, time\n"
            f"with open({str(starts)!r}, 'a') as fh:\n"
            "    fh.write('started\\n')\n"
            "unit = json.loads(sys.stdin.readline())['units'][0]\n"
            "if unit in (50, 75):\n"
            "    sys.exit(unit // 25)\n"
            f"with open({str(pid_path)!r}, 'a') as fh:\n"
            "    fh.write(f'{os.getpid()}\\n')\n"
            "time.sleep(0.5)\n"
            "print(json.dumps({'fitness': 1.0}))\n",
        )
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        evaluator = ExternalEvaluator(command)
        genotypes = [NetGenotype(0, 0, (c, 0)) for c in range(4)]
        scores = iter(evaluator.fitness_all(genotypes))
        assert next(scores) == 1.0
        with pytest.raises(EvaluationError, match="exited 2"):
            next(scores)
        assert len(starts.read_text().split()) == 2
        assert evaluator.invocations == 2
        # every process has finished on return
        pids = [int(pid) for pid in pid_path.read_text().split()]
        assert len(pids) == 1
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_interrupt_starts_no_queued_round_trip(self, tmp_path):
        # in a subprocess: the interrupt ends the process that takes it
        pid_path = tmp_path / "pids"
        command = evaluator_script(
            tmp_path,
            "import os, sys, time\n"
            "sys.stdin.readline()\n"
            f"with open({str(pid_path)!r}, 'a') as fh:\n"
            "    fh.write(f'{os.getpid()}\\n')\n"
            "time.sleep(1)\n"
            "print('{\"fitness\": 1.0}')\n",
        )
        proc = subprocess.run(
            [sys.executable, "-c", INTERRUPTED_BATCH, *command],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.stdout == "interrupted\n", proc.stderr
        # the two round trips running at the interrupt, and no queued one
        assert len(pid_path.read_text().split()) <= 2


class TestNetCodec:
    def test_surrogate_mode_knows_its_optimum(self):
        codec = NetCodec(target=NetGenotype(1, 2, (3, 4)))
        assert codec.optimum_fitness() == 0
        assert codec.fitness(NetGenotype(1, 2, (3, 4))) == 0

    def test_surrogate_codec_requires_its_target(self):
        with pytest.raises(TypeError):
            NetCodec()

    def test_evaluator_mode_has_unknown_optimum(self, tmp_path):
        command = evaluator_script(tmp_path, replying('{"fitness": 0.5}'))
        codec = ExternalNetCodec(ExternalEvaluator(command))
        assert codec.optimum_fitness() is None

    def test_replicate_preserves_invariants(self):
        codec = NetCodec(target=parse_net_text("{4,0,8}{9,7,2,7,2,7,10,7}"))
        rng = Random(10)
        g = NetCodec.generate_patient_zero(rng)
        for _ in range(2000):
            [g] = codec.replicate(g, DistanceMode.ORDINARY, 1, 3, rng)
            assert_in_range(g)

    def test_surrogate_fitness_all_scores_in_order(self):
        # the surrogate codec has no batch hook: the ledger scores a batch by
        # `fitness`, in list order
        codec = NetCodec(target=NetGenotype(1, 2, (3, 4)))
        assert not hasattr(codec, "fitness_all")
        genotypes = [NetGenotype(0, 0, (c, 4)) for c in range(5)]
        scored = []

        class Recording(NetCodec):
            def fitness(self, genotype):
                scored.append(genotype)
                return super().fitness(genotype)

        scores = SharedLedger().evaluate_all(Recording(codec.target), genotypes)
        assert scored == genotypes
        assert scores == [codec.fitness(g) for g in genotypes]

    def test_text_round_trips_through_parser(self):
        codec = NetCodec(target=NetGenotype(1, 2, (3, 4)))
        g = NetGenotype(5, 8, (0, 11, 6))
        assert parse_net_text(codec.text(g)) == g


def test_evaluator_reply_shape_matches_request_contract(tmp_path):
    # full round trip through the codec: request keys, reply key
    record = tmp_path / "seen.json"
    command = evaluator_script(
        tmp_path,
        "import json, sys\n"
        "req = json.loads(sys.stdin.readline())\n"
        f"open({str(record)!r}, 'w').write(json.dumps(sorted(req)))\n"
        "print(json.dumps({'fitness': 0.47}))\n",
    )
    codec = ExternalNetCodec(ExternalEvaluator(command))
    assert codec.fitness(parse_net_text("{4,0,8}{9,7,2,7,2,7,10,7}")) == 0.47
    assert json.loads(record.read_text()) == ["dropout", "learning_rate", "units"]
