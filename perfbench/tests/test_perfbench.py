"""Tests of the benchmark itself: generator, percentile rule, spans, oracle."""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys

import pytest

from perfbench import gen, oracle
from perfbench.common import END_TO_END, ROOT
from perfbench.layers import PER_LAYER, Layers
from perfbench import serve
from perfbench.serve import Segment, clean_windows, window_steal
from perfbench.stats import (
    MIN_BEYOND,
    covered,
    percentile,
    samples_beyond,
    self_times,
    summarize,
    supported,
    window_bounds,
    windowed,
)
from perfbench.tracing import Recorder, traced_config
from repro import Optimizer
from repro.optimizer import OptimizerConfig


def _spec(query):
    return gen.query_digest(query), query.description


class TestGenerator:
    def test_same_seed_same_queries(self):
        for deck, stream in ((gen.COLD_DECK, "cold"),
                             (gen.SERVE_MISS_DECK, "serve")):
            first = [_spec(gen.unique_query(deck, 7, stream, i))
                     for i in range(30)]
            again = [_spec(gen.unique_query(deck, 7, stream, i))
                     for i in range(30)]
            assert first == again
        assert ([_spec(q) for q in gen.working_set(3)]
                == [_spec(q) for q in gen.working_set(3)])

    def test_other_seed_other_queries(self):
        a = [_spec(gen.unique_query(gen.COLD_DECK, 1, "cold", i))
             for i in range(10)]
        b = [_spec(gen.unique_query(gen.COLD_DECK, 2, "cold", i))
             for i in range(10)]
        assert a != b

    def test_rounds_deal_the_whole_deck(self):
        deck = gen.COLD_DECK
        for rounds in range(3):
            dealt = sorted(gen.dealt(deck, 5, "cold", rounds * len(deck) + k)
                           for k in range(len(deck)))
            assert dealt == sorted(deck)

    def test_statistics_are_skewed_and_in_range(self):
        cards, sels = [], []
        for i in range(40):
            query = gen.unique_query(gen.COLD_DECK, 1, "cold", i)
            cards += query.cardinalities
            sels += [edge.selectivity for edge in query.graph.edges]
        assert min(cards) >= 10 and max(cards) <= 10 ** 7
        assert max(cards) / min(cards) > 1e4
        assert min(sels) >= 1e-4 and max(sels) <= 10 ** -0.3

    def test_hyper_shape_has_complex_edges(self):
        query = gen.make_query("hyper", 10, gen.seeded(1, "t"))
        assert query.graph.is_connected
        assert not query.graph.is_simple

    def test_hot_stream_mixes_exact_and_relabeled(self):
        members = gen.working_set(1)
        kinds = [gen.hot_request(members, 1, "lib-hot", i)[1] is None
                 for i in range(2000)]
        assert 0.45 < sum(kinds) / len(kinds) < 0.55

    def test_relabeling_shares_the_optimum(self):
        members = gen.working_set(2)
        base = members[3]
        copy = gen.materialize(members, 3, 12345)
        assert gen.query_digest(copy) != gen.query_digest(base)
        assert oracle.reference(copy)[0] == pytest.approx(
            oracle.reference(base)[0], rel=1e-9)


class TestPercentileRule:
    def test_nearest_rank(self):
        samples = list(range(1, 101))
        assert percentile(samples, 50) == 50
        assert percentile(samples, 99) == 99
        assert percentile(samples, 100) == 100

    @pytest.mark.parametrize("count,q,ok", [
        (1000, 99, True), (999, 99, False), (100, 90, True),
        (99, 90, False), (40, 75, True), (39, 75, False),
    ])
    def test_ten_samples_beyond(self, count, q, ok):
        assert supported(count, q) is ok
        assert (samples_beyond(count, q) >= MIN_BEYOND) is ok

    def test_windows_keep_the_rule_and_the_median_ignores_a_burst(self):
        samples = [1.0] * 2010
        samples[100:300] = [50.0] * 200  # a burst inside the first window
        bounds = window_bounds(len(samples), 95)
        assert len(bounds) == 10
        assert all(supported(hi - lo, 95) for lo, hi in bounds)
        assert windowed(samples, 95)["window_tail"] == 1.0
        assert windowed(samples, 95, keep=[0])["window_tail"] == 50.0

    def test_clean_windows_drop_only_stolen_ones(self):
        assert clean_windows([0.0, 0.2, 0.01, 0.05, 0.0]) == [0, 2, 3, 4]

    def test_clean_windows_keep_the_cleaner_half_at_least(self):
        assert clean_windows([0.3, 0.0, 0.2, 0.1, 0.5]) == [1, 2, 3]

    def test_window_steal_is_a_share_of_runnable_time(self):
        # three times the work under the same contention: the same share
        light = [Segment(1.0, 1.0, 100, 10)] * serve.SEGMENTS
        heavy = [Segment(1.0, 1.0, 300, 30)] * serve.SEGMENTS
        quiet = [Segment(1.0, 1.0, 300, 0)] * serve.SEGMENTS
        shares = window_steal(light + heavy + quiet)
        assert shares[0] == pytest.approx(shares[1]) == pytest.approx(1 / 11)
        assert shares[2] == 0.0

    def test_schedule_segments_whole_windows(self):
        members = gen.working_set(1)
        requests = serve.schedule(members, 1, 450)
        optimize = [r for r in requests if r.kind != "save"]
        bounds = window_bounds(450, serve.TAIL_Q)
        assert len(optimize) == len(bounds) * bounds[0][1]
        segments = [r.segment for r in requests]
        assert segments == sorted(segments)
        assert segments[-1] == len(bounds) * serve.SEGMENTS - 1
        for number in range(segments[-1] + 1):
            dues = [r.due for r in optimize if r.segment == number]
            assert dues == sorted(dues) and dues[0] < 0.1

    def test_summary_flags_unsupported_tail(self):
        assert summarize([1.0] * 500, 99)["tail_supported"] is False
        assert summarize([1.0] * 1000, 99)["tail_supported"] is True


class TestSelfTime:
    def test_union_of_overlapping_children(self):
        assert covered([(0, 10), (5, 15), (20, 30)], 0, 100) == 25
        assert covered([(0, 10)], 5, 8) == 3
        assert covered([], 0, 10) == 0

    def test_self_time_subtracts_children_of_same_request(self):
        spans = [
            {"name": "request", "start": 0, "end": 100, "parent": None,
             "rid": 1},
            {"name": "a", "start": 10, "end": 30, "parent": "request",
             "rid": 1},
            {"name": "b", "start": 25, "end": 60, "parent": "request",
             "rid": 1},
            # another request's child must not count
            {"name": "a", "start": 0, "end": 90, "parent": "request",
             "rid": 2},
        ]
        own = self_times(spans)
        assert own["request"] == [50.0]
        assert sorted(own["a"]) == [20.0, 90.0]
        assert own["b"] == [35.0]


class TestTracing:
    def test_traced_config_keeps_keys_and_plans(self):
        recorder = Recorder()
        plain = OptimizerConfig(cache="on")
        traced = traced_config(plain, recorder)
        assert traced.cache_key() == plain.cache_key()
        query = gen.unique_query(gen.COLD_DECK, 1, "cold", 2)
        assert (Optimizer(traced).optimize(query).cost
                == Optimizer(plain).optimize(query).cost)
        names = {span[0] for span in recorder.spans}
        assert {"optimizer.normalize", "optimizer.fingerprint",
                "cache.lookup", "optimizer.dispatch", "cache.store",
                "optimizer.finalize"} <= names

    def test_pickled_recorder_is_empty_and_disabled(self):
        recorder = Recorder()
        config = traced_config(OptimizerConfig(), recorder)
        Optimizer(config).optimize(gen.member(1, 0))
        assert recorder.spans
        clone = pickle.loads(pickle.dumps(config))
        copy = clone.pipeline.normalize.recorder
        assert copy.spans == [] and copy.enabled is False

    def test_every_per_layer_metric_is_reported(self):
        metrics = Layers([]).metrics()
        assert list(metrics) == [name for name, _u, _b in PER_LAYER]


class TestOracleCheck:
    def test_exact_answer_passes(self):
        assert oracle.check(100.0, "dphyp", 100.0)
        assert oracle.check(100.0 * (1 + 1e-12), "dpccp", 100.0)

    def test_perturbed_cost_is_caught(self):
        query = gen.unique_query(gen.COLD_DECK, 1, "cold", 0)
        result = Optimizer(algorithm="auto").optimize(query)
        optimum = oracle.reference(query)[0]
        assert oracle.check(result.cost, result.algorithm, optimum)
        assert not oracle.check(result.cost * 1.001, result.algorithm,
                                optimum)
        assert not oracle.check(result.cost * 0.999, result.algorithm,
                                optimum)
        assert not oracle.check(None, result.algorithm, optimum)

    def test_greedy_may_lose_but_never_win(self):
        assert oracle.check(120.0, "greedy", 100.0)
        assert not oracle.check(99.0, "greedy", 100.0)


class TestContract:
    def test_benchmark_json_names_the_reported_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(
            END_TO_END)
        assert [(m["name"], m["unit"], m["better"])
                for m in bench["per_layer"]] == list(PER_LAYER)
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        assert setup[0]["bound"] == max(m["bound"]
                                        for m in bench["end_to_end"])

    def test_refuses_to_run_without_the_optimizer(self, tmp_path):
        bench = tmp_path / "perfbench"
        bench.mkdir()
        script = os.path.join(ROOT, "perfbench", "run.py")
        (bench / "run.py").write_text(open(script).read())
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "lib-hot",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        )
        assert done.returncode != 0
        assert done.stdout == ""
