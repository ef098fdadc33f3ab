"""Protocol v2: pipelined multiplexed serving.

Three layers, matching the implementation:

* pure framing — property-based round-trips of id-carrying request
  streams through ``encode_frame``/``decode_body`` (hypothesis);
* a real :class:`~repro.serving.runner.BackgroundServer` exercised
  through the pipelined :meth:`~repro.serving.client.PlanClient.
  optimize_many` window and through raw sockets (out-of-order
  completion, per-connection window exhaustion, v1 interop);
* the idle-connection reaper;
* a differential check of v1 and pipelined daemon answers against the
  ``dphyp-recursive`` oracle, across an epoch bump.
"""

from __future__ import annotations

import socket
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimizer import JoinSpec, Optimizer, OptimizerConfig, QuerySpec
from repro.serving import BackgroundServer, PlanClient, ServerError
from repro.serving.protocol import (
    HEADER_BYTES,
    decode_body,
    encode_frame,
    recv_frame,
    send_frame,
)


def chain_spec(n: int = 5, base: float = 100.0, tag: float = 0.0) -> QuerySpec:
    return QuerySpec(
        relations=[(f"r{i}", base + 10.0 * i + tag) for i in range(n)],
        joins=[(f"r{i}", f"r{i + 1}", 0.1) for i in range(n - 1)],
    )


# -- pure framing -------------------------------------------------------------


_IDS = st.one_of(
    st.integers(min_value=0, max_value=2**53),
    st.text(min_size=1, max_size=32),
)


class TestFramedPipelineStream:
    @given(
        messages=st.lists(
            st.fixed_dictionaries(
                {
                    "op": st.sampled_from(["ping", "optimize", "stats"]),
                    "id": _IDS,
                }
            ),
            max_size=16,
        )
    )
    @settings(deadline=None, max_examples=50)
    def test_id_stream_roundtrip(self, messages):
        """A pipelined burst is just concatenated frames; parsing the
        byte stream back yields the same messages, ids intact and in
        send order."""
        stream = b"".join(encode_frame(m) for m in messages)
        decoded = []
        offset = 0
        while offset < len(stream):
            length = int.from_bytes(
                stream[offset:offset + HEADER_BYTES], "big"
            )
            offset += HEADER_BYTES
            decoded.append(decode_body(stream[offset:offset + length]))
            offset += length
        assert decoded == messages

    @given(rid=_IDS)
    @settings(deadline=None, max_examples=50)
    def test_id_survives_response_echo(self, rid):
        """The id field round-trips bit-exact through a frame (what the
        server's response echo relies on)."""
        frame = encode_frame({"ok": True, "id": rid})
        body = decode_body(frame[HEADER_BYTES:])
        assert body["id"] == rid
        assert type(body["id"]) is type(rid)


# -- pipelined serving --------------------------------------------------------


@pytest.fixture
def server():
    with BackgroundServer(
        OptimizerConfig(cache="on"), debug_ops=True
    ) as daemon:
        yield daemon


class TestPipelinedOptimize:
    def test_results_come_back_in_submission_order(self, server):
        specs = [chain_spec(tag=float(tag)) for tag in range(6)]
        batch = specs + list(reversed(specs))
        with PlanClient(server.address) as client:
            answers = client.optimize_many(batch, depth=4)
            assert len(answers) == len(batch)
            assert all(a["ok"] and a["plannable"] for a in answers)
            # same spec → same cost, regardless of pipeline scheduling
            costs = [a["cost"] for a in answers]
            assert costs[:6] == list(reversed(costs[6:]))
            # per-request latencies are index-aligned with the batch
            assert len(client.last_latencies) == len(batch)
            assert all(lat > 0 for lat in client.last_latencies)
            assert client.stats()["server"]["pipelined"] == len(batch)

    def test_pipelined_and_serialized_agree(self, server):
        spec = chain_spec(tag=77.0)
        with PlanClient(server.address) as client:
            [piped] = client.optimize_many([spec], depth=8)
            plain = client.optimize(spec)
            assert piped["cost"] == plain["cost"]
            assert piped["cache_event"] == "miss"
            assert plain["cache_event"] == "hit"

    def test_out_of_order_completion(self, server):
        """A slow request does not block a fast one behind it: the ping
        sent second completes first, and ids pair each response to its
        request."""
        with socket.create_connection(server.address, timeout=10) as sock:
            send_frame(sock, {"op": "debug-sleep", "seconds": 0.4, "id": 1})
            send_frame(sock, {"op": "ping", "id": 2})
            first = recv_frame(sock)
            second = recv_frame(sock)
        assert first["id"] == 2 and first["ok"]
        assert second["id"] == 1 and second["ok"]

    def test_overloaded_retry_is_transparent(self):
        """Admission backpressure surfaces as id-carrying ``overloaded``
        frames; optimize_many retries them and still completes the
        whole batch."""
        with BackgroundServer(
            OptimizerConfig(cache="on"), max_in_flight=1, queue_limit=1
        ) as daemon:
            specs = [chain_spec(tag=100.0 + i) for i in range(10)]
            with PlanClient(daemon.address) as client:
                answers = client.optimize_many(specs, depth=8)
                assert all(a["ok"] for a in answers)

    def test_bad_id_type_is_rejected(self, server):
        with socket.create_connection(server.address, timeout=10) as sock:
            send_frame(sock, {"op": "ping", "id": [1, 2]})
            response = recv_frame(sock)
        assert not response["ok"]
        assert response["error"] == "bad-request"


class TestPipelineWindow:
    def test_window_exhaustion_rejects_with_id(self):
        """The per-connection window bounds in-flight pipelined work;
        the rejection carries the id so the client knows *which*
        request bounced."""
        with BackgroundServer(
            OptimizerConfig(cache="on"), debug_ops=True, pipeline_window=2
        ) as daemon:
            with socket.create_connection(daemon.address, timeout=10) as sock:
                for rid in (1, 2, 3):
                    send_frame(
                        sock,
                        {"op": "debug-sleep", "seconds": 0.3, "id": rid},
                    )
                responses = [recv_frame(sock) for _ in range(3)]
            by_id = {r["id"]: r for r in responses}
            assert not by_id[3]["ok"]
            assert by_id[3]["error"] == "overloaded"
            assert "window" in by_id[3]["message"]
            assert by_id[1]["ok"] and by_id[2]["ok"]
            with PlanClient(daemon.address) as client:
                stats = client.stats()
                assert stats["server"]["window_rejections"] == 1

    def test_window_frees_as_responses_complete(self):
        """A full window is congestion, not a connection error: after
        in-flight requests finish, the same connection accepts more."""
        with BackgroundServer(
            OptimizerConfig(cache="on"), debug_ops=True, pipeline_window=1
        ) as daemon:
            with socket.create_connection(daemon.address, timeout=10) as sock:
                send_frame(
                    sock, {"op": "debug-sleep", "seconds": 0.2, "id": 1}
                )
                assert recv_frame(sock)["id"] == 1
                send_frame(sock, {"op": "ping", "id": 2})
                follow_up = recv_frame(sock)
            assert follow_up["id"] == 2 and follow_up["ok"]


class TestV1Interop:
    def test_idless_requests_still_serialize(self, server):
        """A v1 client (no ids) sees exactly the old behavior: strict
        request/response alternation, responses without an id field."""
        with socket.create_connection(server.address, timeout=10) as sock:
            for _ in range(3):
                send_frame(sock, {"op": "ping"})
                response = recv_frame(sock)
                assert response["ok"]
                assert "id" not in response
            send_frame(sock, {"op": "hello"})
            assert recv_frame(sock)["protocol"] == 2

    def test_idless_request_drains_pipelined_work_first(self, server):
        """Mixing modes on one connection is safe: an id-less request
        acts as a barrier, answered only after in-flight pipelined
        requests have completed."""
        with socket.create_connection(server.address, timeout=10) as sock:
            send_frame(sock, {"op": "debug-sleep", "seconds": 0.3, "id": 9})
            send_frame(sock, {"op": "ping"})
            first = recv_frame(sock)
            second = recv_frame(sock)
        assert first.get("id") == 9
        assert "id" not in second and second["ok"]

    def test_v1_client_optimize_unchanged(self, server):
        with PlanClient(server.address) as client:
            answer = client.optimize(chain_spec(tag=55.0))
            assert answer["ok"] and answer["via"] == "pool"
            assert "id" not in answer


class TestIdleTimeout:
    def test_idle_connection_is_reaped(self):
        with BackgroundServer(
            OptimizerConfig(cache="on"), idle_timeout=0.3
        ) as daemon:
            with socket.create_connection(daemon.address, timeout=10) as sock:
                goodbye = recv_frame(sock)  # blocks until the reaper fires
                assert not goodbye["ok"]
                assert goodbye["error"] == "timeout"
                # then the server closes: EOF
                assert sock.recv(1) == b""
            with PlanClient(daemon.address) as client:
                assert client.stats()["server"]["idle_timeouts"] == 1

    def test_active_connection_survives(self):
        with BackgroundServer(
            OptimizerConfig(cache="on"), idle_timeout=0.5
        ) as daemon:
            with PlanClient(daemon.address) as client:
                for _ in range(3):
                    time.sleep(0.2)
                    assert client.ping() is True

    def test_timeout_validation(self):
        from repro.serving.server import PlanServer

        with pytest.raises(ValueError):
            PlanServer(OptimizerConfig(cache="on"), idle_timeout=0.0)
        with pytest.raises(ValueError):
            PlanServer(OptimizerConfig(cache="on"), pipeline_window=0)


class TestShutdownInterop:
    def test_shutdown_waits_for_pipelined_work(self, server):
        """The shutdown op is a barrier like any id-less request: the
        in-flight pipelined request completes before the server drains
        and answers."""
        with socket.create_connection(server.address, timeout=10) as sock:
            send_frame(sock, {"op": "debug-sleep", "seconds": 0.2, "id": 4})
            send_frame(sock, {"op": "shutdown", "drain_timeout": 5.0})
            first = recv_frame(sock)
            second = recv_frame(sock)
        assert first.get("id") == 4 and first["ok"]
        assert second["ok"] and "id" not in second


# -- differential: daemon answers vs the dphyp-recursive oracle ------------


def _shape_spec(n: int, pairs, base: float, extra=()) -> QuerySpec:
    """``n`` relations with uneven cardinalities joined along ``pairs``."""
    return QuerySpec(
        relations=[
            (f"r{i}", base * (1 + (7 * i) % 5) + 3.0 * i) for i in range(n)
        ],
        joins=[
            (f"r{a}", f"r{b}", 0.5 / (1 + (a + 2 * b) % 4)) for a, b in pairs
        ] + list(extra),
    )


def _differential_stream() -> "list[QuerySpec]":
    """A pipeline-bench window plus one query of each classic shape.

    The first eight requests are four cold misses followed by their
    duplicates (``build_pipeline_workload``'s shape): at depth 8 the
    duplicates reach the pool before their originals' plans exist.
    """
    colds = [
        _shape_spec(6, [(i, i + 1) for i in range(5)], 900.0 + 50.0 * j)
        for j in range(4)
    ]
    hyper = _shape_spec(
        6, [(0, 1), (1, 2), (3, 4), (4, 5)], 40.0,
        extra=[JoinSpec.of(("r0", "r1", "r2"), ("r3", "r4", "r5"), 0.01)],
    )
    return colds + colds + [
        _shape_spec(7, [(i, i + 1) for i in range(6)], 120.0),
        _shape_spec(6, [(i, (i + 1) % 6) for i in range(6)], 130.0),
        _shape_spec(6, [(0, i) for i in range(1, 6)], 140.0),
        _shape_spec(5, [(a, b) for a in range(5) for b in range(a + 1, 5)],
                    150.0),
        hyper,
    ]


class TestDifferentialAgainstOracle:
    @pytest.mark.parametrize("mode", ["v1", "pipelined"])
    def test_every_answer_matches_the_oracle(self, mode):
        stream = _differential_stream()
        oracle = Optimizer(algorithm="dphyp-recursive", cache="off")
        expected = [oracle.optimize(spec).plan.cost for spec in stream]

        def send(client):
            if mode == "pipelined":
                return client.optimize_many(stream, depth=8)
            return [client.optimize(spec) for spec in stream]

        with BackgroundServer(OptimizerConfig(cache="on"), workers=2) as daemon:
            with PlanClient(daemon.address) as client:
                cold = send(client)
                client.bump_epoch()
                replay = send(client)
                served_pool = client.stats()["server"]["served_pool"]
        for answers in (cold, replay):
            assert all(a["ok"] and a["plannable"] for a in answers)
            assert [a["cost"] for a in answers] == expected
        # the epoch bump turned every cached plan stale: the replay
        # recomputed each distinct query in the pool again
        assert served_pool >= 2 * 9
