"""Frame protocol: length-prefixed marshal documents over a stream socket."""

import marshal
import math
import socket
import struct

import pytest

from repro.service import protocol


@pytest.fixture()
def pair():
    left, right = socket.socketpair()
    left.settimeout(5.0)
    right.settimeout(5.0)
    try:
        yield left, right
    finally:
        left.close()
        right.close()


class TestFrames:
    def test_request_round_trip(self, pair):
        left, right = pair
        sent = protocol.request(7, protocol.OP_PREDICT,
                                {"model": "kw-a100", "batch_size": 64})
        protocol.send_frame(left, sent)
        assert protocol.recv_frame(right) == sent

    def test_response_round_trip(self, pair):
        left, right = pair
        sent = protocol.response(7, 404, {"error": "unknown model"})
        protocol.send_frame(left, sent)
        received = protocol.recv_frame(right)
        assert protocol.parse_response(received) == (
            404, {"error": "unknown model"})

    def test_back_to_back_frames_do_not_bleed(self, pair):
        left, right = pair
        for request_id in range(3):
            protocol.send_frame(left, protocol.request(
                request_id, protocol.OP_PING, {}))
        for request_id in range(3):
            assert protocol.recv_frame(right)["id"] == request_id

    def test_large_payload(self, pair):
        left, right = pair
        payload = {"items": [{"network": "x" * 64}] * 2000}
        done = []

        # a frame bigger than the socketpair buffer needs a concurrent
        # reader; send from a thread and receive here
        import threading

        def sender():
            done.append(protocol.send_frame(
                left, protocol.request(1, protocol.OP_PREDICT_BATCH,
                                       payload)))

        thread = threading.Thread(target=sender)
        thread.start()
        received = protocol.recv_frame(right)
        thread.join(timeout=5)
        assert received["payload"] == payload
        body = marshal.dumps(
            protocol.request(1, protocol.OP_PREDICT_BATCH, payload))
        assert done == [4 + len(body)]
        assert marshal.loads(body) == received

    @pytest.mark.parametrize("make", [protocol.request, protocol.response],
                             ids=["request", "response"])
    def test_values_round_trip_exactly(self, pair, make):
        left, right = pair
        value = {"gpu": "TITAN RTX – Ω 東京", "nan": math.nan,
                 "inf": math.inf, "-inf": -math.inf, "-0": -0.0,
                 "tiny": 5e-324, "big": 2 ** 62, "none": None,
                 "flags": [True, False],
                 "nested": [[1, [2.5, ["deep", []]]], {"k": [None]}]}
        sent = (make(9, protocol.OP_PREDICT, value)
                if make is protocol.request else make(9, 200, value))
        protocol.send_frame(left, sent)
        received = protocol.recv_frame(right)
        got = received.get("payload", received.get("body"))
        assert math.isnan(got.pop("nan"))
        expected = dict(value)
        del expected["nan"]
        assert got == expected
        assert math.copysign(1.0, got["-0"]) == -1.0
        assert [type(x) for x in got["flags"]] == [bool, bool]
        assert received["id"] == 9


class TestConnectionClosed:
    def test_eof_between_frames_is_clean(self, pair):
        left, right = pair
        left.close()
        with pytest.raises(protocol.ConnectionClosed) as excinfo:
            protocol.recv_frame(right)
        assert excinfo.value.clean is True

    def test_eof_inside_header_is_dirty(self, pair):
        left, right = pair
        left.sendall(b"\x00\x00")                 # half a length prefix
        left.close()
        with pytest.raises(protocol.ConnectionClosed) as excinfo:
            protocol.recv_frame(right)
        assert excinfo.value.clean is False

    def test_eof_inside_body_is_dirty(self, pair):
        left, right = pair
        left.sendall(struct.pack(">I", 100) + b"{\"truncated")
        left.close()
        with pytest.raises(protocol.ConnectionClosed) as excinfo:
            protocol.recv_frame(right)
        assert excinfo.value.clean is False


class TestCorruption:
    def test_over_limit_length_prefix_rejected(self, pair):
        left, right = pair
        left.sendall(struct.pack(">I", protocol.MAX_FRAME_BYTES + 1))
        with pytest.raises(protocol.ProtocolError, match="exceeds"):
            protocol.recv_frame(right)

    @pytest.mark.parametrize("body", [
        b"not json at all",
        b"\xff\xfe\xfd",
        b"",
        marshal.dumps({"id": 1, "op": "ping", "payload": {}})[:-3],
        marshal.dumps({"id": 1, "op": "ping", "payload": {}})[:1],
        marshal.dumps([1, 2, 3]),
        marshal.dumps(None),
    ], ids=["text", "bad-type-code", "empty", "truncated",
            "one-byte", "not-a-dict", "none"])
    def test_garbled_body_rejected(self, pair, body):
        left, right = pair
        left.sendall(struct.pack(">I", len(body)) + body)
        with pytest.raises(protocol.ProtocolError):
            protocol.recv_frame(right)

    def test_parse_response_rejects_non_responses(self):
        with pytest.raises(protocol.ProtocolError, match="not a response"):
            protocol.parse_response({"id": 1, "op": "predict"})
        with pytest.raises(protocol.ProtocolError, match="not a response"):
            protocol.parse_response("nope")

    def test_worker_ops_cover_every_constant(self):
        names = {value for name, value in vars(protocol).items()
                 if name.startswith("OP_")}
        assert names == set(protocol.WORKER_OPS)
