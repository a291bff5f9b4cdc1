"""Tests of the live wire transport (frames, codec, retry policy).

The timeout/backoff tests inject a fake dialer and a recording sleep,
so no test here ever sleeps for real.
"""

import asyncio
import socket

import pytest

from repro.errors import ProtocolError, TransientNetworkError
from repro.net.transport import (
    MAX_FRAME_BYTES,
    RetryPolicy,
    async_request,
    decode_payload,
    encode_frame,
    encode_payload,
    format_address,
    parse_address,
    read_frame,
    read_frame_sync,
    remote_error,
    request,
    write_frame,
)


class TestAddresses:
    def test_roundtrip(self):
        assert parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)
        assert format_address(("localhost", 80)) == "localhost:80"

    @pytest.mark.parametrize("bad", ["", "nohost", ":123", "h:port"])
    def test_bad_addresses(self, bad):
        with pytest.raises(ProtocolError):
            parse_address(bad)


class TestPayloadCodec:
    def test_int_dict_keys_survive(self):
        original = {1065: {"load": 3}, 2**70: [1, 2], -1: None}
        assert decode_payload(encode_payload(original)) == original

    def test_nested_and_tuples(self):
        original = {"a": [(1, 2), {"b": {7: "x"}}], "c": True}
        decoded = decode_payload(encode_payload(original))
        # tuples become lists over JSON; everything else is unchanged
        assert decoded == {"a": [[1, 2], {"b": {7: "x"}}], "c": True}

    def test_scalars_passthrough(self):
        for value in (None, True, 3, 2.5, "s"):
            assert decode_payload(encode_payload(value)) == value

    def test_numpy_scalars_coerced(self):
        import numpy as np

        encoded = encode_payload({np.int64(4): np.uint64(9)})
        assert decode_payload(encoded) == {4: 9}


#: bodies that are not a UTF-8 JSON object, each a well-framed message
MALFORMED_BODIES = {
    "utf8": b"\xff\xfe\xfd",
    "json": b"not json",
    "array": b"[1, 2]",
}


def _framed(body: bytes) -> bytes:
    return len(body).to_bytes(4, "big") + body


class TestFrames:
    def _read(self, data: bytes):
        async def go():
            reader = asyncio.StreamReader()
            if data:
                reader.feed_data(data)
            reader.feed_eof()
            return await read_frame(reader)

        return asyncio.run(go())

    def test_roundtrip(self):
        payload = {"op": "hello", "n": 3}
        assert self._read(encode_frame(payload)) == payload

    def test_clean_eof_is_none(self):
        assert self._read(b"") is None

    def test_truncated_header_raises(self):
        with pytest.raises(ProtocolError):
            self._read(b"\x00\x00")

    def test_truncated_body_raises(self):
        frame = encode_frame({"op": "x"})
        with pytest.raises(ProtocolError):
            self._read(frame[:-2])

    def test_oversized_announcement_rejected(self):
        header = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError):
            self._read(header)

    @pytest.mark.parametrize(
        "body", list(MALFORMED_BODIES.values()), ids=list(MALFORMED_BODIES)
    )
    def test_malformed_body_is_protocol_error(self, body):
        with pytest.raises(ProtocolError):
            self._read(_framed(body))


class TestSyncFrames:
    """The blocking reader classifies every malformed frame the same way."""

    def _read(self, data: bytes):
        ours, theirs = socket.socketpair()
        with ours, theirs:
            ours.sendall(data)
            ours.shutdown(socket.SHUT_WR)
            return read_frame_sync(theirs)

    def test_roundtrip_and_clean_eof(self):
        assert self._read(encode_frame({"op": "x"})) == {"op": "x"}
        assert self._read(b"") is None

    @pytest.mark.parametrize(
        "data",
        [
            b"\x00\x00",
            encode_frame({"op": "x"})[:-2],
            (MAX_FRAME_BYTES + 1).to_bytes(4, "big"),
        ]
        + [_framed(body) for body in MALFORMED_BODIES.values()],
        ids=["header", "body", "oversized", *MALFORMED_BODIES],
    )
    def test_malformed_frame_is_protocol_error(self, data):
        with pytest.raises(ProtocolError):
            self._read(data)


class TestRetryPolicy:
    def test_defaults_validate(self):
        policy = RetryPolicy()
        assert policy.retries >= 0 and policy.timeout > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timeout": 0},
            {"retries": -1},
            {"backoff": -0.1},
            {"backoff_factor": 0.5},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ProtocolError):
            RetryPolicy(**kwargs)

    def test_exponential_delay(self):
        policy = RetryPolicy(backoff=0.1, backoff_factor=2.0)
        assert [policy.delay(i) for i in range(3)] == [0.1, 0.2, 0.4]

    def test_single_shot_strips_budget(self):
        policy = RetryPolicy(timeout=0.5, retries=3)
        solo = policy.single_shot()
        assert solo.retries == 0 and solo.timeout == 0.5
        assert solo.single_shot() is solo


class TestRemoteErrorMapping:
    def test_app_error(self):
        err = remote_error({"kind": "app", "error": "no such key"})
        assert isinstance(err, ProtocolError)
        assert not getattr(err, "transport_failure", False)

    def test_transport_error(self):
        err = remote_error({"kind": "transport", "error": "dead id"})
        assert err.transport_failure is True
        assert not isinstance(err, TransientNetworkError)

    def test_transient_error(self):
        err = remote_error({"kind": "transient", "error": "dropped"})
        assert isinstance(err, TransientNetworkError)


class _FakeSocket:
    """Answers one exchange from a canned response frame."""

    def __init__(self, response: bytes):
        self._buf = response
        self.sent = b""

    def sendall(self, data: bytes) -> None:
        self.sent += data

    def recv(self, n: int) -> bytes:
        chunk, self._buf = self._buf[:n], self._buf[n:]
        return chunk

    def close(self) -> None:
        pass


class TestSyncRequestFakeClock:
    """Timeout/retry/backoff behaviour without any real sleeping."""

    def test_timeout_retries_then_transient(self):
        dials = []
        slept = []

        def dial(addr, timeout):
            dials.append((addr, timeout))
            raise socket.timeout("fake timeout")

        policy = RetryPolicy(timeout=0.25, retries=2, backoff=0.1)
        with pytest.raises(TransientNetworkError):
            request(
                ("10.0.0.1", 1),
                {"op": "stats"},
                policy=policy,
                dial=dial,
                sleep=slept.append,
            )
        # 1 first attempt + 2 resends, each dialed with the per-message
        # timeout; backoff grows exponentially between attempts
        assert dials == [(("10.0.0.1", 1), 0.25)] * 3
        assert slept == [pytest.approx(0.1), pytest.approx(0.2)]

    def test_connection_refused_retries(self):
        attempts = []

        def dial(addr, timeout):
            attempts.append(1)
            raise ConnectionRefusedError("fake refusal")

        with pytest.raises(TransientNetworkError):
            request(
                ("h", 1),
                {"op": "stats"},
                policy=RetryPolicy(retries=1),
                dial=dial,
                sleep=lambda _s: None,
            )
        assert len(attempts) == 2

    def test_zero_budget_fails_fast(self):
        slept = []
        with pytest.raises(TransientNetworkError):
            request(
                ("h", 1),
                {"op": "stats"},
                policy=RetryPolicy(retries=0),
                dial=lambda a, t: (_ for _ in ()).throw(socket.timeout()),
                sleep=slept.append,
            )
        assert slept == []

    def test_remote_error_not_retried(self):
        """The peer answered: retrying would duplicate the message."""
        dials = []
        frame = encode_frame(
            {"ok": False, "kind": "app", "error": "no such key"}
        )

        def dial(addr, timeout):
            dials.append(1)
            return _FakeSocket(frame)

        with pytest.raises(ProtocolError) as info:
            request(
                ("h", 1),
                {"op": "client_get", "key": 7},
                policy=RetryPolicy(retries=3),
                dial=dial,
                sleep=lambda _s: None,
            )
        assert len(dials) == 1
        assert not isinstance(info.value, TransientNetworkError)

    @pytest.mark.parametrize(
        "body", list(MALFORMED_BODIES.values()), ids=list(MALFORMED_BODIES)
    )
    def test_malformed_reply_is_protocol_error(self, body):
        """A garbage answer was still delivered: classified, not retried."""
        dials = []

        def dial(addr, timeout):
            dials.append(1)
            return _FakeSocket(_framed(body))

        with pytest.raises(ProtocolError) as info:
            request(
                ("h", 1),
                {"op": "stats"},
                policy=RetryPolicy(retries=3),
                dial=dial,
                sleep=lambda _s: None,
            )
        assert len(dials) == 1
        assert not isinstance(info.value, TransientNetworkError)

    def test_success_decodes_value(self):
        frame = encode_frame(
            {"ok": True, "value": encode_payload({"r": {5: "x"}})}
        )
        value = request(
            ("h", 1),
            {"op": "rpc"},
            policy=RetryPolicy(retries=0),
            dial=lambda a, t: _FakeSocket(frame),
            sleep=lambda _s: None,
        )
        assert value == {"r": {5: "x"}}


class TestAsyncLoopback:
    """One real (loopback) exchange through the asyncio client."""

    def test_roundtrip_and_error(self):
        async def serve(reader, writer):
            while (payload := await read_frame(reader)) is not None:
                if payload["op"] == "boom":
                    await write_frame(
                        writer,
                        {"ok": False, "kind": "transport", "error": "dead"},
                    )
                else:
                    await write_frame(
                        writer,
                        {"ok": True, "value": encode_payload(payload)},
                    )
            writer.close()

        async def main():
            server = await asyncio.start_server(serve, "127.0.0.1", 0)
            addr = server.sockets[0].getsockname()[:2]
            policy = RetryPolicy(timeout=5.0, retries=0)
            echoed = await async_request(
                addr, {"op": "hello", "n": 1}, policy=policy
            )
            assert echoed == {"op": "hello", "n": 1}
            with pytest.raises(ProtocolError) as info:
                await async_request(addr, {"op": "boom"}, policy=policy)
            assert info.value.transport_failure is True
            server.close()
            await server.wait_closed()

        asyncio.run(main())

    def test_unreachable_is_transient(self):
        async def main():
            # bind-then-close guarantees an unused port
            server = await asyncio.start_server(
                lambda r, w: None, "127.0.0.1", 0
            )
            addr = server.sockets[0].getsockname()[:2]
            server.close()
            await server.wait_closed()
            slept = []

            async def sleep(seconds):
                slept.append(seconds)

            with pytest.raises(TransientNetworkError):
                await async_request(
                    addr,
                    {"op": "stats"},
                    policy=RetryPolicy(timeout=0.5, retries=1, backoff=0.01),
                    sleep=sleep,
                )
            assert len(slept) == 1

        asyncio.run(main())
