"""The HTTP/1.1 framing both ends of the gateway share.

The server frames requests and :class:`HttpPool` frames answers with one
head and ``Content-Length`` splitter; these tests feed each end's parser
the awkward cuts a socket can deliver, and hold the client to the
``(status, headers, body)`` a ``StreamReader`` line loop reads from the
same bytes.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.gateway.loadgen import HttpPool
from repro.gateway.server import (
    GatewayResponse,
    _encode_response,
    _parse_request,
    status_line,
    take_message,
)

#: The gateway's /invoke answers, as the server encodes them.
ANSWERS = [
    GatewayResponse(200, {"result": {"n": 7}}, mode="vanilla",
                    request_id="req-1"),
    GatewayResponse(404, {"error": "unknown function", "function": "x"},
                    request_id="req-2"),
    GatewayResponse(429, {"error": "overloaded"}, retry_after_seconds=0.25,
                    request_id="req-3"),
    GatewayResponse(503, {"error": "platform draining"},
                    request_id="req-4"),
    GatewayResponse(504, {"error": "deadline exceeded"}, mode="faasbatch",
                    request_id="req-5"),
]


def parse_response(buffer: bytearray):
    """The client's framing: a status line, headers and a body."""
    return take_message(buffer, status_line)


REQUEST = (b"POST /invoke/echo HTTP/1.1\r\nHost: h\r\n"
           b"Content-Type: application/json\r\nContent-Length: 8\r\n\r\n"
           b'{"n":12}')


async def read_with_stream_reader(data: bytes):
    """Read one answer line by line, as a ``StreamReader`` client does."""
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    status = int((await reader.readline()).decode("latin-1").split(" ")[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        key, _, value = line.decode("latin-1").partition(":")
        headers[key.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    body = await reader.readexactly(length) if length else b""
    return status, headers, body


def byte_at_a_time(parse, data: bytes):
    """Feed *data* one byte at a time: nothing before the last byte."""
    buffer = bytearray()
    for index in range(len(data)):
        buffer += data[index:index + 1]
        message = parse(buffer)
        if index < len(data) - 1:
            assert message is None, index
    assert buffer == b""
    return message


@pytest.mark.parametrize("keep_alive", [True, False])
@pytest.mark.parametrize("answer", ANSWERS, ids=lambda a: str(a.status))
class TestAnswers:
    def test_same_as_a_stream_reader(self, answer, keep_alive):
        data = _encode_response(answer, keep_alive)
        expected = asyncio.run(read_with_stream_reader(data))
        assert parse_response(bytearray(data)) == expected
        assert expected[0] == answer.status

    def test_one_byte_at_a_time(self, answer, keep_alive):
        data = _encode_response(answer, keep_alive)
        assert byte_at_a_time(parse_response, data) == \
            parse_response(bytearray(data))


class TestResponseFraming:
    def test_two_pipelined_answers_in_one_chunk(self):
        first, second = (_encode_response(answer, True)
                         for answer in ANSWERS[:2])
        buffer = bytearray(first + second)
        assert parse_response(buffer) == parse_response(bytearray(first))
        assert parse_response(buffer) == parse_response(bytearray(second))
        assert buffer == b"" and parse_response(buffer) is None

    def test_lf_only_lines_and_mixed_case_names(self):
        data = (b"HTTP/1.1 200 OK\nCONTENT-length: 2\nX-Dispatch-Mode: "
                b"vanilla\n\n{}")
        assert parse_response(bytearray(data)) == \
            (200, {"content-length": "2", "x-dispatch-mode": "vanilla"},
             b"{}")

    def test_a_reason_phrase_is_optional(self):
        assert parse_response(bytearray(b"HTTP/1.1 204\r\n\r\n")) == \
            (204, {}, b"")

    @pytest.mark.parametrize("head", [b"SPDY/3 200 OK", b"HTTP/1.1 OK",
                                      b"HTTP/1.1 2000 OK"])
    def test_a_malformed_status_line_is_rejected(self, head):
        with pytest.raises(ValueError):
            parse_response(bytearray(head + b"\r\n\r\n"))


class TestRequestFraming:
    def test_one_byte_at_a_time(self):
        assert byte_at_a_time(_parse_request, REQUEST) == (
            "POST", "/invoke/echo",
            {"host": "h", "content-type": "application/json",
             "content-length": "8"},
            b'{"n":12}', True)

    def test_two_pipelined_requests_in_one_chunk(self):
        buffer = bytearray(REQUEST + REQUEST.replace(b"12}", b"34}"))
        assert _parse_request(buffer)[3] == b'{"n":12}'
        assert _parse_request(buffer)[3] == b'{"n":34}'
        assert buffer == b""

    def test_lf_only_lines_and_mixed_case_names(self):
        buffer = bytearray(b"GET /stats HTTP/1.0\nCONNECTION: Keep-Alive\n"
                           b"X-Mixed-Case: Value\n\n")
        assert _parse_request(buffer) == (
            "GET", "/stats",
            {"connection": "Keep-Alive", "x-mixed-case": "Value"}, b"",
            True)


class TestPoolOverTheWire:
    def test_answers_dribbled_a_byte_per_write(self):
        """The pool's protocol frames each answer out of its receive
        buffer however the bytes arrive."""

        async def scenario():
            writers = []

            async def handle(reader, writer):
                writers.append(writer)
                try:
                    for answer in ANSWERS:
                        head = await reader.readuntil(b"\r\n\r\n")
                        length = int(head.lower().split(
                            b"content-length: ")[1].split(b"\r\n")[0])
                        await reader.readexactly(length)
                        data = _encode_response(answer, True)
                        for index in range(len(data)):
                            writer.write(data[index:index + 1])
                            await writer.drain()
                            await asyncio.sleep(0)
                except (asyncio.IncompleteReadError, ConnectionError):
                    pass
                writer.close()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            pool = HttpPool("127.0.0.1", server.sockets[0].getsockname()[1],
                            size=1)
            await pool.start()
            try:
                return [await pool.request("/invoke/echo", {"n": n})
                        for n in range(len(ANSWERS))]
            finally:
                await pool.close()
                server.close()
                for writer in writers:
                    writer.transport.abort()
                await server.wait_closed()

        got = asyncio.run(scenario())
        assert got == [asyncio.run(read_with_stream_reader(
            _encode_response(answer, True))) for answer in ANSWERS]

    def test_a_cancelled_request_leaves_its_answer_behind(self):
        """The connection that owes a cancelled request's answer is
        dropped, so that answer never reaches the next request."""

        async def scenario():
            writers, requests = [], []

            async def handle(reader, writer):
                writers.append(writer)
                try:
                    while True:
                        await reader.readuntil(b"\r\n\r\n")
                        requests.append(writer)
                        body = b"fresh"
                        if len(requests) == 1:  # answered after its timeout
                            await asyncio.sleep(0.2)
                            body = b"late!"
                        writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: "
                                     b"5\r\n\r\n" + body)
                        await writer.drain()
                except (asyncio.IncompleteReadError, ConnectionError):
                    pass
                writer.close()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            pool = HttpPool("127.0.0.1", server.sockets[0].getsockname()[1],
                            size=1)
            await pool.start()
            try:
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(pool.request("/invoke/echo", None),
                                           0.05)
                return await pool.request("/invoke/echo", None)
            finally:
                await pool.close()
                server.close()
                for writer in writers:
                    writer.transport.abort()
                await server.wait_closed()

        status, _, body = asyncio.run(scenario())
        assert (status, body) == (200, b"fresh")
