"""The HTTP/1.1 framing both ends of the gateway share.

The server frames requests and :class:`HttpPool` frames answers with one
head and ``Content-Length`` splitter; these tests feed each end's parser
the awkward cuts a socket can deliver, and hold the client to the
``(status, headers, body)`` a ``StreamReader`` line loop reads from the
same bytes.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Callable, Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway.loadgen import HttpPool
from repro.gateway.server import (
    _JSON_HEADS,
    _REASONS,
    MAX_BODY_BYTES,
    MAX_HEADER_LINES,
    MAX_LINE_BYTES,
    GatewayResponse,
    _BodyTooLarge,
    _encode_response,
    _head,
    _parse_request,
    _request_line,
    decode_json,
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


# -- the reference: the framing and encoding this module replaced, verbatim --


class _RefBodyTooLarge(ValueError):
    """A declared ``Content-Length`` above :data:`MAX_BODY_BYTES`."""


def ref_take_message(buffer: bytearray, start_line: Callable[[str], Any]):
    """Take one whole message off *buffer* (both ends frame with this):
    ``(start_line(first line), lower-cased headers, body)``, ``None`` while
    incomplete; ValueError if malformed (:class:`_BodyTooLarge`: 413)."""
    end = buffer.find(b"\n\r\n")
    bare = buffer.find(b"\n\n", 0, end if end >= 0 else len(buffer))
    if bare >= 0:
        end, body_at = bare, bare + 2
    elif end >= 0:
        body_at = end + 3
    elif len(buffer) > MAX_LINE_BYTES * (MAX_HEADER_LINES + 1):
        raise ValueError("message head too long")
    else:
        return None
    lines = buffer[:end].decode("latin-1").split("\n")
    if len(lines) > MAX_HEADER_LINES + 1:
        raise ValueError("too many header lines")
    if end > MAX_LINE_BYTES and max(map(len, lines)) > MAX_LINE_BYTES:
        raise ValueError("header line too long")
    start = start_line(lines[0].rstrip("\r"))
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        # Without chunked decoding the chunks would be read as messages.
        raise ValueError("Transfer-Encoding is not supported")
    length = int(headers.get("content-length", "0") or "0")
    if length < 0:
        raise ValueError(f"bad content length {length}")
    if length > MAX_BODY_BYTES:
        raise _RefBodyTooLarge(
            f"content length {length} exceeds {MAX_BODY_BYTES}")
    if len(buffer) < body_at + length:
        return None
    body = bytes(buffer[body_at:body_at + length])
    del buffer[:body_at + length]
    return start, headers, body


def ref_request_line(line: str) -> List[str]:
    parts = line.split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ValueError(f"malformed request line: {parts!r}")
    return parts


def ref_status_line(line: str) -> int:
    """The status code of a response's first line."""
    version, status, *_ = line.split(" ", 2)
    if not version.startswith("HTTP/1.") or len(status) != 3:
        raise ValueError(f"malformed status line: {line!r}")
    return int(status)


def ref_parse_request(buffer: bytearray):
    message = ref_take_message(buffer, ref_request_line)
    if message is None:
        return None
    (method, path, version), headers, body = message
    tokens = {token.strip()
              for token in headers.get("connection", "").lower().split(",")}
    keep_alive = ("keep-alive" in tokens if version == "HTTP/1.0"
                  else "close" not in tokens)
    return method, path, headers, body, keep_alive


_ENCODE_JSON = json.JSONEncoder(separators=(",", ":")).encode


def ref_encode_response(response: GatewayResponse, keep_alive: bool) -> bytes:
    """Status line, headers and body of *response* as one buffer."""
    if response.text is not None:
        payload = response.text.encode("utf-8")
        head = _head(response.status, response.content_type or "text/plain")
    else:
        payload = _ENCODE_JSON(response.body).encode("utf-8")
        head = (_JSON_HEADS.get(response.status)
                or _head(response.status, "application/json"))
    lines = [head, str(len(payload)),
             "\r\nConnection: keep-alive\r\n" if keep_alive
             else "\r\nConnection: close\r\n"]
    if response.request_id is not None:
        lines.append(f"X-Request-Id: {response.request_id}\r\n")
    if response.mode is not None:
        lines.append(f"X-Dispatch-Mode: {response.mode}\r\n")
    if response.retry_after_seconds is not None:
        lines.append(f"Retry-After: "
                     f"{max(response.retry_after_seconds, 0.001):.3f}\r\n")
    lines.append("\r\n")
    return "".join(lines).encode("latin-1") + payload


# -- what to feed both ------------------------------------------------------

_NAMES = st.sampled_from([
    "Host", "Content-Type", "CONTENT-LENGTH", "content-length",
    "Connection", "connection", "Transfer-Encoding", "X-Request-Id",
    "X-Dispatch-Mode", "Accept", " Padded ", "", "x"])
_LENGTHS = st.one_of(
    st.integers(0, 40).map(str),
    st.sampled_from(["", "-1", " 7 ", "abc", "1_0", "0x10",
                     str(MAX_BODY_BYTES), str(MAX_BODY_BYTES + 1)]))
_VALUES = st.one_of(
    st.sampled_from(["keep-alive", "close", "Keep-Alive, Upgrade",
                     " close ,keep-alive", "chunked", "127.0.0.1:8080",
                     "\x0bvalue\x85", "a:b:c", ""]),
    st.text(st.characters(min_codepoint=0x20, max_codepoint=0xff,
                          blacklist_characters="\r\n"), max_size=12))
_HEADER_LINES = st.one_of(
    st.tuples(_NAMES, _VALUES).map(lambda kv: f"{kv[0]}: {kv[1]}"),
    st.tuples(st.just("Content-Length"), _LENGTHS).map(
        lambda kv: f"{kv[0]}:{kv[1]}"),
    st.text(st.characters(min_codepoint=1, max_codepoint=0xff,
                          blacklist_characters="\r\n"), max_size=20),
    st.just("X-Long: " + "v" * MAX_LINE_BYTES))
_CONNECTION_VALUES = st.sampled_from([
    "keep-alive", "close", "Keep-Alive, Upgrade", " close ,keep-alive",
    "KEEP-ALIVE", "upgrade", "close,", ""])
_REQUEST_LINES = st.one_of(
    st.sampled_from(["POST /invoke/echo HTTP/1.1", "GET /stats HTTP/1.0"]),
    st.sampled_from(["POST /invoke/echo HTTP/1.1", "GET /stats HTTP/1.0",
                     "GET /healthz HTTP/1.1", "GET  HTTP/1.1", "BREW /pot",
                     "GET / SPDY/3", "get /x HTTP/1.9 extra", ""]),
    st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e),
            max_size=24))
_STATUS_LINES = st.one_of(
    st.sampled_from(["HTTP/1.1 200 OK", "HTTP/1.0 404 Not Found",
                     "HTTP/1.1 204", "HTTP/1.1 2000 OK", "SPDY/3 200 OK",
                     "HTTP/1.1 OK", "HTTP/1.1 abc x", ""]),
    st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e),
            max_size=24))


@st.composite
def messages(draw, start_lines) -> bytes:
    """One message: a start line, header lines, a blank line, a body —
    CRLF or LF-only lines, and a body that may be shorter or longer
    than its ``Content-Length``."""
    newline = draw(st.sampled_from(["\r\n", "\n"]))
    lines = [draw(start_lines)] + draw(st.lists(
        _HEADER_LINES, max_size=6 if draw(st.booleans())
        else MAX_HEADER_LINES + 2))
    if draw(st.booleans()):
        lines.append("Connection: " + draw(_CONNECTION_VALUES))
    body = draw(st.binary(max_size=40))
    if draw(st.booleans()):
        lines.append(f"Content-Length: {len(body)}")
    head = newline.join(lines) + newline + newline
    return head.encode("latin-1") + body


@st.composite
def streams(draw, start_lines):
    """One or two pipelined messages (or raw garbage) and the cuts a
    socket delivers them in."""
    data = b"".join(draw(st.lists(
        st.one_of(messages(start_lines), st.binary(max_size=30)),
        min_size=1, max_size=2)))
    cuts = sorted(draw(st.lists(st.integers(0, len(data)), max_size=6)))
    return data, cuts


def frames(parse, data: bytes, cuts: List[int]) -> list:
    """Everything *parse* makes of *data* fed in the chunks *cuts*
    mark: each message, or the status its error answers (400 or 413,
    and the stream ends there), and what is left unparsed."""
    buffer, out = bytearray(), []
    for start, end in zip([0] + cuts, cuts + [len(data)]):
        buffer += data[start:end]
        while True:
            try:
                message = parse(buffer)
            except (_BodyTooLarge, _RefBodyTooLarge):
                return out + [413]
            except ValueError:
                return out + [400]
            if message is None:
                break
            out.append(message)
    return out + [bytes(buffer)]


class TestAgainstTheReference:
    """The framing and encoding agree with the code they replaced on
    every message, well formed or not, however it is cut."""

    @settings(max_examples=300, deadline=None)
    @given(streams(_REQUEST_LINES))
    def test_requests_frame_the_same(self, stream):
        data, cuts = stream
        assert frames(_parse_request, data, cuts) == \
            frames(ref_parse_request, data, cuts)
        assert frames(lambda b: take_message(b, _request_line), data,
                      cuts) == \
            frames(lambda b: ref_take_message(b, ref_request_line), data,
                   cuts)

    @settings(max_examples=300, deadline=None)
    @given(streams(_STATUS_LINES))
    def test_responses_frame_the_same(self, stream):
        data, cuts = stream
        assert frames(lambda b: take_message(b, status_line), data,
                      cuts) == \
            frames(lambda b: ref_take_message(b, ref_status_line), data,
                   cuts)

    def test_an_over_long_head_is_refused_alike(self):
        data = b"GET / HTTP/1.1\r\n" + b"x" * (
            MAX_LINE_BYTES * (MAX_HEADER_LINES + 1))
        assert frames(_parse_request, data, []) == \
            frames(ref_parse_request, data, []) == [400]

    @settings(max_examples=300, deadline=None)
    @given(status=st.one_of(st.sampled_from(sorted(_REASONS)),
                            st.integers(100, 599)),
           body=st.recursive(
               st.one_of(st.none(), st.booleans(), st.integers(),
                         st.floats(), st.text(max_size=8)),
               lambda inner: st.one_of(
                   st.lists(inner, max_size=3),
                   st.dictionaries(st.text(max_size=5), inner,
                                   max_size=3)),
               max_leaves=8),
           request_id=st.one_of(st.none(), st.text(
               st.characters(max_codepoint=0xff), max_size=12)),
           mode=st.sampled_from([None, "batch", "vanilla"]),
           retry_after=st.one_of(st.none(), st.floats(-1.0, 100.0)),
           text=st.one_of(st.none(), st.text(max_size=20)),
           content_type=st.sampled_from([None, "text/plain; version=0.0.4"]),
           keep_alive=st.booleans())
    def test_answers_encode_the_same(self, status, body, request_id, mode,
                                     retry_after, text, content_type,
                                     keep_alive):
        response = GatewayResponse(
            status, {"result": body}, mode=mode,
            retry_after_seconds=retry_after, request_id=request_id,
            text=text, content_type=content_type)
        assert _encode_response(response, keep_alive) == \
            ref_encode_response(response, keep_alive)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.recursive(
            st.one_of(st.none(), st.booleans(), st.integers(),
                      st.floats(), st.text(max_size=8)),
            lambda inner: st.one_of(
                st.lists(inner, max_size=3),
                st.dictionaries(st.text(max_size=5), inner, max_size=3)),
            max_leaves=8).map(lambda value: json.dumps(value).encode()),
        st.binary(max_size=24),
        st.sampled_from([b" 1", b"1 ", b"\xef\xbb\xbf{}", b"[1,",
                         b'"\x00"', "\"\u00e9\"".encode("utf-16"),
                         b"[" * 100_000])))
    def test_bodies_decode_the_same(self, body):
        def outcome(decode):
            try:
                return decode(body)
            except (ValueError, RecursionError) as error:
                return type(error).__name__, str(error)

        got, want = outcome(decode_json), outcome(json.loads)
        # NaN is not equal to itself: compare the JSON each encodes to.
        assert json.dumps(got) == json.dumps(want)
