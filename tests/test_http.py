"""Live HTTP backends against an in-process loopback server on 127.0.0.1."""

import json
import socket
import threading
import time
from email.utils import formatdate
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from construm import gateway
from construm.gateway import (
    MAX_EMBED_INPUTS,
    MAX_RETRY_AFTER,
    ChatCall,
    GatewayError,
    GatewayTimeout,
    HttpChatBackend,
    HttpEmbeddingBackend,
    ModelGateway,
    TransportError,
    estimate_tokens,
)


class Loopback:
    """Answers each POST with the next queued (status, body, delay, headers)
    reply and records (path, headers, parsed body) of every request."""

    def __init__(self):
        self.replies: list[tuple[int, bytes, float, dict]] = []
        self.requests: list[tuple[str, dict, dict]] = []
        loop = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                loop.requests.append((self.path, dict(self.headers), body))
                status, payload, delay, headers = loop.replies.pop(0)
                time.sleep(delay)
                try:
                    self.send_response(status)
                    self.send_header("Content-Type", "application/json")
                    for name, value in headers.items():
                        self.send_header(name, value)
                    self.send_header("Content-Length", str(len(payload)))
                    self.end_headers()
                    self.wfile.write(payload)
                except (BrokenPipeError, ConnectionResetError):
                    pass  # the client gave up waiting

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, args=(0.01,),
                                       daemon=True)
        self.thread.start()
        self.url = f"http://127.0.0.1:{self.server.server_port}/v1"

    def reply(self, doc, status=200, delay=0.0, headers=None):
        payload = doc if isinstance(doc, bytes) else json.dumps(doc).encode()
        self.replies.append((status, payload, delay, headers or {}))

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()


@pytest.fixture
def loopback(monkeypatch):
    for var in ("NO_PROXY", "no_proxy"):
        monkeypatch.setenv(var, "127.0.0.1")
    server = Loopback()
    yield server
    server.close()


def chat_doc(text, usage=None):
    doc = {"choices": [{"message": {"role": "assistant", "content": text}}]}
    if usage is not None:
        doc["usage"] = usage
    return doc


def test_chat_body_header_and_usage(loopback):
    decoding = {"temperature": 0, "top_p": 0.5, "seed": 7, "stop": ["\n\n"]}
    backend = HttpChatBackend(loopback.url, "m-1", api_key="sk-test", decoding=decoding)
    gw = ModelGateway(chat_backend=backend)
    loopback.reply(chat_doc("ANSWER: C1", {"prompt_tokens": 11, "completion_tokens": 3}))
    reply = gw.complete(ChatCall("decision", "pick one"))
    assert reply.text == "ANSWER: C1"
    path, headers, body = loopback.requests[0]
    assert path == "/v1/chat/completions"
    assert body == {"model": "m-1", "messages": [{"role": "user", "content": "pick one"}],
                    **decoding}
    assert headers["Authorization"] == "Bearer sk-test"
    snap = gw.accounting.snapshot()
    assert (snap.prompt_tokens, snap.completion_tokens, snap.llm_calls) == (11, 3, 1)


@pytest.mark.parametrize("usage", [None, "null"])
def test_no_key_sends_no_bearer_and_missing_usage_is_estimated(loopback, usage):
    backend = HttpChatBackend(loopback.url, "m-1")
    doc = chat_doc("a reply")
    if usage == "null":
        doc["usage"] = None
    loopback.reply(doc)
    raw = backend.chat(ChatCall("decision", "some prompt"))
    assert "Authorization" not in loopback.requests[0][1]
    assert raw.prompt_tokens == estimate_tokens("some prompt")
    assert raw.completion_tokens == estimate_tokens("a reply")


def test_server_error_then_success_goes_through_one_retry(loopback):
    gw = ModelGateway(chat_backend=HttpChatBackend(loopback.url, "m-1"))
    loopback.reply({"error": "overloaded"}, status=500)
    loopback.reply(chat_doc("second time lucky"))
    assert gw.complete(ChatCall("decision", "p")).text == "second time lucky"
    assert len(loopback.requests) == 2
    assert gw.accounting.snapshot().llm_calls == 1


def test_malformed_reply_is_a_transport_error(loopback):
    backend = HttpChatBackend(loopback.url, "m-1")
    loopback.reply(b"{not json")
    with pytest.raises(TransportError):
        backend.chat(ChatCall("decision", "p"))
    loopback.reply({"choices": []})
    with pytest.raises(TransportError, match="malformed"):
        backend.chat(ChatCall("decision", "p"))


def test_reply_slower_than_timeout_is_a_gateway_timeout(loopback):
    backend = HttpChatBackend(loopback.url, "m-1")
    loopback.reply(chat_doc("too late"), delay=0.5)
    with pytest.raises(GatewayTimeout):
        backend.chat(ChatCall("decision", "p", timeout=0.1))


def test_embedding_rows_come_back_in_input_order(loopback):
    backend = HttpEmbeddingBackend(loopback.url, "e-1", api_key="sk-test")
    loopback.reply({"data": [{"index": 2, "embedding": [0.0, 0.0, 3.0]},
                             {"index": 0, "embedding": [1.0, 0.0, 0.0]},
                             {"index": 1, "embedding": [0.0, 2.0, 0.0]}]})
    rows = backend.embed(["a", "b", "c"])
    path, headers, body = loopback.requests[0]
    assert path == "/v1/embeddings"
    assert body == {"model": "e-1", "input": ["a", "b", "c"]}
    assert headers["Authorization"] == "Bearer sk-test"
    np.testing.assert_array_equal(np.stack(rows), np.diag([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("usage", [{"prompt_tokens": "many"}, ["not", "a", "dict"]])
def test_unreadable_usage_is_a_transport_error(loopback, usage):
    loopback.reply(chat_doc("a reply", usage))
    with pytest.raises(TransportError, match="malformed"):
        HttpChatBackend(loopback.url, "m-1").chat(ChatCall("decision", "p"))


def embed_doc(rows):
    return {"data": [{"index": i, "embedding": row} for i, row in enumerate(rows)]}


@pytest.fixture
def waits(monkeypatch):
    recorded = []
    monkeypatch.setattr(gateway, "_sleep", recorded.append)
    return recorded


def test_embedding_server_error_then_success_goes_through_one_retry(loopback, waits):
    gw = ModelGateway(embed_backend=HttpEmbeddingBackend(loopback.url, "e-1"))
    loopback.reply({"error": "overloaded"}, status=500)
    loopback.reply(embed_doc([[1.0, 0.0], [0.0, 1.0]]))
    a, b = gw.embed_batch(["a", "b"])
    np.testing.assert_array_equal(np.stack([a, b]), np.eye(2))
    assert len(loopback.requests) == 2
    assert gw.accounting.snapshot().embed_calls == 1
    assert waits == []  # no Retry-After: the retry is immediate


def test_client_error_fails_at_once_without_retry(loopback):
    gw = ModelGateway(chat_backend=HttpChatBackend(loopback.url, "m-1", api_key="bad"))
    loopback.reply({"error": "invalid api key"}, status=401)
    with pytest.raises(GatewayError, match="401") as info:
        gw.complete(ChatCall("decision", "p"))
    assert not isinstance(info.value, TransportError)
    assert len(loopback.requests) == 1
    assert gw.accounting.snapshot().llm_calls == 0


NOW = 1792335351.0  # Sun, 18 Oct 2026 14:55:51 GMT: a fixed clock keeps the case ids stable


@pytest.mark.parametrize("status,retry_after,expected", [
    (429, "7", [7.0]),
    (503, "3600", [MAX_RETRY_AFTER]),
    (429, formatdate(NOW + 3600, usegmt=True), [MAX_RETRY_AFTER]),
    (429, formatdate(NOW - 3600, usegmt=True), []),
    (429, "soon", []),
    (500, "7", []),  # only 429 and 503 carry a wait
])
def test_retry_after_wait_precedes_the_one_retry(loopback, waits, monkeypatch, status,
                                                 retry_after, expected):
    monkeypatch.setattr(gateway, "_now", lambda: NOW)
    gw = ModelGateway(chat_backend=HttpChatBackend(loopback.url, "m-1"))
    loopback.reply({"error": "slow down"}, status=status, headers={"Retry-After": retry_after})
    loopback.reply(chat_doc("after the wait"))
    assert gw.complete(ChatCall("decision", "p")).text == "after the wait"
    assert waits == expected
    assert len(loopback.requests) == 2
    assert gw.accounting.snapshot().llm_calls == 1


def test_embedding_batch_over_the_cap_is_split_in_order(loopback):
    texts = [f"t{i}" for i in range(MAX_EMBED_INPUTS + 1)]
    # row i points at angle i, so its direction says which text it belongs to
    angles = np.arange(len(texts)) * 1e-3
    rows = np.stack([np.cos(angles), np.sin(angles)], axis=1).tolist()
    first = embed_doc(rows[:MAX_EMBED_INPUTS])
    first["data"].reverse()  # served out of order; the backend sorts by index
    loopback.reply(first)
    loopback.reply(embed_doc(rows[MAX_EMBED_INPUTS:]))
    gw = ModelGateway(embed_backend=HttpEmbeddingBackend(loopback.url, "e-1"))
    vectors = gw.embed_batch(texts)
    assert [body["input"] for _, _, body in loopback.requests] == \
        [texts[:MAX_EMBED_INPUTS], texts[MAX_EMBED_INPUTS:]]
    np.testing.assert_allclose(vectors, rows, atol=1e-12)
    snap = gw.accounting.snapshot()
    assert (snap.embed_calls, snap.embed_texts) == (2, len(texts))


@pytest.mark.parametrize("data,message", [
    ([{"index": 0, "embedding": [1.0, 0.0]}, {"index": 0, "embedding": [0.0, 1.0]},
      {"index": 2, "embedding": [1.0, 1.0]}], "indices"),
    ([{"index": 0, "embedding": [1.0]}, {"index": 1, "embedding": [1.0]}], "indices"),
    ([{"index": 0, "embedding": [1.0]}, {"index": 1, "embedding": [1.0]},
      {"index": 2, "embedding": "not numbers"}], "malformed"),
], ids=["duplicate-index", "missing-row", "non-numeric"])
def test_embedding_reply_that_does_not_fit_its_inputs_is_a_transport_error(loopback, data,
                                                                           message):
    backend = HttpEmbeddingBackend(loopback.url, "e-1")
    loopback.reply({"data": data})
    with pytest.raises(TransportError, match=message):
        backend.embed(["a", "b", "c"])


def test_refused_connection_is_a_transport_error():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]  # closed again before the request
    backend = HttpChatBackend(f"http://127.0.0.1:{port}/v1", "m-1")
    with pytest.raises(TransportError, match="failed"):
        backend.chat(ChatCall("decision", "p", timeout=5.0))
