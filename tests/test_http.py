"""Live HTTP backends against an in-process loopback server on 127.0.0.1."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from construm.gateway import (
    ChatCall,
    GatewayTimeout,
    HttpChatBackend,
    HttpEmbeddingBackend,
    ModelGateway,
    TransportError,
    estimate_tokens,
)


class Loopback:
    """Answers each POST with the next queued (status, body, delay) reply
    and records (path, headers, parsed body) of every request."""

    def __init__(self):
        self.replies: list[tuple[int, bytes, float]] = []
        self.requests: list[tuple[str, dict, dict]] = []
        loop = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                loop.requests.append((self.path, dict(self.headers), body))
                status, payload, delay = loop.replies.pop(0)
                time.sleep(delay)
                try:
                    self.send_response(status)
                    self.send_header("Content-Type", "application/json")
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

    def reply(self, doc, status=200, delay=0.0):
        payload = doc if isinstance(doc, bytes) else json.dumps(doc).encode()
        self.replies.append((status, payload, delay))

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
