import contextvars
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest

from construm.gateway import (
    MAX_ATTEMPTS,
    MAX_IN_FLIGHT,
    BackendReply,
    ChatCall,
    DiskCache,
    GatewayError,
    GatewayTimeout,
    HashEmbeddingBackend,
    HttpChatBackend,
    ModelGateway,
    ScriptError,
    ScriptRule,
    TransportError,
    cache_key,
)

from helpers import RecordingChatBackend, RunningCount


def scripted(rules=(), default=None, delay=0.0, cache=None):
    backend = RecordingChatBackend(rules=rules, default=default, delay=delay)
    return backend, ModelGateway(chat_backend=backend,
                                 embed_backend=HashEmbeddingBackend(), cache=cache)


def test_rule_match_returns_reply():
    _, gw = scripted(rules=[ScriptRule("MARK:G1", "ANSWER: C12")])
    reply = gw.complete(ChatCall("decision", "please decide MARK:G1 now"))
    assert reply.text == "ANSWER: C12"
    assert not reply.cache_hit
    assert reply.prompt_tokens > 0 and reply.completion_tokens > 0


def test_repeat_call_hits_cache_with_zero_new_tokens(tmp_path):
    _, gw = scripted(rules=[ScriptRule("ping", "pong")], cache=DiskCache(tmp_path))
    first = gw.complete(ChatCall("decision", "ping"))
    with gw.metered() as meter:
        second = gw.complete(ChatCall("decision", "ping"))
    delta = meter.snapshot()
    assert second.text == first.text
    assert second.cache_hit
    assert delta.total_tokens == 0 and delta.llm_calls == 0
    assert delta.cache_hits == 1


def test_meter_counts_its_own_gateway_in_its_own_context():
    _, gw = scripted(rules=[ScriptRule("ping", "pong")])
    _, other = scripted(rules=[ScriptRule("ping", "pong")])
    call = ChatCall("decision", "ping")
    with gw.metered() as outer:
        gw.complete(call)
        other.complete(call)  # another gateway's call is not this meter's
        with gw.metered() as inner:
            gw.complete(call)
        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(gw.complete, call).result()  # no context: gateway-wide only
            pool.submit(contextvars.copy_context().run, gw.complete, call).result()
    assert inner.snapshot().llm_calls == 1
    assert outer.snapshot().llm_calls == 3
    assert gw.accounting.snapshot().llm_calls == 4
    assert other.accounting.snapshot().llm_calls == 1


def test_concurrent_same_prompt_makes_one_backend_call(tmp_path):
    backend, gw = scripted(rules=[ScriptRule("ping", "pong")], delay=0.05,
                           cache=DiskCache(tmp_path))
    start = threading.Barrier(4, timeout=5)

    def ask():
        start.wait()
        return gw.complete(ChatCall("decision", "ping"))

    replies = gw.concurrently([ask] * 4)
    assert len(backend.call_log) == 1
    snap = gw.accounting.snapshot()
    assert snap.llm_calls == 1 and snap.cache_hits == 3
    assert [r.text for r in replies] == ["pong"] * 4
    assert sorted(r.cache_hit for r in replies) == [False, True, True, True]


def test_single_flight_holds_under_many_threads(tmp_path):
    backend, gw = scripted(rules=[ScriptRule("", "pong")], delay=0.001,
                           cache=DiskCache(tmp_path))
    calls = [partial(gw.complete, ChatCall("decision", f"p{i % 4}")) for i in range(64)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        gw.concurrently(calls)
    finally:
        sys.setswitchinterval(interval)
    snap = gw.accounting.snapshot()
    assert len(backend.call_log) == snap.llm_calls == 4
    assert snap.cache_hits == 60
    assert gw._flights == {}  # every waiter released its key


def test_waiters_retry_on_their_own_when_the_leader_fails(tmp_path):
    backend, gw = scripted(rules=[ScriptRule("abc", "x")], delay=0.02,
                           cache=DiskCache(tmp_path))
    start = threading.Barrier(4, timeout=5)

    def ask():
        start.wait()
        try:
            gw.complete(ChatCall("decision", "nothing matches this"))
        except ScriptError:
            return "failed"

    assert gw.concurrently([ask] * 4) == ["failed"] * 4
    assert len(backend.call_log) == 4  # each waiter made its own attempt
    assert gw.accounting.snapshot().cache_hits == 0
    assert list(tmp_path.glob("*.json")) == []


def test_fan_out_caps_items_in_flight_and_keeps_order():
    cap = 4
    gw = ModelGateway(max_in_flight=cap)
    threads_before = threading.active_count()
    running = RunningCount()
    # the pool's threads and the caller: the first two rounds pass the barrier together
    rounds = threading.Barrier(cap + 1, timeout=5)

    def item(i):
        with running:
            if i < 2 * (cap + 1):
                rounds.wait()
        return i

    assert gw.concurrently([partial(item, i) for i in range(20)]) == list(range(20))
    assert running.most == cap + 1 and running.now == 0
    assert threading.active_count() <= threads_before + cap


def test_nested_fan_outs_share_the_gateways_backend_cap():
    threads_before = threading.active_count()
    total, width = 40, 8  # five fan-outs of eight calls, nested in a sixth
    threads = MAX_IN_FLIGHT + 1  # the pool's and the caller's
    state = threading.Condition()
    started, in_flight, most = [0], [0], [0]

    class Backend:
        backend_id = "counting"

        def chat(self, call):
            with state:
                in_flight[0] += 1
                most[0] = max(most[0], in_flight[0])
                # hold the first calls until every thread has sent one
                assert state.wait_for(lambda: started[0] >= threads, timeout=5)
                in_flight[0] -= 1
            return BackendReply(text=call.prompt, prompt_tokens=1, completion_tokens=1)

    gw = ModelGateway(chat_backend=Backend())

    def ask(i):
        with state:
            started[0] += 1
            state.notify_all()
        return gw.complete(ChatCall("tree_summary", str(i))).text

    replies = gw.concurrently([
        partial(gw.concurrently, [partial(ask, o * width + i) for i in range(width)])
        for o in range(total // width)
    ])
    assert [r for rs in replies for r in rs] == [str(i) for i in range(total)]
    assert most[0] == MAX_IN_FLIGHT and in_flight[0] == 0
    assert threading.active_count() <= threads_before + MAX_IN_FLIGHT


def test_nested_fan_outs_finish_on_a_pool_of_one():
    gw = ModelGateway(max_in_flight=1)

    def level(path):
        if len(path) == 3:
            time.sleep(0.001)  # lets the pool thread claim a share
            return path
        return gw.concurrently([partial(level, path + (i,)) for i in range(3)])

    out = []
    runner = threading.Thread(target=lambda: out.append(level(())), daemon=True)
    runner.start()
    runner.join(timeout=10)
    assert not runner.is_alive()  # a waiting caller ran its own unstarted thunks
    assert out == [[[[(a, b, c) for c in range(3)] for b in range(3)] for a in range(3)]]


def test_fan_out_raises_after_started_items_finish():
    gw = ModelGateway()
    raised = threading.Event()
    finished = []

    def slow():
        assert raised.wait(timeout=5)
        finished.append("slow")

    def failing():
        raised.set()
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        gw.concurrently([slow, failing])
    assert finished == ["slow"]


def test_no_thunk_starts_after_one_raises():
    # a pool of one: the first two thunks run on the pool thread and the
    # caller, so the others could only start after the failure
    gw = ModelGateway(max_in_flight=1)
    raised = threading.Event()
    started = []

    def waits():
        started.append("waits")
        assert raised.wait(timeout=5)

    def failing():
        started.append("failing")
        raised.set()
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        gw.concurrently([waits, failing] + [partial(started.append, i) for i in range(5)])
    assert sorted(started) == ["failing", "waits"]


def test_fan_out_raises_the_first_error_in_submission_order():
    gw = ModelGateway()

    def fail(name):
        def thunk():
            raise ValueError(name)
        return thunk

    for _ in range(20):
        with pytest.raises(ValueError, match="first"):
            gw.concurrently([fail("first"), fail("second"), fail("third")])


def test_fan_out_items_book_into_the_callers_meter():
    _, gw = scripted(rules=[ScriptRule("ping", "pong")])
    with gw.metered() as meter:
        gw.concurrently([lambda: gw.complete(ChatCall("decision", "ping"))] * 3)
    assert meter.snapshot().llm_calls == 3
    assert gw.accounting.snapshot().llm_calls == 3


def test_ask_sends_the_reminder_once_after_a_miss():
    backend, gw = scripted(rules=[ScriptRule("REMIND", "ok: 7")], default="no number")

    def number(text):
        return int(text.split(": ")[1]) if text.startswith("ok: ") else None

    assert gw.ask(ChatCall("decision", "ask"), number, " REMIND")[0] == 7
    assert [p for _, p in backend.call_log] == ["ask", "ask REMIND"]
    parsed, reply = gw.ask(ChatCall("decision", "ask"), number, " again")
    assert parsed is None and reply.text == "no number"
    assert [p for _, p in backend.call_log[2:]] == ["ask", "ask again"]
    assert gw.ask(ChatCall("decision", "REMIND"), number, " unused")[0] == 7
    assert len(backend.call_log) == 5  # a hit on the first send asks once


def test_whitespace_reply_is_retried_then_fails():
    backend, gw = scripted(rules=[ScriptRule("", " \n\t ")])
    with pytest.raises(TransportError, match="empty reply"):
        gw.complete(ChatCall("differentiation", "anything"))
    assert len(backend.call_log) == 2
    assert gw.accounting.snapshot().llm_calls == 0


def test_cache_key_ignores_timeout(tmp_path):
    _, gw = scripted(rules=[ScriptRule("x", "y")], cache=DiskCache(tmp_path))
    gw.complete(ChatCall("decision", "x", timeout=5.0))
    reply = gw.complete(ChatCall("decision", "x", timeout=50.0))
    assert reply.cache_hit
    assert cache_key("b", "decision", "x") == cache_key("b", "decision", "x")
    assert cache_key("b", "decision", "x") != cache_key("b", "relation", "x")


def test_http_backend_id_keys_on_decoding():
    def bid(decoding):
        return HttpChatBackend("http://127.0.0.1:9", "m", decoding=decoding).backend_id

    assert bid({"temperature": 0, "top_p": 1}) == bid({"top_p": 1, "temperature": 0})
    assert bid({"temperature": 0}) != bid({"temperature": 1})
    assert bid({"temperature": 0}) != bid(None)


def test_timeout_retries_then_fails_with_attempt_log():
    backend, gw = scripted(rules=[ScriptRule("slow", "late reply")], delay=0.02)
    with pytest.raises(GatewayTimeout):
        gw.complete(ChatCall("decision", "slow prompt", timeout=0.001))
    # one initial attempt plus the one retry
    assert len(backend.call_log) == MAX_ATTEMPTS == 2


def test_no_matching_rule_is_a_script_error():
    _, gw = scripted(rules=[ScriptRule("abc", "x")])
    with pytest.raises(ScriptError):
        gw.complete(ChatCall("decision", "nothing matches this"))


def test_scripted_backend_is_pure():
    _, gw1 = scripted(rules=[ScriptRule("p", "r")])
    _, gw2 = scripted(rules=[ScriptRule("p", "r")])
    assert gw1.complete(ChatCall("decision", "p")).text == \
        gw2.complete(ChatCall("decision", "p")).text


def test_accounting_totals_equal_non_cached_sum(tmp_path):
    _, gw = scripted(rules=[ScriptRule("", "fixed reply")], cache=DiskCache(tmp_path))
    replies = []
    for prompt in ["a", "b", "a", "c", "b", "a"]:
        replies.append(gw.complete(ChatCall("decision", prompt)))
    snap = gw.accounting.snapshot()
    fresh = [r for r in replies if not r.cache_hit]
    assert snap.total_tokens == sum(r.prompt_tokens + r.completion_tokens for r in fresh)
    assert snap.llm_calls == len(fresh) == 3
    assert snap.cache_hits == 3


def test_cache_record_is_valid_json_on_disk(tmp_path):
    cache = DiskCache(tmp_path)
    _, gw = scripted(rules=[ScriptRule("q", "r")], cache=cache)
    gw.complete(ChatCall("relation", "q"))
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1
    record = json.loads(files[0].read_text())
    assert record["text"] == "r"


def test_invalid_timeout_rejected():
    with pytest.raises(ValueError):
        ChatCall("decision", "x", timeout=0)


# -- embeddings ----------------------------------------------------------------


def test_identical_texts_embed_identically():
    _, gw = scripted()
    a, b = gw.embed_batch(["a", "a"])
    assert np.array_equal(a.values, b.values)
    assert float(np.dot(a.values, b.values)) == pytest.approx(1.0, abs=1e-12)


def test_vectors_are_unit_normalized():
    _, gw = scripted()
    for vec in gw.embed_batch(["alpha beta", "gamma", "alpha beta gamma delta"]):
        assert abs(np.linalg.norm(vec.values) - 1.0) < 1e-6


def test_cosine_matches_independent_dot_oracle():
    _, gw = scripted()
    a, b = gw.embed_batch(["a", "b"])
    reported = float(np.dot(a.values, b.values))
    oracle = sum(x * y for x, y in zip(a.tolist(), b.tolist()))
    assert abs(reported - oracle) < 1e-9


def test_empty_batch_is_an_error():
    _, gw = scripted()
    with pytest.raises(GatewayError, match="empty batch"):
        gw.embed_batch([])


def test_dimension_mismatch_detected():
    class Ragged:
        backend_id = "ragged"

        def embed(self, texts):
            return [np.ones(4), np.ones(5)]

    gw = ModelGateway(embed_backend=Ragged())
    with pytest.raises(GatewayError, match="dimension mismatch"):
        gw.embed_batch(["a", "b"])


def test_hash_embedder_overlap_monotone():
    be = HashEmbeddingBackend()
    gw = ModelGateway(embed_backend=be)
    base = "one two three four five six seven eight"
    near, far = gw.embed_batch([base + " nine", "totally different words here now"])
    (full,) = gw.embed_batch([base])
    cos_near = float(np.dot(full.values, near.values))
    cos_far = float(np.dot(full.values, far.values))
    assert cos_near > 0.85 > cos_far
