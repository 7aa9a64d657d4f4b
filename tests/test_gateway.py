import contextvars
import hashlib
import json
import logging
import os
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import cache, partial

import numpy as np
import pytest

from construm import gateway
from construm.gateway import (
    MAX_ATTEMPTS,
    MAX_EMBED_INPUTS,
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
    sign_directions,
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


def test_a_corrupt_cache_record_is_discarded_and_written_again(tmp_path, caplog):
    backend, gw = scripted(rules=[ScriptRule("q", "r")], cache=DiskCache(tmp_path))
    record = tmp_path / f"{cache_key(backend.backend_id, 'relation', 'q')}.json"
    record.write_text('{"text": "torn', encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="construm.gateway"):
        reply = gw.complete(ChatCall("relation", "q"))
    assert reply.text == "r" and not reply.cache_hit
    assert len(backend.call_log) == 1
    assert [r.getMessage() for r in caplog.records] == [
        f"discarding corrupt cache record {record}"]
    assert json.loads(record.read_text(encoding="utf-8"))["text"] == "r"
    assert gw.complete(ChatCall("relation", "q")).cache_hit


def test_invalid_timeout_rejected():
    with pytest.raises(ValueError):
        ChatCall("decision", "x", timeout=0)


# -- embeddings ----------------------------------------------------------------


def test_identical_texts_embed_identically():
    _, gw = scripted()
    a, b = gw.embed_batch(["a", "a"])
    assert np.array_equal(a, b)
    assert float(np.dot(a, b)) == pytest.approx(1.0, abs=1e-12)


def test_vectors_are_unit_normalized():
    _, gw = scripted()
    for vec in gw.embed_batch(["alpha beta", "gamma", "alpha beta gamma delta"]):
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-6


def test_cosine_matches_independent_dot_oracle():
    _, gw = scripted()
    a, b = gw.embed_batch(["a", "b"])
    reported = float(np.dot(a, b))
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


def test_an_embedding_reply_one_row_short_is_retried_then_fails():
    class OneShort:
        backend_id = "one-short"
        calls = 0

        def embed(self, texts):
            self.calls += 1
            return [np.ones(4)] * (len(texts) - 1)

    backend = OneShort()
    gw = ModelGateway(embed_backend=backend)
    with pytest.raises(TransportError, match="returned 2 vectors for 3 texts"):
        gw.embed_batch(["a", "b", "c"])
    assert backend.calls == MAX_ATTEMPTS == 2
    assert gw.accounting.snapshot().embed_calls == 0


def test_hash_embedder_overlap_monotone():
    be = HashEmbeddingBackend()
    gw = ModelGateway(embed_backend=be)
    base = "one two three four five six seven eight"
    near, far = gw.embed_batch([base + " nine", "totally different words here now"])
    (full,) = gw.embed_batch([base])
    cos_near = float(np.dot(full, near))
    cos_far = float(np.dot(full, far))
    assert cos_near > 0.85 > cos_far


def test_zero_vector_is_an_error():
    class Zero:
        backend_id = "zero"

        def embed(self, texts):
            return [np.ones(4), np.zeros(4)]

    gw = ModelGateway(embed_backend=Zero())
    with pytest.raises(GatewayError, match="zero embedding vector"):
        gw.embed_batch(["a", "b"])


# -- the batch pass against the per-token running sum ------------------------
#
# The reference below is the hash embedder as a per-token loop: each token's
# direction made on its own in Python integers, added to a running sum that
# starts at zeros, and each sum divided by its own norm. The batch pass must
# give the same bytes.

MASK64 = (1 << 64) - 1


def reference_direction(seed, dim):
    """Words k < ceil(dim / 64) of splitmix64's stream over ``seed``, each the
    Mix13 finaliser of seed + (k + 1) * gamma, read bit by bit from the least
    significant, as 1 - 2 * bit."""
    entries = []
    for k in range(-(-dim // 64)):
        z = (seed + (k + 1) * 0x9E3779B97F4A7C15) & MASK64
        z = ((z ^ z >> 30) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ z >> 27) * 0x94D049BB133111EB) & MASK64
        z ^= z >> 31
        entries.extend(1.0 - 2.0 * (z >> bit & 1) for bit in range(64))
    return np.array(entries[:dim])


@cache  # a token's direction is read, never written
def reference_token_vector(token, dim=64, seed=0):
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8,
                             salt=str(seed).encode()[:16]).digest()
    return reference_direction(int.from_bytes(digest, "little"), dim)


def reference_embed(texts, dim=64, seed=0):
    out = []
    for text in texts:
        acc = np.zeros(dim, dtype=np.float64)
        for tok in text.split() or [""]:
            acc += reference_token_vector(tok, dim, seed)
        out.append(acc)
    return out


def reference_from_raw(raw):
    v = np.asarray(raw, dtype=np.float64)
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise GatewayError("cannot normalize a zero embedding vector")
    return v / n


def same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


VOCABULARY = (["id", "name", "amount", "date", "status", "k", "x1", "total_amount"]
              + ["café", "naïve", "Größe", "日付", "金额", "₹", "😀", "ñ"])
SEPARATORS = (" ", "  ", "\t", "\n", " \u3000 ")


def random_batch(rng, n_texts, vocabulary):
    texts = ["", " \t\n "]  # no token: each embeds as the token ""
    for _ in range(n_texts):
        n = int(rng.integers(1, 301))
        tokens = [vocabulary[int(i)] for i in rng.integers(len(vocabulary), size=n)]
        seps = [SEPARATORS[int(i)] for i in rng.integers(len(SEPARATORS), size=n)]
        texts.append("".join(s + t for s, t in zip(seps, tokens)) + seps[0])
    rng.shuffle(texts)
    return texts


@pytest.mark.parametrize("dim,seed", [(64, 0), (16, 7)])
def test_batch_pass_equals_the_per_token_running_sum(dim, seed):
    rng = np.random.default_rng(dim + seed)
    vocabulary = VOCABULARY + [f"w{i}" for i in range(200)]
    backend = HashEmbeddingBackend(dim=dim, seed=seed)
    gw = ModelGateway(embed_backend=HashEmbeddingBackend(dim=dim, seed=seed))
    # the second batch runs warm: most of its tokens are cached, a few are new
    cold = random_batch(rng, 40, vocabulary[:150])
    warm = random_batch(rng, 40, vocabulary + ["fresh", "tokens", "only", "here"])
    for texts in (cold, warm):
        want = reference_embed(texts, dim, seed)
        raw = backend.embed(texts)
        assert len(raw) == len(texts)
        assert all(same_bytes(r, w) for r, w in zip(raw, want))
        got = gw.embed_batch(texts)
        assert all(same_bytes(g, reference_from_raw(w)) for g, w in zip(got, want))


def test_batch_over_several_calls_equals_the_per_row_normalisation():
    texts = [f"col{i % 97} of table{i % 13}" for i in range(MAX_EMBED_INPUTS + 50)]
    gw = ModelGateway(embed_backend=HashEmbeddingBackend())
    got = gw.embed_batch(texts)
    assert gw.accounting.snapshot().embed_calls == 2
    assert got.shape == (len(texts), 64) and got.dtype == np.float64
    assert got.flags.c_contiguous
    want = reference_embed(texts)
    assert all(same_bytes(g, reference_from_raw(w)) for g, w in zip(got, want))


@pytest.mark.parametrize("dim", [1, 3, 64, 1536])
def test_batch_normalisation_equals_the_per_row_one(dim):
    rng = np.random.default_rng(dim)
    rows = rng.standard_normal((50, dim)) * rng.uniform(1e-3, 1e3, size=(50, 1))

    class Fixed:
        backend_id = "fixed"

        def embed(self, texts):  # float32 arrays and plain lists, as a backend may return
            return [rows[int(t)].astype(np.float32) if int(t) % 2 else rows[int(t)].tolist()
                    for t in texts]

    got = ModelGateway(embed_backend=Fixed()).embed_batch([str(i) for i in range(50)])
    want = Fixed().embed([str(i) for i in range(50)])
    assert all(same_bytes(g, reference_from_raw(w)) for g, w in zip(got, want))


def test_mixed_batch_across_calls_equals_the_running_sum():
    # 1-300-token texts and empty ones, more than MAX_EMBED_INPUTS of them,
    # so the gateway makes two calls
    rng = np.random.default_rng(11)
    vocabulary = VOCABULARY + [f"w{i}" for i in range(300)]
    texts = random_batch(rng, MAX_EMBED_INPUTS + 100, vocabulary)
    texts[5:5] = ["", "", " "]
    backend = HashEmbeddingBackend()
    assert len(texts) > MAX_EMBED_INPUTS
    want = reference_embed(texts)
    raw = backend.embed(texts)
    assert raw.shape == (len(texts), 64)
    assert all(same_bytes(r, w) for r, w in zip(raw, want))
    gw = ModelGateway(embed_backend=HashEmbeddingBackend())
    got = gw.embed_batch(texts)
    assert gw.accounting.snapshot().embed_calls == 2
    assert all(same_bytes(g, reference_from_raw(w)) for g, w in zip(got, want))


def test_embedding_no_text_gives_an_empty_matrix():
    for dim in (64, 3):
        got = HashEmbeddingBackend(dim=dim).embed([])
        assert got.shape == (0, dim) and got.dtype == np.float64


class CraftedEmbedder(HashEmbeddingBackend):
    """Directions chosen by the test, so the sum's start and order show."""

    def __init__(self, directions):
        super().__init__(dim=2)
        self.directions = directions

    def _token_vectors(self, tokens, out):
        for row, token in zip(out, tokens):
            row[:] = self.directions[token]


def test_sum_starts_at_positive_zero_and_adds_in_token_order():
    # -0.0 alone sums to +0.0 from a +0.0 start; 1e16 + 1 rounds back to
    # 1e16, so the order of "big one minus" decides the result
    directions = {"neg": [-0.0, -0.0], "big": [1e16, 1.0], "one": [1.0, 1e16],
                  "minus": [-1e16, -1e16], "": [0.5, -0.0]}
    texts = ["neg", "neg neg", "big one minus", "one big minus", "minus big one",
             "big minus one neg", "", "neg big one minus neg"]
    want = [sum((np.array(directions[t]) for t in text.split() or [""]), np.zeros(2))
            for text in texts]
    backend = CraftedEmbedder(directions)
    got = backend.embed(texts)
    alone = [backend.embed([text])[0] for text in texts]
    for rows in (got, alone):
        assert all(same_bytes(g, w) for g, w in zip(rows, want))
        assert not np.signbit(rows[:2]).any()  # +0.0 + -0.0 is +0.0


def test_a_taken_table_keeps_its_bytes_while_another_batch_grows_it(monkeypatch):
    monkeypatch.setattr(gateway, "_TABLE_BYTES", 16 * 8 * 64)  # a 16-row first table
    backend = HashEmbeddingBackend()
    backend.embed(["id name amount"])
    taken = backend._table  # what a batch summing now reads
    rows = len(backend._rows)
    before = taken[:rows].copy()
    capacity = len(taken)
    assert capacity == 16
    # enough new tokens that the table must grow
    backend.embed([f"t{i} u{i}" for i in range(capacity)])
    assert len(backend._table) > capacity and backend._table is not taken
    assert same_bytes(taken[:rows], before)
    assert same_bytes(backend._table[:rows], before)
    assert all(same_bytes(g, w) for g, w in zip(backend.embed(["id name amount", "t7 u7"]),
                                                reference_embed(["id name amount", "t7 u7"])))


class CountingEmbedder(HashEmbeddingBackend):
    def __init__(self):
        super().__init__()
        self.created = []  # list.extend is atomic, so no lock of its own

    def _token_vectors(self, tokens, out):
        self.created.extend(tokens)
        super()._token_vectors(tokens, out)


def test_concurrent_batches_give_the_bytes_of_serial_ones():
    rng = np.random.default_rng(5)
    vocabulary = VOCABULARY + [f"w{i}" for i in range(400)]
    # each batch draws from an overlapping window, so unseen tokens overlap
    batches = [random_batch(rng, 30, vocabulary[40 * i:40 * i + 120]) for i in range(8)]
    serial_gw = ModelGateway(embed_backend=HashEmbeddingBackend())
    serial = [serial_gw.embed_batch(b) for b in batches]
    backend = CountingEmbedder()
    concurrent_gw = ModelGateway(embed_backend=backend, max_in_flight=8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        concurrent = concurrent_gw.concurrently([partial(concurrent_gw.embed_batch, b)
                                                 for b in batches])
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(concurrent, serial):
        assert all(same_bytes(g, w) for g, w in zip(got, want))
    # every token's direction was made once, however the batches interleaved
    assert sorted(backend.created) == sorted({t for b in batches for text in b
                                              for t in text.split() or [""]})


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_never_writes_its_parents_rows():
    backend = HashEmbeddingBackend()
    backend.embed(["a b c"])
    go_read, go_write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: once the parent has its new rows, add its own at the same indices
        status = 1
        try:
            os.read(go_read, 1)
            backend.embed(["x y z"])
            status = 0
        finally:
            os._exit(status)
    backend.embed(["p q r"])
    os.write(go_write, b"1")
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    os.close(go_read)
    os.close(go_write)
    assert same_bytes(backend.embed(["p q r"])[0], reference_embed(["p q r"])[0])


def test_concurrent_batches_that_grow_the_table_give_the_bytes_of_serial_ones(monkeypatch):
    # a 16-row first table, so batches copy it into larger ones while others sum
    monkeypatch.setattr(gateway, "_TABLE_BYTES", 16 * 8 * 64)
    test_concurrent_batches_give_the_bytes_of_serial_ones()


# -- new token directions, against the Python-integer reference --------------

EDGE_SEEDS = [0, 1, 2**31, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
ALPHABET = "abcxyz_019 éïñßÅ€₹日付金额😀\u3000\u200b"


def random_tokens(n, seed):
    rng = random.Random(seed)
    tokens = [""]
    while len(tokens) < n:
        # a few characters of the alphabet, or any code point but a surrogate
        chars = [rng.choice(ALPHABET) if rng.random() < 0.8 else
                 chr(rng.choice([rng.randrange(0xD800), rng.randrange(0xE000, 0x110000)]))
                 for _ in range(rng.randrange(1, 13))]
        tokens.append("".join(chars))
    return tokens


@pytest.mark.parametrize("dim", [1, 16, 63, 64, 65, 130])
def test_token_vectors_equal_the_reference_and_are_signs(dim):
    tokens = random_tokens(10_000, dim)
    got = np.empty((len(tokens), dim))
    HashEmbeddingBackend(dim=dim)._token_vectors(tokens, got)
    assert np.isin(got, (1.0, -1.0)).all()
    assert all(same_bytes(g, reference_token_vector(t, dim)) for g, t in zip(got, tokens))
    got = np.empty((len(EDGE_SEEDS), dim))  # seeds whose counter words wrap
    sign_directions(np.array(EDGE_SEEDS, dtype=np.uint64), got)
    assert all(same_bytes(g, reference_direction(s, dim)) for g, s in zip(got, EDGE_SEEDS))


# -- sign directions against the seeded normals they replace -----------------
#
# Until the sign rule, a token's direction was
# np.random.default_rng(seed).standard_normal(dim). Random +-1 directions keep
# the Gaussian ones' Johnson-Lindenstrauss bound (Achlioptas, JCSS 2003): under
# either rule the cosine of two independent directions has mean 0 and
# variance 1/dim, so thresholds on cosines mean what they meant before.


def random_seeds(n, seed):
    rng = np.random.default_rng(seed)
    drawn = np.frombuffer(rng.bytes(8 * n), dtype="<u8")
    return np.concatenate([np.array(EDGE_SEEDS, dtype=np.uint64), drawn])


def pairwise_cosines(directions):
    unit = directions / np.linalg.norm(directions, axis=1, keepdims=True)
    return (unit @ unit.T)[np.triu_indices(len(unit), k=1)]


@pytest.mark.parametrize("dim", [1, 16, 64, 1536])
def test_seeded_normals_equal_default_rng(dim):
    # equal in distribution: the sign directions' cosines have the mean and
    # variance of the cosines of default_rng's seeded normals over the same seeds
    seeds = random_seeds(600, dim)
    signs = np.empty((len(seeds), dim))
    sign_directions(seeds, signs)
    normals = np.array([np.random.default_rng(int(s)).standard_normal(dim) for s in seeds])
    for directions in (signs, normals):
        cosines = pairwise_cosines(directions)
        assert abs(cosines.mean()) < 0.05 / np.sqrt(dim)
        assert abs(np.mean(cosines ** 2) * dim - 1) < 0.05


def test_a_batch_that_fails_to_hash_keeps_none_of_its_tokens():
    backend = HashEmbeddingBackend()
    backend.embed(["id name"])
    with pytest.raises(UnicodeEncodeError):  # a lone surrogate has no UTF-8 form
        backend.embed(["amount \ud800 date"])
    assert list(backend._rows) == ["id", "name"]
    texts = ["amount date", "id name amount"]
    assert all(same_bytes(g, w) for g, w in zip(backend.embed(texts), reference_embed(texts)))


def test_seed_longer_than_the_salt_is_refused():
    # blake2b's salt holds 16 bytes; these two seeds share their first 16
    # characters, so they would embed alike under different backend ids
    for seed in (12345678901234560, 12345678901234569, -1234567890123456):
        with pytest.raises(ValueError, match="longer than 16 characters"):
            HashEmbeddingBackend(seed=seed)
    texts = ["name amount", "id", ""]
    for seed in (0, 7, 1234567890123456, -123456789012345):
        got = HashEmbeddingBackend(seed=seed).embed(texts)
        assert all(same_bytes(g, w) for g, w in zip(got, reference_embed(texts, 64, seed)))
