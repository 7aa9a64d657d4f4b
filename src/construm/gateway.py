"""Uniform access to a chat model and an embedding model.

One ``ModelGateway`` fronts whichever backends are configured: live
chat-completions and embeddings HTTP endpoints for real runs, or a scripted
backend that maps prompts to canned replies for deterministic tests and
offline demos. The gateway owns the cross-cutting concerns so callers never
do: per-call timeouts, one retry loop shared by chat and embeddings,
embedding batches split into calls of at most ``MAX_EMBED_INPUTS``
texts, token/call accounting, and an append-only disk cache of chat replies
(content-addressed by backend, role and prompt). ``ModelGateway.concurrently``
is the one place that starts threads; one value, ``max_in_flight``, bounds
both its threads and the chat calls at the backend, however fan-outs nest.
So that numpy's bundled OpenBLAS starts no second set of busy threads beside
that pool, importing the gateway sets it to one thread, unless the
environment already sets ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS``.

Both live backends POST JSON through ``_post_json``, built on the standard
library's ``urllib``. A timeout, HTTP 408, 429 or 5xx, a failed connection
or a reply that is not JSON is retried once, after the wait a 429 or 503
asks for in ``Retry-After`` (at most ``MAX_RETRY_AFTER`` seconds); any
other HTTP error fails at once.

The deterministic embedder maps each whitespace token to a seeded random
direction and sums them, so token overlap between two texts translates
into cosine similarity without any model in the loop. A direction is
``np.random.default_rng(seed).standard_normal(dim)`` byte for byte, but a
batch's new tokens run numpy's ``SeedSequence`` hash as one array pass
(``seed_sequence_states``) and seed each ``PCG64`` from its result.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar, copy_context
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np
from numpy.random.bit_generator import ISeedSequence

logger = logging.getLogger(__name__)

ROLE_TAGS = ("tree_summary", "relation", "differentiation", "decision")
MAX_IN_FLIGHT = 16  # default max_in_flight: a gateway's fan-out threads and backend calls
MAX_ATTEMPTS = 2  # one try and one retry, for chat and embedding calls alike
MAX_EMBED_INPUTS = 2048  # most texts one embeddings request carries (OpenAI's cap)
MAX_RETRY_AFTER = 30.0  # longest Retry-After wait, in seconds, honoured before the retry
EMBED_TIMEOUT = 60.0  # seconds for one embeddings request

T = TypeVar("T")

_sleep = time.sleep  # the pause before a retry; tests replace it to record waits
_now = time.time  # the clock an HTTP-date Retry-After is read against; tests fix it


def openblas_function(name: str) -> Callable[..., int] | None:
    """``name`` (``get_num_threads``, ``set_num_threads``) from the OpenBLAS in
    numpy's wheel, or None when there is none (MKL, Accelerate, a system BLAS)."""
    for path in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))  # numpy has loaded it, so this is the same library
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)
    return None


# After a multi-threaded product, OpenBLAS workers spin-wait on the cores that
# ``concurrently``'s pool and the build's own thread need. construm's products
# are small enough that one thread costs them little (README: the trade-off).
if not {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    _set_blas_threads = openblas_function("set_num_threads")
    if _set_blas_threads is not None:
        _set_blas_threads(1)


class GatewayError(Exception):
    """Base for model-access failures."""


class GatewayTimeout(GatewayError):
    pass


class TransportError(GatewayError):
    """A failed exchange worth one retry.

    ``retry_after`` is the wait in seconds that a 429 or 503 reply asked for.
    """

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class ScriptError(GatewayError):
    """Scripted backend has no rule matching the prompt (test-mode error)."""


@dataclass
class ChatCall:
    role_tag: str
    prompt: str
    timeout: float = 90.0

    def __post_init__(self):
        if self.timeout <= 0:
            raise ValueError("timeout must be > 0")


@dataclass
class ChatReply:
    text: str
    prompt_tokens: int
    completion_tokens: int
    latency: float
    cache_hit: bool = False


@dataclass
class EmbeddingVector:
    """One unit-normalized float64 embedding, as ``embed_batch`` returns it.

    A ``Hypergraph`` stacks these rows into its single embedding matrix.
    """

    values: np.ndarray

    def tolist(self) -> list[float]:
        return self.values.tolist()


def estimate_tokens(text: str) -> int:
    # ~4 chars per token; only used by backends that report no usage
    return (len(text) + 3) // 4


# -- accounting --------------------------------------------------------------


@dataclass(frozen=True)
class AccountingSnapshot:
    llm_calls: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    cache_hits: int = 0
    embed_calls: int = 0
    embed_texts: int = 0
    latency: float = 0.0

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


class TokenAccounting:
    """Thread-safe counters; totals equal the sum over non-cache-hit replies."""

    def __init__(self, parent: "TokenAccounting | None" = None):
        self._lock = threading.Lock()
        self._snap = AccountingSnapshot()
        self._parent = parent

    def _add(self, **deltas):
        with self._lock:
            s = self._snap
            self._snap = replace(s, **{k: getattr(s, k) + v for k, v in deltas.items()})
        if self._parent is not None:
            self._parent._add(**deltas)

    def snapshot(self) -> AccountingSnapshot:
        with self._lock:
            return self._snap


# -- disk cache --------------------------------------------------------------


class DiskCache:
    """Append-only directory of content-addressed JSON reply records.

    Writes go through a temp file followed by an atomic rename, so
    concurrent writers can never leave a torn record behind.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> dict | None:
        p = self._path(key)
        try:
            return json.loads(p.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except json.JSONDecodeError:
            logger.warning("discarding corrupt cache record %s", p)
            return None

    def put(self, key: str, record: dict):
        p = self._path(key)
        tmp = p.with_name(p.name + f".tmp{os.getpid()}.{threading.get_ident()}")
        tmp.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")
        os.replace(tmp, p)


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def cache_key(backend_id: str, role_tag: str, prompt: str) -> str:
    # backend_id covers everything else that decides a reply (script content,
    # model, decoding); timeout/retry settings are deliberately not part of it
    h = hashlib.sha256()
    h.update(backend_id.encode("utf-8"))
    h.update(b"\x00")
    h.update(role_tag.encode("utf-8"))
    h.update(b"\x00")
    h.update(prompt.encode("utf-8"))
    return h.hexdigest()


# -- chat backends -----------------------------------------------------------


@dataclass
class BackendReply:
    text: str
    prompt_tokens: int
    completion_tokens: int
    latency: float | None = None  # None: gateway measures wall time


@dataclass(frozen=True)
class ScriptRule:
    contains: str
    reply: str


class ScriptedChatBackend:
    """Pure prompt->reply backend driven by substring rules.

    The reply depends only on the prompt text and the loaded script: first
    matching rule wins, then the optional ``responder`` callable, then the
    optional ``default``. A missing match raises :class:`ScriptError`. An
    injected ``delay`` (seconds, slept for real) exercises timeout paths.
    It keeps no state between calls. A script loaded with ``from_file``
    puts a hash of its rules and default into ``backend_id``, so an edited
    script never hits stale cached replies.
    """

    def __init__(self, rules: Sequence[ScriptRule] = (), default: str | None = None,
                 responder: Callable[[str], str | None] | None = None,
                 delay: float = 0.0, backend_id: str = "scripted"):
        self.rules = tuple(rules)
        self.default = default
        self.responder = responder
        self.delay = delay
        self.backend_id = backend_id

    @classmethod
    def from_file(cls, path) -> "ScriptedChatBackend":
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        rules = [ScriptRule(r["contains"], r["reply"]) for r in doc.get("rules", [])]
        default = doc.get("default")
        script = canonical_json({
            "rules": [[r.contains, r.reply] for r in rules], "default": default,
        })
        digest = hashlib.sha256(script.encode("utf-8")).hexdigest()
        return cls(
            rules=rules,
            default=default,
            delay=float(doc.get("delay", 0.0)),
            backend_id=f"scripted:{Path(path).name}:{digest}",
        )

    def chat(self, call: ChatCall) -> BackendReply:
        if self.delay:
            time.sleep(self.delay)
        text = None
        for rule in self.rules:
            if rule.contains in call.prompt:
                text = rule.reply
                break
        if text is None and self.responder is not None:
            text = self.responder(call.prompt)
        if text is None:
            text = self.default
        if text is None:
            raise ScriptError(
                f"no scripted rule matches prompt (role={call.role_tag}): "
                f"{call.prompt[:120]!r}"
            )
        return BackendReply(
            text=text,
            prompt_tokens=estimate_tokens(call.prompt),
            completion_tokens=estimate_tokens(text),
            latency=self.delay,
        )


def _post_json(url: str, body: dict, api_key: str | None, timeout: float):
    """POST ``body`` as JSON and return the decoded JSON reply.

    A timeout raises ``GatewayTimeout``. HTTP 408, 429 and 5xx, a failed
    connection and a reply that is not JSON raise ``TransportError``, which
    the gateway retries. Any other HTTP error raises a plain ``GatewayError``.
    """
    # imported here: with ssl they weigh a few MB, which offline runs never need
    import http.client
    import urllib.error
    import urllib.request

    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    request = urllib.request.Request(url, data=json.dumps(body).encode("utf-8"),
                                     headers=headers, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            payload = resp.read()
    except urllib.error.HTTPError as exc:
        exc.close()  # the error body is not read
        if exc.code in (408, 429) or exc.code >= 500:
            wait = _retry_after(exc.headers) if exc.code in (429, 503) else None
            raise TransportError(f"HTTP {exc.code} from {url}", retry_after=wait) from exc
        raise GatewayError(f"HTTP {exc.code} from {url}") from exc
    except (OSError, http.client.HTTPException) as exc:
        # a timeout while connecting comes wrapped in a URLError
        if isinstance(getattr(exc, "reason", exc), TimeoutError):
            raise GatewayTimeout(f"{url} timed out after {timeout}s") from exc
        raise TransportError(f"request to {url} failed: {exc}") from exc
    try:
        return json.loads(payload)
    except ValueError as exc:
        raise TransportError(f"reply from {url} is not JSON: {payload[:200]!r}") from exc


def _retry_after(headers) -> float | None:
    """Seconds a reply's ``Retry-After`` header asks to wait (RFC 9110 10.2.3).

    The header holds either delta-seconds or an HTTP-date; a missing or
    unreadable one gives None.
    """
    import email.utils

    value = (headers.get("Retry-After") or "").strip()
    if value.isdigit():
        return float(value)
    try:
        return max(0.0, email.utils.parsedate_to_datetime(value).timestamp() - _now())
    except (TypeError, ValueError):
        return None


class HttpChatBackend:
    """Chat-completions style HTTP backend.

    POSTs ``{model, messages: [{role, content}], **decoding}`` to
    ``<base_url>/chat/completions`` with a bearer key. Decoding parameters
    are passed through untouched from configuration, and ``backend_id``
    carries them next to the model so the reply cache keys on both.
    """

    def __init__(self, base_url: str, model: str = "gpt-5", api_key: str | None = None,
                 decoding: dict | None = None):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key = api_key
        self.decoding = dict(decoding or {})
        self.backend_id = f"http:{self.base_url}:{model}:{canonical_json(self.decoding)}"

    def chat(self, call: ChatCall) -> BackendReply:
        body = {"model": self.model,
                "messages": [{"role": "user", "content": call.prompt}], **self.decoding}
        doc = _post_json(f"{self.base_url}/chat/completions", body, self.api_key, call.timeout)
        try:
            text = doc["choices"][0]["message"]["content"] or ""
            usage = doc.get("usage") or {}
            return BackendReply(
                text=text,
                prompt_tokens=int(usage.get("prompt_tokens", estimate_tokens(call.prompt))),
                completion_tokens=int(usage.get("completion_tokens", estimate_tokens(text))),
            )
        except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
            raise TransportError(f"malformed chat response: {doc!r:.200}") from exc


# -- embedding backends ------------------------------------------------------


# numpy's SeedSequence hash (``numpy/random/bit_generator.pyx``), a port of
# O'Neill's seed_seq_fe from the PCG paper (O'Neill 2014, HMC-CS-2014-0905);
# the names are numpy's. It works on uint32 words, so every product wraps.
POOL_SIZE = 4  # SeedSequence's default pool size, in uint32 words
STATE_WORDS = 4  # uint64 words PCG64 asks its seed sequence for
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
XSHIFT = 16  # half of a uint32's bits
MASK32 = 0xFFFFFFFF


def _hash_constants(init: int, mult: int, n: int) -> list[tuple[int, int]]:
    """The first ``n`` (xor, multiplier) pairs of a hash whose constant starts
    at ``init`` and is multiplied by ``mult`` before each use. They do not
    depend on the data, so every seed of a batch uses the same ones."""
    pairs = []
    for _ in range(n):
        nxt = init * mult & MASK32
        pairs.append((init, nxt))
        init = nxt
    return pairs


# mix_entropy hashes 4 pool words, then 12 more in its all-pairs mix;
# generate_state(4, np.uint64) hashes 8 uint32 output words
_HASHMIX = _hash_constants(INIT_A, MULT_A, POOL_SIZE * POOL_SIZE)
_OUTPUT = _hash_constants(INIT_B, MULT_B, 2 * STATE_WORDS)


def _hashmix(value: np.ndarray, xor: int, mult: int) -> np.ndarray:
    # numpy's hashmix, with its running constant taken from a precomputed pair;
    # generate_state hashes each output word the same way
    value = (value ^ xor) * np.uint32(mult)
    return value ^ value >> XSHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(MIX_MULT_L) * x - np.uint32(MIX_MULT_R) * y
    return result ^ result >> XSHIFT


def seed_sequence_states(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for each seed ``s`` of
    a uint64 array, as an ``(n, 4)`` uint64 array, all seeds at once.

    numpy's entropy for a seed is its uint32 words, low first: one word
    below 2**32, else two. The pool hashes zero words past the entropy, so
    every 64-bit seed hashes as its low word, its high word and two zeros.
    """
    zero = np.zeros(len(seeds), dtype=np.uint32)
    entropy = ((seeds & MASK32).astype(np.uint32), (seeds >> 32).astype(np.uint32), zero, zero)
    constants = iter(_HASHMIX)
    pool = [_hashmix(word, *next(constants)) for word in entropy]
    # mix_entropy: every pool word into every other, so late bits reach early ones
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(constants)))
    words = np.empty((len(seeds), 2 * STATE_WORDS), dtype="<u4")
    for i, (xor, mult) in enumerate(_OUTPUT):
        words[:, i] = _hashmix(pool[i % POOL_SIZE], xor, mult)
    # word pairs read as little-endian uint64, as generate_state does
    return words.view("<u8").astype(np.uint64)


class _SeedState(ISeedSequence):
    """Hands ``PCG64`` the state words ``seed_sequence_states`` derived for
    one seed, where numpy would derive them with ``SeedSequence``."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != STATE_WORDS or np.dtype(dtype) != np.uint64:
            raise ValueError(f"only {STATE_WORDS} uint64 words were derived, "
                             f"not {n_words} of {np.dtype(dtype)}")
        return self.words


def seeded_normals(seeds: np.ndarray, dim: int) -> list[np.ndarray]:
    """``np.random.default_rng(s).standard_normal(dim)`` for each seed ``s``
    of a uint64 array, byte for byte. ``SeedSequence``'s hash runs for all
    seeds at once; numpy's ``PCG64`` and ``Generator`` do the rest."""
    return [np.random.Generator(np.random.PCG64(_SeedState(words))).standard_normal(dim)
            for words in seed_sequence_states(seeds)]


class HashEmbeddingBackend:
    """Deterministic 64-d test embedder: no model, no network.

    Each whitespace token hashes (with the seed) to a fixed pseudo-random
    direction; a text embeds as the sum of its token directions. Texts
    sharing more tokens therefore get a higher cosine, which is enough to
    exercise similarity thresholds end to end. The seed salts the token
    hash, so its decimal form must fit blake2b's 16-byte salt.

    A batch is one pass. A first scan, one text at a time, keeps only the
    tokens no earlier batch has seen, and ``_token_vectors`` gives them
    their directions together. Then one numpy call per text sums that
    text's directions in token order, which gives the same bytes as adding
    them one by one.
    """

    def __init__(self, dim: int = 64, seed: int = 0):
        self._salt = str(seed).encode()
        if len(self._salt) > 16:
            # a longer seed would share its directions with every seed of the
            # same first 16 characters
            raise ValueError(f"seed {seed} is longer than 16 characters")
        self.dim = dim
        self.seed = seed
        self.backend_id = f"hash{dim}:{seed}"
        self._token_cache: dict[str, np.ndarray] = {}
        self._lock = threading.Lock()  # one batch at a time adds its unseen tokens

    def _token_vectors(self, tokens: Iterable[str]) -> list[np.ndarray]:
        """Each token's direction, seeded by its 8-byte blake2b digest read
        as a little-endian integer."""
        digests = b"".join(hashlib.blake2b(t.encode("utf-8"), digest_size=8,
                                           salt=self._salt).digest() for t in tokens)
        return seeded_normals(np.frombuffer(digests, dtype="<u8"), self.dim)

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        vectors = self._token_cache
        with self._lock:
            unseen = dict.fromkeys(t for text in texts for t in text.split() or ("",)
                                   if t not in vectors)
            if unseen:  # the array pass has a fixed cost of ~0.1 ms; a warm batch skips it
                vectors.update(zip(unseen, self._token_vectors(unseen)))
        out = np.empty((len(texts), self.dim))
        for row, text in zip(out, texts):
            # initial=0.0: the running sum starts from +0.0, as ``zeros + v`` does
            np.add.reduce([vectors[t] for t in text.split() or ("",)], axis=0,
                          out=row, initial=0.0)
        return out


class HttpEmbeddingBackend:
    """Embeddings endpoint backend (``{model, input: [...]}`` POST)."""

    def __init__(self, base_url: str, model: str = "text-embedding-3-small",
                 api_key: str | None = None):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key = api_key
        self.backend_id = f"http-embed:{self.base_url}:{model}"

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        doc = _post_json(f"{self.base_url}/embeddings",
                         {"model": self.model, "input": list(texts)}, self.api_key, EMBED_TIMEOUT)
        try:
            rows = sorted(doc["data"], key=lambda d: d["index"])
            indices = [r["index"] for r in rows]
            vectors = [np.asarray(r["embedding"], dtype=np.float64) for r in rows]
        except (KeyError, TypeError, ValueError) as exc:
            raise TransportError(f"malformed embedding response: {doc!r:.200}") from exc
        if indices != list(range(len(texts))):
            raise TransportError(f"embedding reply indices {indices[:10]} are not "
                                 f"0..{len(texts) - 1}")
        return vectors


# -- gateway -----------------------------------------------------------------


# the innermost open meter of this context, with the gateway it belongs to
_METER: ContextVar[tuple["ModelGateway", TokenAccounting] | None] = ContextVar(
    "construm_meter", default=None)


class ModelGateway:
    """Shared front door for all chat and embedding traffic.

    Concurrency-safe: the cache writes atomically, counters take a lock,
    and scripted backends are pure functions of the prompt. With a cache,
    concurrent calls that share a cache key make one backend call, and the
    others get its reply as a cache hit, as they would in a serial run.
    ``max_in_flight`` sizes both the ``concurrently`` pool and the chat
    slots at the backend. An attempt holds a slot only while the backend
    has it, so a retry's wait and a caller blocked on a fan-out hold none.
    """

    def __init__(self, chat_backend=None, embed_backend=None, cache: DiskCache | None = None,
                 max_in_flight: int = MAX_IN_FLIGHT):
        self.chat_backend = chat_backend
        self.embed_backend = embed_backend
        self.cache = cache
        self.accounting = TokenAccounting()
        self._flights: dict[str, list] = {}  # cache key -> [lock, holders and waiters]
        self._flights_lock = threading.Lock()
        # threads start on demand and end with the gateway; ValueError below 1
        self._pool = ThreadPoolExecutor(max_in_flight, thread_name_prefix="construm-fan-out")
        self._in_flight = threading.BoundedSemaphore(max_in_flight)

    def concurrently(self, thunks: Sequence[Callable[[], T]]) -> list[T]:
        """Run independent thunks concurrently; results come in submission order.

        Thunks start in submission order on the pool and on the caller, which
        runs each one no pool thread has claimed and then waits only for
        running ones, so nested fan-outs cannot deadlock. Each runs in a copy
        of the caller's context, so its calls book into the caller's meter.
        Once one raises, no further thunk starts; the first error in
        submission order is re-raised after every started thunk has finished.
        """
        jobs = iter([(i, copy_context(), thunk) for i, thunk in enumerate(thunks)])
        results: list = [None] * len(thunks)
        errors: list[BaseException | None] = [None] * len(thunks)
        claim = threading.Lock()

        def drain():
            nonlocal jobs
            while True:
                with claim:
                    job = next(jobs, None)
                if job is None:
                    return
                i, ctx, thunk = job
                try:
                    results[i] = ctx.run(thunk)
                except BaseException as exc:  # re-raised below, in the caller's thread
                    errors[i] = exc
                    with claim:
                        jobs = iter(())  # no further thunk starts

        helpers = [self._pool.submit(drain) for _ in range(len(thunks) - 1)]
        drain()
        for helper in helpers:
            if not helper.cancel():  # a queued helper is dropped, a started one awaited
                helper.result()
        for exc in errors:
            if exc is not None:
                raise exc
        return results

    @contextmanager
    def metered(self) -> Iterator[TokenAccounting]:
        """Count this gateway's calls made in the current context.

        Inside the block, records go to a fresh meter and from it to any
        enclosing meter of this gateway and to ``accounting``. The meter
        lives in a context variable, so concurrent queries on other threads
        keep their own counts. Work handed to ``concurrently`` stays counted,
        because each of its items runs in a copy of the caller's context.
        """
        meter = TokenAccounting(parent=self._books())
        token = _METER.set((self, meter))
        try:
            yield meter
        finally:
            _METER.reset(token)

    def _books(self) -> TokenAccounting:
        current = _METER.get()
        return current[1] if current is not None and current[0] is self else self.accounting

    # -- chat ---------------------------------------------------------------

    def complete(self, call: ChatCall) -> ChatReply:
        if self.chat_backend is None:
            raise GatewayError("no chat backend configured")
        if self.cache is None:
            return self._call_backend(call, None)
        key = cache_key(self.chat_backend.backend_id, call.role_tag, call.prompt)
        with self._single_flight(key):
            rec = self.cache.get(key)
            if rec is not None:
                self._books()._add(cache_hits=1)
                return ChatReply(
                    text=rec["text"],
                    prompt_tokens=int(rec["prompt_tokens"]),
                    completion_tokens=int(rec["completion_tokens"]),
                    latency=0.0,
                    cache_hit=True,
                )
            return self._call_backend(call, key)

    def ask(self, call: ChatCall, parse: Callable[[str], T | None],
            reminder: str) -> tuple[T | None, ChatReply]:
        """Send ``call`` and parse its reply; a miss (``parse`` gives None)
        sends the prompt once more with ``reminder`` appended.

        Returns the parsed value, or None after two misses, and the last
        reply. Both sends go through ``complete``.
        """
        reply = self.complete(call)
        parsed = parse(reply.text)
        if parsed is None:
            reply = self.complete(replace(call, prompt=call.prompt + reminder))
            parsed = parse(reply.text)
        return parsed, reply

    @contextmanager
    def _single_flight(self, key: str) -> Iterator[None]:
        # one caller per key at a time: a waiter that gets the lock after a
        # successful leader finds its record, and after a failed one (which
        # wrote none) makes its own attempt
        with self._flights_lock:
            flight = self._flights.setdefault(key, [threading.Lock(), 0])
            flight[1] += 1
        try:
            with flight[0]:
                yield
        finally:
            with self._flights_lock:
                flight[1] -= 1
                if not flight[1]:
                    del self._flights[key]

    def _with_retry(self, what: str, attempt: Callable[[], T]) -> T:
        # a timeout or a transport error is retried, after the wait a
        # Retry-After header asked for; any other error, or a failure of the
        # last attempt, reaches the caller
        for n in range(1, MAX_ATTEMPTS):
            try:
                return attempt()
            except (GatewayTimeout, TransportError) as exc:
                logger.warning("%s attempt %d/%d failed: %s", what, n, MAX_ATTEMPTS, exc)
                wait = getattr(exc, "retry_after", None)
                if wait:
                    _sleep(min(wait, MAX_RETRY_AFTER))
        return attempt()

    def _chat_once(self, call: ChatCall) -> ChatReply:
        with self._in_flight:
            t0 = time.monotonic()
            raw = self.chat_backend.chat(call)
            latency = raw.latency if raw.latency is not None else time.monotonic() - t0
        if latency > call.timeout:
            raise GatewayTimeout(f"chat call exceeded timeout ({latency:.3f}s > {call.timeout}s)")
        if not raw.text.strip():
            raise TransportError("backend returned an empty reply")
        return ChatReply(text=raw.text, prompt_tokens=raw.prompt_tokens,
                         completion_tokens=raw.completion_tokens, latency=latency)

    def _call_backend(self, call: ChatCall, key: str | None) -> ChatReply:
        reply = self._with_retry("chat", lambda: self._chat_once(call))
        self._books()._add(llm_calls=1, prompt_tokens=reply.prompt_tokens,
                           completion_tokens=reply.completion_tokens, latency=reply.latency)
        if key is not None:
            self.cache.put(key, {"role_tag": call.role_tag, "text": reply.text,
                                 "prompt_tokens": reply.prompt_tokens,
                                 "completion_tokens": reply.completion_tokens})
        return reply

    # -- embeddings -----------------------------------------------------------

    def _embed_once(self, texts: list[str]) -> list:
        raw = self.embed_backend.embed(texts)
        if len(raw) != len(texts):
            raise TransportError(
                f"embedding backend returned {len(raw)} vectors for {len(texts)} texts"
            )
        return raw

    def embed_batch(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        """One unit vector per text, in order, from calls of at most
        ``MAX_EMBED_INPUTS`` texts. The batch is normalised as one matrix."""
        if self.embed_backend is None:
            raise GatewayError("no embedding backend configured")
        if not texts:
            raise GatewayError("empty batch")
        starts = range(0, len(texts), MAX_EMBED_INPUTS)
        chunks = []
        for start in starts:
            chunk = list(texts[start:start + MAX_EMBED_INPUTS])
            chunks.append(self._with_retry("embedding", lambda: self._embed_once(chunk)))
        dims = {len(v) for raw in chunks for v in raw}
        if len(dims) != 1:
            raise GatewayError(f"dimension mismatch across batch: {sorted(dims)}")
        self._books()._add(embed_calls=len(starts), embed_texts=len(texts))
        matrix = np.concatenate([np.asarray(raw, dtype=np.float64) for raw in chunks])
        # each row's dot with itself, as np.linalg.norm takes it, so every row
        # gets the bytes of v / np.linalg.norm(v)
        norms = np.sqrt((matrix[:, None, :] @ matrix[:, :, None]).ravel())
        if not norms.all():
            raise GatewayError("cannot normalize a zero embedding vector")
        matrix /= norms[:, None]
        return [EmbeddingVector(row) for row in matrix]
