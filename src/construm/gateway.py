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

The deterministic embedder maps each whitespace token to a seeded direction
and sums them, so token overlap between two texts translates into cosine
similarity without any model in the loop. A direction's entries are +1.0
and -1.0, read from the bits of a splitmix64 stream over the token's
blake2b digest (``sign_directions``), all of a batch's new tokens in one
array pass. The directions are rows of one table, and a batch is summed
token position by token position over it (``position_sums``). Every
partial sum of +-1 entries is an integer, so a vector's bytes do not
depend on the order of its additions.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import logging
import mmap
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar, copy_context
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

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


# splitmix64 (Steele, Lea and Flood, "Fast splittable pseudorandom number
# generators", OOPSLA 2014): a counter stream over a 64-bit seed whose k-th
# word (from 0) is Stafford's Mix13 finaliser of seed + (k + 1) * GAMMA.
# Every sum and product wraps mod 2**64.
GAMMA = np.uint64(0x9E3779B97F4A7C15)
MIX_A = np.uint64(0xBF58476D1CE4E5B9)
MIX_B = np.uint64(0x94D049BB133111EB)


def sign_directions(seeds: np.ndarray, out: np.ndarray) -> None:
    """Write each seed's direction, entries of +1.0 and -1.0, into its row of
    ``out``, a C-contiguous ``(len(seeds), dim)`` float64 array.

    Word ``k`` of a seed ``s`` is ``splitmix64(s + (k + 1) * GAMMA)``, for
    ``k < ceil(dim / 64)``. Coordinate ``i`` reads bit ``i % 64`` of word
    ``i // 64``, least significant bit first, as ``1 - 2 * bit``.
    """
    words = -(-out.shape[1] // 64)
    z = seeds[:, None] + np.arange(1, words + 1, dtype=np.uint64) * GAMMA
    z = (z ^ z >> np.uint64(30)) * MIX_A
    z = (z ^ z >> np.uint64(27)) * MIX_B
    z ^= z >> np.uint64(31)
    # a little-endian word's bytes hold its bits low first; so do the bytes' bits
    bits = np.unpackbits(z.astype("<u8").view(np.uint8), axis=1, count=out.shape[1],
                         bitorder="little")
    np.subtract(1.0, 2.0 * bits, out=out)


# Address space a new backend's direction table takes: 32,768 rows at 64-d.
# A page counts towards RSS only once written, so unused rows cost nothing
# but addresses. A fuller table is copied into one twice its size, and while
# both exist both count: a 1,024-row first table, copied as it filled, read
# 1.2 MB more peak RSS on perfbench's match_llm.
_TABLE_BYTES = 16 << 20


def _anonymous_table(rows: int, dim: int) -> np.ndarray:
    """A zeroed ``(rows, dim)`` float64 array in its own anonymous mapping,
    which goes back to the system whole when the last array on it is
    dropped. Tables on malloc's heap read 1.9-4.6 MB more peak RSS: a freed
    one raises glibc's dynamic mmap threshold, so later large arrays come
    from a heap that keeps its pages. The mapping is private, so a forked
    child's new rows are its own copies and never land in its parent's."""
    table = mmap.mmap(-1, rows * dim * 8, flags=mmap.MAP_PRIVATE)  # -1: anonymous
    return np.frombuffer(table, dtype=np.float64).reshape(rows, dim)


def position_sums(token_rows: Sequence[Sequence[int]], table: np.ndarray,
                  out: np.ndarray) -> None:
    """Set ``out[i]`` to the sum of ``table``'s rows ``token_rows[i]``, added
    in list order to a running sum that starts at +0.0.

    Texts go longest first (a stable sort), so the texts that have a
    ``j``-th row are a prefix of that order, and position ``j`` is one
    gather and one addition for that prefix. On the hash embedder's +-1 rows
    every partial sum is an integer, so any order would give the same bytes."""
    order = sorted(range(len(token_rows)), key=lambda i: len(token_rows[i]), reverse=True)
    lengths = np.array([len(token_rows[i]) for i in order], dtype=np.intp)
    held = np.arange(lengths.max(initial=0)) < lengths[:, None]  # text by position
    index = np.zeros(held.shape[::-1], dtype=np.intp)  # position by text
    index.T[held] = np.fromiter(chain.from_iterable(token_rows[i] for i in order),
                                dtype=np.intp, count=int(lengths.sum()))
    acc = np.zeros((len(order), table.shape[1]))
    for j, active in enumerate(held.sum(axis=0).tolist()):
        acc[:active] += table[index[j, :active]]
    out[order] = acc


class HashEmbeddingBackend:
    """Deterministic 64-d test embedder: no model, no network.

    Each whitespace token hashes (with the seed) to a fixed pseudo-random
    direction; a text embeds as the sum of its token directions. Texts
    sharing more tokens therefore get a higher cosine, which is enough to
    exercise similarity thresholds end to end. The seed salts the token
    hash, so its decimal form must fit blake2b's 16-byte salt. Directions
    are +-1 sign vectors (``sign_directions``), which keep the Gaussian ones'
    Johnson-Lindenstrauss bound (Achlioptas, JCSS 2003).

    Directions are kept as rows of one float64 table, with a dict from
    token to row, so a warm batch hashes nothing. Under the lock, a batch
    splits each text once and maps its tokens to rows, an unseen token
    taking the next row, then writes the new rows and takes the table. A
    table that must grow is copied into one twice its size, so a row once
    written is never rewritten, and the sum runs outside the lock.
    """

    def __init__(self, dim: int = 64, seed: int = 0):
        salt = str(seed).encode()
        if len(salt) > 16:
            # a longer seed would share its directions with every seed of the
            # same first 16 characters
            raise ValueError(f"seed {seed} is longer than 16 characters")
        self.dim = dim
        self.seed = seed
        self.backend_id = f"hashsign{dim}:{seed}"
        self._hasher = hashlib.blake2b(digest_size=8, salt=salt)  # copied for each token
        self._rows: dict[str, int] = {}  # token -> its row of the table
        self._table = np.empty((0, dim))
        self._lock = threading.Lock()  # one batch at a time adds its unseen tokens

    def _token_vectors(self, tokens: Iterable[str], out: np.ndarray) -> None:
        """Write each token's direction into its row of ``out``, seeded by the
        token's 8-byte blake2b digest read as a little-endian integer."""
        digests = []
        for token in tokens:
            hasher = self._hasher.copy()
            hasher.update(token.encode("utf-8"))
            digests.append(hasher.digest())
        sign_directions(np.frombuffer(b"".join(digests), dtype="<u8"), out)

    def _add_tokens(self, unseen: dict[str, int]) -> None:
        start = len(self._rows)
        stop = start + len(unseen)
        if stop > len(self._table):
            grown = _anonymous_table(max(stop, 2 * len(self._table),
                                         _TABLE_BYTES // (8 * self.dim)), self.dim)
            grown[:start] = self._table[:start]
            self._table = grown
        self._token_vectors(unseen, self._table[start:stop])
        self._rows.update(unseen)  # only now: a failed hash leaves no token rowless

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        rows = self._rows
        with self._lock:
            unseen: dict[str, int] = {}  # token -> the next free row, in order of first use
            token_rows = [[rows[t] if t in rows else unseen.setdefault(t, len(rows) + len(unseen))
                           for t in text.split() or ("",)] for text in texts]
            if unseen:  # a warm batch has no new rows to write
                self._add_tokens(unseen)
            table = self._table  # every row this batch reads is written
        out = np.empty((len(texts), self.dim))
        position_sums(token_rows, table, out)  # no row is ever rewritten, so no lock
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

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """A C-contiguous float64 ``(len(texts), dim)`` matrix of unit rows, in
        order, from calls of at most ``MAX_EMBED_INPUTS`` texts."""
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
        return matrix
