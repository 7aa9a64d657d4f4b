"""Shared fixtures-in-code for the test suite: catalog builders, scripted
chat bots, positional embedding stubs, and independent reference oracles.

The oracles deliberately avoid the production code paths they check:
components come from a plain DFS, cosines from numpy matmul, repairs from
a fresh greedy merger, and so on.
"""

from __future__ import annotations

import random
import re
import threading
import time
import zlib

import numpy as np

from construm.catalog import SchemaCatalog, catalog_from_dict
from construm.gateway import (
    MAX_IN_FLIGHT,
    HashEmbeddingBackend,
    ModelGateway,
    ScriptedChatBackend,
)


def table_doc(table_id, columns, ordered=True, name=None, description=""):
    return {
        "table_id": table_id,
        "name": name or table_id,
        "description": description,
        "ordered": ordered,
        "columns": [{"name": n, "description": d} for n, d in columns],
    }


def build_catalog(side, tables) -> SchemaCatalog:
    return catalog_from_dict({"tables": tables}, side)


VOCAB = [
    "amount", "balance", "batch", "city", "code", "count", "date", "device",
    "dose", "event", "flag", "grade", "group", "hour", "index", "item",
    "label", "level", "limit", "measure", "note", "order", "phase", "rate",
    "score", "stage", "status", "step", "total", "unit", "value", "wave",
]


def random_catalog(seed: int, side, n: int, table_id="t0", ordered=True,
                   tokens_per_desc=6) -> SchemaCatalog:
    rng = random.Random(seed)
    cols = []
    for i in range(n):
        desc = " ".join(rng.choice(VOCAB) for _ in range(tokens_per_desc))
        cols.append((f"col_{i:04d}", desc))
    return build_catalog(side, [table_doc(table_id, cols, ordered=ordered)])


# -- embedding stubs ----------------------------------------------------------


class PositionalEmbeddingBackend:
    """Returns pre-set vectors positionally, one batch at a time.

    Works for call sites that embed a whole catalog (or member list) in a
    single ordered batch.
    """

    def __init__(self, batches):
        self.backend_id = "positional"
        self._batches = [list(map(np.asarray, b)) for b in batches]
        self._next = 0

    def embed(self, texts):
        if self._next >= len(self._batches):
            raise AssertionError("no more scripted embedding batches")
        batch = self._batches[self._next]
        self._next += 1
        if len(batch) != len(texts):
            raise AssertionError(f"expected {len(batch)} texts, got {len(texts)}")
        return batch


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def vectors_with_cosines(gram: np.ndarray, dim: int = 8) -> list[np.ndarray]:
    """Unit vectors realizing a given (PSD) cosine Gram matrix."""
    chol = np.linalg.cholesky(gram + 1e-12 * np.eye(len(gram)))
    out = []
    for row in chol:
        v = np.zeros(dim)
        v[: len(row)] = row
        out.append(unit(v))
    return out


def stated_cosines_embedder(gram, sizes) -> PositionalEmbeddingBackend:
    """An embedder that answers batches of ``sizes`` texts, in order, with
    unit vectors whose cosines are ``gram``'s: the batches take its rows in
    turn, so vectors of different batches have stated cosines too."""
    assert sum(sizes) == len(gram)
    vectors = vectors_with_cosines(np.asarray(gram, dtype=np.float64), len(gram))
    starts = np.cumsum([0, *sizes])
    return PositionalEmbeddingBackend([vectors[a:b] for a, b in zip(starts, starts[1:])])


# -- scripted chat bots --------------------------------------------------------


_SPAN_RE = re.compile(r"^SPAN: (\d+)\.\.(\d+)$", re.MULTILINE)
_FANOUT_RE = re.compile(r"^FANOUT: (\d+)$", re.MULTILINE)
_MIN_GROUP_RE = re.compile(r"^MIN_GROUP: (\d+)$", re.MULTILINE)
_ORDERED_RE = re.compile(r"^ORDERED: (yes|no)$", re.MULTILINE)
_MEMBER_CID_RE = re.compile(r"^- (C[0-9]+) \(", re.MULTILINE)
_CANDIDATE_CID_RE = re.compile(r"^- (C[0-9]+): name:", re.MULTILINE)


def tree_bot(prompt: str) -> str | None:
    """Deterministic summarizer/planner driving full tree builds.

    Plans split the requested span into a pseudo-random (but prompt-
    deterministic) number of groups with sizes >= MIN_GROUP; everything
    else echoes a compact deterministic summary.
    """
    if "TASK: group-plan" in prompt:
        lo, hi = map(int, _SPAN_RE.search(prompt).groups())
        b = int(_FANOUT_RE.search(prompt).group(1))
        m = int(_MIN_GROUP_RE.search(prompt).group(1))
        ordered = _ORDERED_RE.search(prompt).group(1) == "yes"
        n = hi - lo + 1
        if n < 2 * m:
            return "no idea"  # force the uniform fallback path
        rng = random.Random(zlib.crc32(f"{lo}:{hi}:{n}".encode()))
        g = min(max(2, rng.randint(2, 2 * b)), n // m)
        extra = n - g * m
        sizes = [m] * g
        for _ in range(extra):
            sizes[rng.randrange(g)] += 1
        if ordered:
            lines, start = [], lo
            for i, size in enumerate(sizes):
                lines.append(f"[{start}..{start + size - 1}]=part{i}")
                start += size
            return "\n".join(lines)
        lines, start = [], 0
        for i, size in enumerate(sizes):
            members = ",".join(str(p) for p in range(start, start + size))
            lines.append(f"{{{members}}}=part{i}")
            start += size
        return "\n".join(lines)
    if "TASK: boundary-check" in prompt:
        return "KEEP"
    if "TASK: window-summary" in prompt or "TASK: leaf-summary" in prompt:
        span = _SPAN_RE.search(prompt)
        return f"S[{span.group(1)}..{span.group(2)}]" if span else "S[?]"
    if "TASK: table-theme" in prompt:
        return "theme: mixed measurements"
    if "TASK: node-summary" in prompt or "TASK: cluster-summary" in prompt:
        return f"N#{zlib.crc32(prompt.encode()) & 0xFFFF:04x}"
    if "TASK: sibling-relations" in prompt:
        return "NONE"
    return None


def diff_echo_bot(prompt: str) -> str | None:
    """Differentiation replies echoing one cue per member cid."""
    if "TASK: differentiate" not in prompt:
        return None
    cids = _MEMBER_CID_RE.findall(prompt)
    lines = ["Summary: near-duplicates differing in scope"]
    lines += [f"- {cid}: cue for {cid}" for cid in cids]
    return "\n".join(lines)


def first_candidate_decision_bot(prompt: str) -> str | None:
    """Decision replies answering the first-listed candidate."""
    if "Select the single best matching target column" not in prompt:
        return None
    cids = _CANDIDATE_CID_RE.findall(prompt)
    return f"thinking...\nANSWER: {cids[0]}" if cids else "ANSWER: C0"


def jittered(responder, seed: int):
    """``responder`` behind a sleep of 0-2 ms per call, keyed by crc32 of
    ``seed`` and the prompt: the replies stay the same, and only the order
    in which concurrent calls complete changes with ``seed``."""
    def bot(prompt: str) -> str | None:
        time.sleep(zlib.crc32(f"{seed}\x00{prompt}".encode()) % 2001 / 1e6)
        return responder(prompt)
    return bot


def chain_bots(*bots):
    def responder(prompt: str) -> str | None:
        for bot in bots:
            reply = bot(prompt)
            if reply is not None:
                return reply
        return None
    return responder


class RecordingChatBackend(ScriptedChatBackend):
    """The scripted backend, keeping every attempt as (role_tag, prompt)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.call_log: list[tuple[str, str]] = []

    def chat(self, call):
        self.call_log.append((call.role_tag, call.prompt))  # one append is thread-safe
        return super().chat(call)


def make_gateway(responder=None, rules=(), default=None, cache=None, delay=0.0,
                 embed_backend=None, backend_id="scripted",
                 max_in_flight=MAX_IN_FLIGHT) -> ModelGateway:
    chat = RecordingChatBackend(rules=rules, default=default, responder=responder,
                                 delay=delay, backend_id=backend_id)
    return ModelGateway(
        chat_backend=chat,
        embed_backend=embed_backend or HashEmbeddingBackend(),
        cache=cache,
        max_in_flight=max_in_flight,
    )


def tree_gateway(extra_bot=None, **kwargs) -> ModelGateway:
    bots = (extra_bot, tree_bot) if extra_bot else (tree_bot,)
    return make_gateway(responder=chain_bots(*bots), **kwargs)


class RunningCount:
    """Counts the threads inside it: ``now`` at present, ``most`` at once."""

    def __init__(self):
        self._lock = threading.Lock()
        self.now = self.most = 0

    def __enter__(self):
        with self._lock:
            self.now += 1
            self.most = max(self.most, self.now)

    def __exit__(self, *exc):
        with self._lock:
            self.now -= 1


# -- oracles -------------------------------------------------------------------


def dfs_components(n: int, pairs) -> list[frozenset[int]]:
    """Reference connected components by depth-first search."""
    adj = {i: [] for i in range(n)}
    for a, b, *_ in pairs:
        adj[a].append(b)
        adj[b].append(a)
    seen = set()
    comps = []
    for start in range(n):
        if start in seen:
            continue
        stack, comp = [start], set()
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend(y for y in adj[x] if y not in comp)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def cosine_matrix(matrix: np.ndarray) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.float64)
    return m @ m.T


def oracle_threshold_pairs(matrix: np.ndarray, tau: float) -> set[tuple[int, int]]:
    cos = cosine_matrix(matrix)
    n = len(cos)
    return {(i, j) for i in range(n) for j in range(i + 1, n) if cos[i, j] >= tau}


def greedy_merge_oracle(sizes: list[int], m: int) -> list[int]:
    """Reference repair: scan left-to-right, merge each undersized group
    into its smaller adjacent neighbor (left on ties), restart until
    stable. Returns the final size sequence."""
    sizes = list(sizes)
    changed = True
    while changed and len(sizes) > 1:
        changed = False
        for i, size in enumerate(sizes):
            if size >= m:
                continue
            neighbors = [j for j in (i - 1, i + 1) if 0 <= j < len(sizes)]
            j = min(neighbors, key=lambda j: (sizes[j], j))
            lo, hi = min(i, j), max(i, j)
            sizes[lo] = sizes[lo] + sizes[hi]
            del sizes[hi]
            changed = True
            break
    return sizes


def cap_merge_oracle(groups: list[list[int]], cap: int, ordered: bool) -> list[list[int]]:
    """Reference group-count cap over member-position lists: while more
    than ``cap`` groups remain, ordered tables merge the adjacent pair with
    the smallest total (leftmost on ties) and unordered tables the two
    smallest groups (earliest on ties); the merge sits at the earlier slot."""
    groups = [sorted(g) for g in groups]
    while len(groups) > cap:
        if ordered:
            i = min(range(len(groups) - 1),
                    key=lambda i: (len(groups[i]) + len(groups[i + 1]), i))
            j = i + 1
        else:
            by_size = sorted(range(len(groups)), key=lambda i: (len(groups[i]), i))
            i, j = sorted(by_size[:2])
        groups[i] = sorted(groups[i] + groups[j])
        del groups[j]
    return groups


def leaf_coverage(tree) -> list:
    """All columns under all leaves (with duplicates, for multiset checks)."""
    cols = []
    for leaf in tree.leaves():
        cols.extend(leaf.members or ())
    return cols
