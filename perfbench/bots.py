"""The benchmark's simulated chat model.

``SimulatedChat`` is a chat backend for ``construm.gateway.ModelGateway``:
it sleeps a fixed latency per call and answers from the prompt text alone,
through ``SimulatedModel``. It counts the calls it sees, so the benchmark
can check the gateway's accounting against it.

The model answers every prompt construm sends. Tree replies depend only
on the table and span, so tree shapes do not vary with the seed. A
differentiation reply names each member's variant as a cue; the decision
reply picks the candidate whose cue is a word of the query description,
then the one sharing the most description words, then the first listed.
First replies that the workload marks as garbled carry no parseable
content, so the pipeline's retry paths run.
"""

from __future__ import annotations

import re
import time
import zlib

from construm.gateway import BackendReply, ChatCall, estimate_tokens

from workloads import HINT_OF

_TASK_RE = re.compile(r"^TASK: ([a-z-]+)")
_TABLE_RE = re.compile(r"^TABLE: (\S+) \((\S+)\)$", re.M)
_SPAN_RE = re.compile(r"^SPAN: (\d+)\.\.(\d+)$", re.M)
_INT_RE = {k: re.compile(rf"^{k}: (\d+)$", re.M) for k in ("FANOUT", "MIN_GROUP")}
_THEME_RE = re.compile(r"^THEME: (.*)$", re.M)
_FIRST_COL_RE = re.compile(r"^COLUMNS:\n- [^:]+: (.*)$", re.M)
_CHILD_RE = re.compile(r"^CHILD SUMMARIES:\n- (.*)$", re.M)
_ALIAS_RE = re.compile(r"^([A-Z]+)=", re.M)
_QUERY_DIFF_RE = re.compile(r"^QUERY: [^:]+: (.*)$", re.M)
_MEMBER_RE = re.compile(r"^- (C\d+) \([^)]*\): (.*)$", re.M)
_QUERY_RE = re.compile(r"^Query column: [^;\n]*; desc: (.*)$", re.M)
_CANDIDATE_RE = re.compile(r"^- (C\d+): name: [^;\n]*; desc: (.*)$", re.M)
_CUE_RE = re.compile(r"^- (C\d+): (.*)$", re.M)

RETRY_MARKERS = ("Your previous reply could not be parsed", "Reminder: end your reply")
GARBLED = "I am not sure how to answer that."


def _words(text: str) -> set[str]:
    return {w.strip(".,;:") for w in text.split()}


class SimulatedModel:
    """Prompt -> reply, a pure function of the prompt and the plan."""

    def __init__(self, themes: dict[str, str], garble_source_diff: set[str] = frozenset(),
                 garble_decision: set[str] = frozenset()):
        self.themes = themes
        self.garble_source_diff = garble_source_diff
        self.garble_decision = garble_decision

    def __call__(self, prompt: str) -> str:
        m = _TASK_RE.match(prompt)
        task = m.group(1) if m else "decision"
        retry = any(marker in prompt for marker in RETRY_MARKERS)
        if task == "decision":
            return self._decision(prompt, retry)
        if task == "differentiate":
            return self._differentiate(prompt, retry)
        if task == "group-plan":
            return self._plan(prompt, retry)
        if task == "boundary-check":
            return "KEEP"
        if task == "sibling-relations":
            return self._relations(prompt)
        table = _TABLE_RE.search(prompt)
        if task in ("window-summary", "leaf-summary"):
            lo, hi = _SPAN_RE.search(prompt).groups()
            first = _FIRST_COL_RE.search(prompt).group(1).split()[:4]
            return f"{table.group(1)} columns {lo}-{hi}: {' '.join(first)}"
        if task == "table-theme":
            return self.themes.get(table.group(1), "mixed fields")
        if task == "node-summary":
            theme = _THEME_RE.search(prompt)
            return theme.group(1) if theme else "catalog overview"
        if task == "cluster-summary":
            return "cluster: " + " ".join(_CHILD_RE.search(prompt).group(1).split()[:6])
        raise ValueError(f"simulated model has no reply for task {task!r}")

    @staticmethod
    def _plan(prompt: str, retry: bool) -> str:
        # near-equal contiguous groups; every fourth span's first reply is
        # unusable (keyed on the table and span, so it never varies by seed)
        table_id = _TABLE_RE.search(prompt).group(2)
        lo, hi = map(int, _SPAN_RE.search(prompt).groups())
        fan_out = int(_INT_RE["FANOUT"].search(prompt).group(1))
        min_group = int(_INT_RE["MIN_GROUP"].search(prompt).group(1))
        key = zlib.crc32(f"{table_id}:{lo}:{hi}".encode())
        if not retry and key % 4 == 0:
            return GARBLED
        n = hi - lo + 1
        g = max(2, min(fan_out + key % 3, n // min_group))
        base, extra = divmod(n, g)
        lines, start = [], lo
        for i in range(g):
            size = base + (1 if i < extra else 0)
            lines.append(f"[{start}..{start + size - 1}]=part {i + 1}")
            start += size
        return "\n".join(lines)

    @staticmethod
    def _relations(prompt: str) -> str:
        aliases = _ALIAS_RE.findall(prompt.split("SIBLINGS:\n", 1)[1])
        lines = [f"{a} -> {b}: {a} is read before {b}."
                 for a, b in zip(aliases[:4], aliases[1:5])]
        lines.append(f"ZZZZ -> {aliases[0]}: refers to a part that does not exist.")
        return "\n".join(lines)

    def _differentiate(self, prompt: str, retry: bool) -> str:
        query = _QUERY_DIFF_RE.search(prompt).group(1)
        if (not retry and "SIDE: source" in prompt
                and query in self.garble_source_diff):
            return GARBLED
        lines = ["Summary: near-duplicate fields that differ in one qualifier"]
        for cid, desc in _MEMBER_RE.findall(prompt):
            last = desc.rsplit(None, 1)[-1].strip(".")
            lines.append(f"- {cid}: {HINT_OF.get(last, last)} variant")
        return "\n".join(lines)

    def _decision(self, prompt: str, retry: bool) -> str:
        query = _QUERY_RE.search(prompt).group(1)
        if not retry and query in self.garble_decision:
            return GARBLED
        want = _words(query)
        head, _, diff = prompt.partition("\nDifferentiation among candidates:")
        cued = {cid for cid, cue in _CUE_RE.findall(diff) if _words(cue) & want}
        best, best_score = None, -1
        for cid, desc in _CANDIDATE_RE.findall(head):
            score = 1000 * (cid in cued) + len(_words(desc) & want)
            if score > best_score:
                best, best_score = cid, score
        return f"The cues point to {best}.\nANSWER: {best}"


class SimulatedChat:
    """Chat backend with a fixed simulated latency per call.

    It counts the calls it sees and the time they take; one thread makes
    every call (the benchmark runs ``workers=1``).
    """

    backend_id = "perfbench-simulated"

    def __init__(self, model: SimulatedModel, latency_s: float):
        self.model = model
        self.latency_s = latency_s
        self.total_calls = 0
        self.total_wait_s = 0.0

    def chat(self, call: ChatCall) -> BackendReply:
        t0 = time.perf_counter()
        text = self.model(call.prompt)
        if self.latency_s:
            time.sleep(self.latency_s)
        dt = time.perf_counter() - t0
        self.total_calls += 1
        self.total_wait_s += dt
        return BackendReply(text=text, prompt_tokens=estimate_tokens(call.prompt),
                            completion_tokens=estimate_tokens(text), latency=dt)
