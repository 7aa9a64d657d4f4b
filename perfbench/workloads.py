"""Seeded synthetic inputs for the benchmark workloads.

A workload's inputs are two catalog documents (source and target, in the
JSON format ``construm.catalog.load_catalog`` reads), a planted ground
truth and an ordered query sequence, all a pure function of the workload
and the seed. The program under test only sees the written catalog files
and the ``MatchQuery`` objects built from them.

Target columns are laid out in *topics* of exactly ``K`` (20) columns:
``G`` families of near-duplicates that share the topic's words and their
family's words and differ only in one variant word. A query column
carries its truth family's words plus a hint word naming the variant, so
its embedding shortlist is the whole topic and splits into ``G``
confusable groups, one differentiation call each. A *twin* query has a
near-duplicate sibling in its source table (one source-side
differentiation call); a *solo* query has none. The simulated model can
tell the variants apart only through a differentiation cue, so
``acc_at_1`` depends on that evidence reaching the decision prompt.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# variant word on a target column -> hint word on the query that wants it
VARIANTS = ("alpha", "beta", "gamma", "delta", "epsilon",
            "zeta", "eta", "theta", "iota", "kappa")
HINTS = ("first", "second", "third", "fourth", "fifth",
         "sixth", "seventh", "eighth", "ninth", "tenth")
HINT_OF = dict(zip(VARIANTS, HINTS))

TOPIC_WORDS = 20      # shared by every column of a topic
FAMILY_WORDS = 14     # shared by one family of near-duplicates
FILLER_WORDS = 14
DOMAIN_WORDS = 6      # the description of every table in one domain
FAMILY_SIZES = {2: (10, 10), 3: (7, 7, 6), 4: (5, 5, 5, 5)}  # each sums to K
DOMAINS = 4           # tables cluster into this many domains
K = 20                # shortlist size (PipelineConfig.k), equal to a topic's size
TAU = 0.87            # graph tau: links inside a family, none across families
PAIR_TAU = 0.88       # generate_benchmark pair tau: twins pair, nothing else
SETUPS = 3            # builds per run in match workloads


@dataclass(frozen=True)
class Workload:
    """Shape of one workload. Sizes are column counts."""

    name: str
    why: str
    topic_groups: tuple[int, ...]          # G per target topic, cycled
    target_topics: int
    target_fillers: int
    target_width: int                      # ordinary target tables
    target_wide: tuple[int, ...]           # wide target tables (staged tree path)
    source_fillers: int
    source_width: int
    source_wide: tuple[int, ...]
    # query mix: ((G, twin, retry), count per block). A retry garbles the
    # first source-side differentiation reply of a twin, or the first
    # decision reply of a solo, so it adds exactly one call.
    mix: tuple[tuple[tuple[int, bool, bool], int], ...]
    queries: int                           # distinct queries planned
    latency_s: float                       # simulated latency per chat call
    masked: bool
    disk_cache: bool
    repeat_every: int = 0                  # every n-th slot repeats a query
    # > 0: the timed loop repeats builds, each followed by this many queries
    window_queries: int = 0
    min_separation: int = 5

    def scaled(self, factor: float) -> "Workload":
        """A smaller copy with the same mix (used by the smoke tests)."""
        from dataclasses import replace

        def s(n: int) -> int:
            return max(1, int(n * factor))
        return replace(
            self, target_topics=max(4, s(self.target_topics)),
            target_fillers=s(self.target_fillers),
            target_wide=tuple(max(60, s(x)) for x in self.target_wide),
            source_fillers=s(self.source_fillers),
            source_wide=tuple(max(60, s(x)) for x in self.source_wide),
            queries=max(sum(n for _, n in self.mix), s(self.queries)),
            window_queries=min(self.window_queries, 6),
        )


@dataclass
class Query:
    source: str        # source raw column name
    truth: str         # target raw column name
    twin: bool
    desc: str          # source description (the simulated model keys on it)


@dataclass
class Inputs:
    source_doc: dict
    target_doc: dict
    queries: list[Query]
    sequence: list[int]            # indices into ``queries``, in run order
    garble_source_diff: set[str]   # query descriptions (first reply fails)
    garble_decision: set[str]
    themes: dict[str, str]         # table name -> theme text


class _Words:
    """Distinct pronounceable pseudo-words drawn from one seeded RNG."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set(VARIANTS) | set(HINTS)

    def take(self, n: int) -> list[str]:
        out = []
        while len(out) < n:
            w = "".join(self.rng.choice("bcdfghjklmnprstvz") + self.rng.choice("aeiou")
                        for _ in range(3))
            if w not in self.used:
                self.used.add(w)
                out.append(w)
        return out


def _pack(prefix: str, units: list[list[tuple[object, str, frozenset]]],
          wide: tuple[int, ...], width: int, domain_desc) -> tuple[list[dict], dict]:
    """First-fit packing of whole units into ordered tables.

    A unit is a list of (tag, description, families) entries that must
    stay contiguous; two units touching the same family never share a
    table. Returns the table documents and tag -> raw column name.
    """
    widths = list(wide)
    tables: list[list] = []
    caps: list[int] = []
    fams: list[set] = []
    for unit in units:
        touched = set().union(*(f for _, _, f in unit))
        for t, cols in enumerate(tables):
            if len(cols) + len(unit) <= caps[t] and not (touched & fams[t]):
                cols.extend(unit)
                fams[t] |= touched
                break
        else:
            caps.append(widths.pop(0) if widths else width)
            tables.append(list(unit))
            fams.append(touched)
    docs, names = [], {}
    for t, cols in enumerate(tables, start=1):
        table_id = f"{prefix}{t:03d}"
        columns = []
        for j, (tag, desc, _) in enumerate(cols):
            name = f"{table_id.lower()}_{j:03d}"
            columns.append({"name": name, "description": desc})
            if tag is not None:
                names[tag] = name
        docs.append({"table_id": table_id, "name": table_id.lower(),
                     "description": domain_desc(t), "ordered": True,
                     "columns": columns})
    return docs, names


def generate(w: Workload, seed: int) -> Inputs:
    """Inputs for one seed. The seed draws every word; the layout (table
    sizes, query plan, run order) depends on the workload alone, so call
    and token counts do not vary with the seed."""
    rng = random.Random(f"{w.name}:{seed}")
    layout = random.Random(w.name)
    words = _Words(rng)
    domains = [words.take(DOMAIN_WORDS) for _ in range(DOMAINS)]

    def domain_desc(t: int) -> str:
        # tables of one domain share a description, so the clustering merge
        # order (ties broken by table id) and the tree shape do not vary
        # with the seed
        return " ".join(domains[t % DOMAINS])

    filler_pool = words.take(2000)

    def filler() -> tuple[None, str, frozenset]:
        return (None, " ".join(rng.choice(filler_pool) for _ in range(FILLER_WORDS)),
                frozenset())

    # -- target: topic blocks and single fillers, shuffled, packed whole
    families = []   # (G, topic words, family words, size)
    units = []
    for ti in range(w.target_topics):
        g = w.topic_groups[ti % len(w.topic_groups)]
        topic = words.take(TOPIC_WORDS)
        block = []
        for size in FAMILY_SIZES[g]:
            fam_id = len(families)
            fam = words.take(FAMILY_WORDS)
            families.append((g, topic, fam, size))
            block += [((fam_id, v), " ".join(topic + fam + [VARIANTS[v]]), frozenset())
                      for v in range(size)]
        units.append(block)
    units += [[filler()] for _ in range(w.target_fillers)]
    layout.shuffle(units)
    target_tables, target_name = _pack("T", units, w.target_wide, w.target_width,
                                       domain_desc)

    # -- query plan: blocks with the exact mix, shuffled within each block
    by_g: dict[int, list[int]] = {}
    for fam_id, fam in enumerate(families):
        by_g.setdefault(fam[0], []).append(fam_id)
    for ids in by_g.values():
        layout.shuffle(ids)
    used = [0] * len(families)
    cursor = dict.fromkeys(by_g, 0)

    def take_variants(g: int, n: int) -> tuple[int, int]:
        ids = by_g[g]
        for _ in range(len(ids)):
            fam_id = ids[cursor[g] % len(ids)]
            cursor[g] += 1
            if used[fam_id] + n <= families[fam_id][3]:
                used[fam_id] += n
                return fam_id, used[fam_id] - n
        raise ValueError(f"workload {w.name}: too few G={g} families for the plan")

    plan = []   # (family, variant, twin, retry, partner plan index or None)
    while len(plan) < w.queries:
        block = []
        for (g, twin, retry), count in w.mix:
            block += [(g, twin, retry)] * count
        layout.shuffle(block)
        waiting: dict[int, int] = {}
        for g, twin, retry in block:
            if twin and g in waiting:
                first = waiting.pop(g)
                fam_id, v = plan[first][0], plan[first][1] + 1
                plan.append((fam_id, v, True, retry, first))
            elif twin:
                fam_id, v = take_variants(g, 2)
                waiting[g] = len(plan)
                plan.append((fam_id, v, True, retry, None))
            else:
                fam_id, v = take_variants(g, 1)
                plan.append((fam_id, v, False, retry, None))
        if waiting:
            raise ValueError(f"workload {w.name}: mix leaves an unpaired twin")

    descs = []
    for fam_id, v, *_ in plan:
        _, topic, fam, _ = families[fam_id]
        descs.append(" ".join(topic + fam + [HINTS[v]]))

    # -- source: twin pairs min_separation apart in one table, solos apart
    src_units = []
    for qi, (fam_id, _, twin, _, partner) in enumerate(plan):
        entry = (qi, descs[qi], frozenset({fam_id}))
        if partner is not None:
            gap = [filler() for _ in range(w.min_separation)]
            src_units.append([(partner, descs[partner], frozenset({fam_id}))] + gap + [entry])
        elif not twin:
            src_units.append([entry])
    src_units += [[filler()] for _ in range(w.source_fillers)]
    layout.shuffle(src_units)
    source_tables, source_name = _pack("S", src_units, w.source_wide, w.source_width,
                                       domain_desc)

    queries = []
    garble_src, garble_dec = set(), set()
    for qi, (fam_id, v, twin, retry, _) in enumerate(plan):
        queries.append(Query(source_name[qi], target_name[(fam_id, v)], twin, descs[qi]))
        if retry:
            (garble_src if twin else garble_dec).add(descs[qi])

    themes = {t["name"]: t["description"] for t in source_tables + target_tables}
    return Inputs({"tables": source_tables}, {"tables": target_tables}, queries,
                  _sequence(len(queries), w.repeat_every, layout),
                  garble_src, garble_dec, themes)


def _sequence(n: int, repeat_every: int, rng: random.Random) -> list[int]:
    """Run order: the plan order, where with ``repeat_every`` every n-th
    slot instead repeats a query run at least 8 slots earlier (a cache hit
    on every chat call)."""
    if not repeat_every:
        return list(range(n))
    seq: list[int] = []
    fresh = 0
    while fresh < n:
        if (len(seq) + 1) % repeat_every == 0 and len(seq) >= 8:
            seq.append(seq[rng.randrange(len(seq) - 7)])
        else:
            seq.append(fresh)
            fresh += 1
    return seq


WORKLOADS = {w.name: w for w in (
    Workload(
        name="offline_build",
        why=("artifact builds plus generate_benchmark on ~2k target columns in ~100 tables "
             "(three 300-400 wide) and ~1k source columns, 3 ms per chat call, relations on"),
        topic_groups=(2, 3, 4), target_topics=50, target_fillers=950, target_width=6,
        target_wide=(400, 350, 300), source_fillers=400, source_width=20,
        source_wide=(320,),
        mix=(((2, False, False), 1), ((2, True, False), 2), ((3, False, False), 1),
             ((3, True, False), 2), ((4, False, False), 1), ((4, True, False), 2)),
        queries=210, latency_s=0.003, masked=False, disk_cache=False,
        window_queries=150),
    Workload(
        name="match_llm",
        why=("masked full-mode queries at 20 ms per chat call over ~1k target columns, "
             "~3.3 calls per query, a quarter repeated through a disk cache, some retries"),
        topic_groups=(2, 3), target_topics=40, target_fillers=200, target_width=45,
        target_wide=(120,), source_fillers=20, source_width=45, source_wide=(),
        # per 40 slots: 10 repeats (0 calls), 2 at 3 calls, 16 at 4, 12 at 5,
        # so p50 sits mid 4-call step and p95 mid 5-call step
        mix=(((2, False, False), 2),
             ((2, True, False), 8), ((3, False, False), 4), ((2, False, True), 4),
             ((3, True, False), 8), ((2, True, True), 2), ((3, False, True), 2)),
        queries=300, latency_s=0.020, masked=True, disk_cache=True, repeat_every=4,
        min_separation=3),
)}
