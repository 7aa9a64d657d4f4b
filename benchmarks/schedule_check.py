#!/usr/bin/env python3
"""Check that schedule jitter changes no context tree on benchmark-sized catalogs.

For each seed and each workload of ``perfbench/workloads.py``, it
generates the workload's source and target catalogs (masked where the
workload masks them) and builds both sides' context trees with relation
snippets, twice: once at a pool of 16 with each chat call first sleeping
0-2 ms, keyed by crc32 of the seed and the prompt, so that only the order
in which concurrent calls complete changes (``tests/helpers.jittered``,
which the tier-1 check uses too); and once without the sleep at a pool
of 1. Replies come from perfbench's ``SimulatedModel`` at zero latency
and embeddings from the hash embedder. The two builds' ``tree_to_dict``
outputs must be equal.

It imports perfbench's and the tests' modules and writes nothing under
``perfbench/`` or ``tests/``. One line per tree names its workload,
seed, side, node and relation counts, chat calls and build times; the
script exits 1 at the first tree that differs, naming the first node or
field that does.

Usage: python benchmarks/schedule_check.py [--seeds 1-10] [--workload NAME]
"""

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no bytecode cache beside the imported modules
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

from construm.catalog import Side, catalog_from_dict, mask_catalog  # noqa: E402
from construm.gateway import HashEmbeddingBackend, ModelGateway, ScriptedChatBackend  # noqa: E402
from construm.tree import TreeParams, build_context_tree, tree_to_dict  # noqa: E402

from bots import SimulatedModel  # noqa: E402
from helpers import jittered  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

JITTERED_POOL = 16


def build(catalog, responder, max_in_flight: int):
    gateway = ModelGateway(chat_backend=ScriptedChatBackend(responder=responder),
                           embed_backend=HashEmbeddingBackend(), max_in_flight=max_in_flight)
    t0 = time.perf_counter()
    tree = build_context_tree(catalog, TreeParams(), gateway, annotate_relations=True)
    return tree_to_dict(tree), time.perf_counter() - t0, gateway.accounting.snapshot().llm_calls


def first_difference(a: dict, b: dict) -> str:
    for key in ("root", "relations"):
        if a[key] != b[key]:
            return key
    for node_id in sorted(a["nodes"].keys() | b["nodes"].keys()):
        if a["nodes"].get(node_id) != b["nodes"].get(node_id):
            return f"node {node_id}"
    return "node order"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"),
                        help="inclusive range, e.g. 1-10 or 3")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append",
                        help="repeatable; default: every workload")
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    trees = 0
    for name in args.workload or sorted(WORKLOADS):
        w = WORKLOADS[name]
        for seed in args.seeds:
            inputs = generate(w, seed)
            model = SimulatedModel(inputs.themes, inputs.garble_source_diff,
                                   inputs.garble_decision)
            for side, doc in ((Side.SOURCE, inputs.source_doc), (Side.TARGET, inputs.target_doc)):
                catalog = catalog_from_dict(doc, side)
                if w.masked:
                    catalog = mask_catalog(catalog)
                serial, serial_s, calls = build(catalog, model, 1)
                jitter, jitter_s, _ = build(catalog, jittered(model, seed), JITTERED_POOL)
                same = list(serial["nodes"]) == list(jitter["nodes"]) and serial == jitter
                print(f"{name} seed {seed} {side.value}: {len(serial['nodes'])} nodes, "
                      f"{len(serial['relations'])} relations, {calls} calls; pool 1 "
                      f"{serial_s:.2f} s, pool {JITTERED_POOL} jittered {jitter_s:.2f} s: "
                      f"{'equal' if same else 'DIFFERENT'}", flush=True)
                if not same:
                    print(f"first difference: {first_difference(serial, jitter)}")
                    return 1
                trees += 1
    print(f"{trees} trees equal under jitter in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
