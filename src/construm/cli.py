"""Command-line entry point.

Subcommands: ``build-tree``, ``build-graph``, ``match``, ``bench
generate|run``, and ``report``. Configuration is layered --
built-in defaults, then a JSON config file, then environment variables
(secrets only: API key and base URL), then explicit flags -- and every run
writes its fully resolved configuration next to its outputs so a run can
be reproduced from that file alone. ``--backend scripted:<path>`` switches
the whole run to the deterministic scripted chat backend plus the hash
embedder. Exit codes: 0 success, 1 user error, 2 internal error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import traceback
from dataclasses import asdict, fields
from pathlib import Path

from construm import evaluation as ev
from construm import graph as graph_mod
from construm import tree as tree_mod
from construm.catalog import CatalogError, MatchQuery, SchemaCatalog, load_catalog, mask_catalog
from construm.gateway import (
    MAX_IN_FLIGHT,
    DiskCache,
    HashEmbeddingBackend,
    HttpChatBackend,
    HttpEmbeddingBackend,
    ModelGateway,
    ScriptedChatBackend,
)
from construm.pipeline import MODES, Artifacts, PipelineConfig


class UsageError(Exception):
    """Bad flags/arguments/inputs: the user can fix these (exit 1)."""


DEFAULTS = {
    "backend": "live",
    "base_url": "https://api.openai.com/v1",
    "chat_model": "gpt-5",
    "embed_model": "text-embedding-3-small",
    "decoding": {},
    **asdict(tree_mod.TreeParams()),
    "relations": False,
    "tau": graph_mod.DEFAULT_TAU,
    **asdict(PipelineConfig()),
    "mask_source": False,
    "mask_target": False,
    "max_in_flight": MAX_IN_FLIGHT,
}

_SECRET_KEYS = ("api_key",)


def read_json(path, what: str, load=json.loads):
    """``load`` over the text of a file the user named; a file that cannot be
    read or parsed is a UsageError naming it."""
    try:
        return load(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, KeyError) as exc:  # JSONDecodeError is a ValueError
        raise UsageError(f"cannot read {what} {path}: {exc}") from exc


def resolve_config(args: argparse.Namespace) -> dict:
    """defaults < config file < environment (secrets) < explicit flags."""
    cfg = dict(DEFAULTS)
    cfg["api_key"] = None
    config_path = getattr(args, "config", None)
    if config_path:
        file_cfg = read_json(config_path, "config file")
        if not isinstance(file_cfg, dict):
            raise UsageError(f"config file {config_path} must hold a JSON object of "
                             f"settings, got {type(file_cfg).__name__}")
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_cfg.items():
            default = cfg[key]
            # a value keeps its default's JSON type, but an int may stand for a
            # float (a bool never does) and a secret's None default for a string
            if not (type(value) is type(default) or type(value) is int and type(default) is float
                    or key in _SECRET_KEYS and isinstance(value, str)):
                raise UsageError(f"config key {key!r} in {config_path} must have the type of "
                                 f"its default {json.dumps(default)}, got {json.dumps(value)}")
        cfg.update(file_cfg)
    if os.environ.get("CONSTRUM_API_KEY"):
        cfg["api_key"] = os.environ["CONSTRUM_API_KEY"]
    if os.environ.get("CONSTRUM_BASE_URL"):
        cfg["base_url"] = os.environ["CONSTRUM_BASE_URL"]
    for key in cfg:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    if getattr(args, "mask", None):  # build-tree/build-graph --mask: the side built
        cfg[f"mask_{args.side}"] = True
    return cfg


def write_run_config(cfg: dict, out_dir: Path):
    safe = {k: v for k, v in cfg.items() if k not in _SECRET_KEYS}
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "run_config.json").write_text(
        json.dumps(safe, sort_keys=True, indent=2), encoding="utf-8"
    )


def make_gateway(cfg: dict, cache_dir=None) -> ModelGateway:
    backend_spec = cfg["backend"]
    if backend_spec.startswith("scripted:"):
        script_path = backend_spec.split(":", 1)[1]
        if not Path(script_path).exists():
            raise UsageError(f"scripted backend file not found: {script_path}")
        chat = ScriptedChatBackend.from_file(script_path)
        embed = HashEmbeddingBackend()
    elif backend_spec == "live":
        chat = HttpChatBackend(cfg["base_url"], cfg["chat_model"], cfg["api_key"],
                               cfg["decoding"])
        embed = HttpEmbeddingBackend(cfg["base_url"], cfg["embed_model"], cfg["api_key"])
    else:
        raise UsageError(
            f"unknown backend {backend_spec!r} (expected 'live' or 'scripted:<script path>')"
        )
    cache = DiskCache(cache_dir) if cache_dir else None
    try:
        return ModelGateway(chat_backend=chat, embed_backend=embed, cache=cache,
                            max_in_flight=cfg["max_in_flight"])
    except ValueError as exc:
        raise UsageError(f"invalid max_in_flight {cfg['max_in_flight']}: {exc}") from exc


def _load_catalog(path, side, mask: bool) -> SchemaCatalog:
    cat = load_catalog(path, side)
    return mask_catalog(cat) if mask else cat


def tree_params(cfg: dict) -> tree_mod.TreeParams:
    try:
        return tree_mod.TreeParams(**{f.name: cfg[f.name] for f in fields(tree_mod.TreeParams)})
    except tree_mod.TreeError as exc:
        raise UsageError(f"invalid tree settings: {exc}") from exc


def pipeline_config(cfg: dict) -> PipelineConfig:
    try:
        return PipelineConfig(**{f.name: cfg[f.name] for f in fields(PipelineConfig)})
    except ValueError as exc:
        raise UsageError(f"invalid pipeline settings: {exc}") from exc


# -- subcommands ----------------------------------------------------------------


def cmd_build_tree(args) -> int:
    cfg = resolve_config(args)
    out = Path(args.out)
    params = tree_params(cfg)
    gateway = make_gateway(cfg, cache_dir=args.cache or out.parent / "cache")
    catalog = _load_catalog(args.catalog, args.side, cfg[f"mask_{args.side}"])
    tree = tree_mod.build_context_tree(catalog, params, gateway,
                                       annotate_relations=cfg["relations"])
    out.parent.mkdir(parents=True, exist_ok=True)
    tree_mod.save_tree(tree, catalog, out)
    write_run_config(cfg, out.parent)
    print(f"tree written to {out} ({len(tree.nodes)} nodes, "
          f"{len(tree.leaves())} leaves)")
    return 0


def cmd_build_graph(args) -> int:
    cfg = resolve_config(args)
    out = Path(args.out)
    gateway = make_gateway(cfg, cache_dir=args.cache)
    catalog = _load_catalog(args.catalog, args.side, cfg[f"mask_{args.side}"])
    hg = graph_mod.build_hypergraph(catalog, gateway, tau=cfg["tau"])
    out.parent.mkdir(parents=True, exist_ok=True)
    graph_mod.save_hypergraph(hg, catalog, out)
    write_run_config(cfg, out.parent)
    non_singleton = sum(1 for g in hg.groups if len(g) > 1)
    print(f"hypergraph written to {out} ({len(hg.links)} links, "
          f"{len(hg.groups)} groups, {non_singleton} non-singleton)")
    return 0


def _build_artifacts(cfg: dict, source_catalog: SchemaCatalog,
                     target_catalog: SchemaCatalog, gateway: ModelGateway,
                     need_tree: bool, paths: dict | None = None) -> Artifacts:
    paths = paths or {}

    def load_or(name, loader, catalog, builder):
        p = paths.get(name)
        if not p:
            return builder()
        try:
            return loader(p, catalog)  # rejects one built from another catalog
        # TypeError and AttributeError: a field of the wrong JSON type
        except (tree_mod.TreeError, OSError, ValueError, KeyError, IndexError, TypeError,
                AttributeError) as exc:
            detail = f"no key {exc}" if isinstance(exc, KeyError) else exc
            raise UsageError(f"cannot load {name} from {p}: {detail}") from exc

    target_graph = load_or(
        "target_graph",
        graph_mod.load_hypergraph, target_catalog,
        lambda: graph_mod.build_hypergraph(target_catalog, gateway, cfg["tau"]),
    )
    source_graph = load_or(
        "source_graph",
        graph_mod.load_hypergraph, source_catalog,
        lambda: graph_mod.build_hypergraph(source_catalog, gateway, cfg["tau"]),
    )
    source_tree = target_tree = None
    if need_tree or paths.get("source_tree") or paths.get("target_tree"):
        source_tree = load_or(
            "source_tree", tree_mod.load_tree, source_catalog,
            lambda: tree_mod.build_context_tree(source_catalog, tree_params(cfg), gateway,
                                                annotate_relations=cfg["relations"]))
        target_tree = load_or(
            "target_tree", tree_mod.load_tree, target_catalog,
            lambda: tree_mod.build_context_tree(target_catalog, tree_params(cfg), gateway,
                                                annotate_relations=cfg["relations"]))
    return Artifacts(source_catalog, target_catalog, source_tree, target_tree,
                     source_graph, target_graph)


TRACE_COUNTERS = ("llm_calls", "total_tokens", "latency", "cache_hits")


def _write_traces(traces_dir: Path, queries, outcomes, artifacts: Artifacts) -> list[dict]:
    """One ``q<NNNN>.json`` per query: its choice, or the error that stopped
    it, and the calls it spent either way."""
    scat, tcat = artifacts.source_catalog, artifacts.target_catalog
    traces_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for i, (q, (result, failure)) in enumerate(zip(queries, outcomes)):
        row = {"source": scat.meta(q.source).cid}
        if result is None:
            row["error"] = failure.message
            spent = failure.spent
        else:
            truth = q.ground_truth
            row.update({
                "truth": tcat.meta(truth).cid if truth else None,
                "chosen": tcat.meta(result.chosen).cid,
                "ranked": [tcat.meta(r).cid for r in result.ranked],
                "correct": result.chosen == truth if truth else None,
                "mode": result.trace.mode,
                "prompt_snapshot": result.trace.prompt_snapshot,
            })
            spent = result.trace.spent
        row.update({name: getattr(spent, name) for name in TRACE_COUNTERS})
        (traces_dir / f"q{i:04d}.json").write_text(json.dumps(row, sort_keys=True),
                                                   encoding="utf-8")
        rows.append(row)
    return rows


def cmd_match(args) -> int:
    cfg = resolve_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache_dir = args.cache or out_dir / "cache"
    gateway = make_gateway(cfg, cache_dir=cache_dir)
    source_catalog = _load_catalog(args.source_catalog, "source", cfg["mask_source"])
    target_catalog = _load_catalog(args.target_catalog, "target", cfg["mask_target"])
    pcfg = pipeline_config(cfg)
    paths = {
        "source_tree": args.source_tree, "target_tree": args.target_tree,
        "source_graph": args.source_graph, "target_graph": args.target_graph,
    }
    artifacts = _build_artifacts(cfg, source_catalog, target_catalog, gateway,
                                 need_tree=pcfg.use_tree, paths=paths)
    if args.queries:
        queries = read_json(args.queries, "query file",
                            lambda text: ev.load_benchmark(text, source_catalog, target_catalog))
    elif args.source:
        queries = [MatchQuery(source=source_catalog.resolve(args.source))]
    else:
        raise UsageError("match needs --queries or --source")

    outcomes = ev.run_queries(queries, pcfg, artifacts, gateway)
    rows = _write_traces(out_dir / "traces", queries, outcomes, artifacts)
    for i, row in enumerate(rows):
        if "error" in row:
            print(f"q{i:04d}: {row['source']} failed: {row['error']}", file=sys.stderr)
        else:
            print(f"q{i:04d}: {row['source']} -> {row['chosen']}"
                  + (f" (truth {row['truth']})" if row["truth"] else ""))
    write_run_config(cfg, out_dir)
    return 2 if any("error" in row for row in rows) else 0


_MASK_KEYS = ("mask_source", "mask_target")  # optional: they default to the config's
# each bench spec key: the types json.loads may give its value, and their name
_BENCHSPEC_KEYS = {
    "source_catalog": ((str,), "a file name string"),
    "target_catalog": ((str,), "a file name string"),
    "pair_similarity_tau": ((int, float), "a number"),
    "min_separation": ((int,), "an integer"),
    "verified_matches": ((dict,), "an object of column identifiers"),
    "mask_source": ((bool,), "true or false"),
    "mask_target": ((bool,), "true or false"),
}


def _load_benchspec(path, cfg) -> tuple[ev.BenchmarkSpec, SchemaCatalog, SchemaCatalog]:
    """Read a bench spec. Its ``mask_source``/``mask_target`` override
    ``cfg``'s and are written back, so the run config records the masking."""
    doc = read_json(path, "benchmark spec")
    if not isinstance(doc, dict):
        raise UsageError(f"benchmark spec {path} must hold a JSON object, "
                         f"got {type(doc).__name__}")
    for key, (kinds, kind_name) in _BENCHSPEC_KEYS.items():
        if key not in doc:
            if key in _MASK_KEYS:
                continue
            raise UsageError(f"benchmark spec {path} is missing {key!r}")
        value = doc[key]
        if type(value) not in kinds:  # exact types: a bool is no number here
            raise UsageError(f"benchmark spec {path}: {key!r} must be {kind_name}, "
                             f"got {json.dumps(value)}")
    if not all(isinstance(v, str) for v in doc["verified_matches"].values()):
        raise UsageError(f"benchmark spec {path}: 'verified_matches' must map each source "
                         f"column to a target column identifier string")
    base = Path(path).parent
    for key in _MASK_KEYS:
        cfg[key] = doc.get(key, cfg[key])
    source = _load_catalog(base / doc["source_catalog"], "source", cfg["mask_source"])
    target = _load_catalog(base / doc["target_catalog"], "target", cfg["mask_target"])
    verified = {
        source.resolve(k): target.resolve(v)
        for k, v in doc["verified_matches"].items()
    }
    spec = ev.BenchmarkSpec(
        source_catalog=source, target_catalog=target,
        pair_similarity_tau=float(doc["pair_similarity_tau"]),
        min_separation=doc["min_separation"],
        verified_matches=verified,
    )
    return spec, source, target


def cmd_bench_generate(args) -> int:
    cfg = resolve_config(args)
    gateway = make_gateway(cfg, cache_dir=args.cache)
    spec, source, target = _load_benchspec(args.benchspec, cfg)
    queries = ev.generate_benchmark(spec, gateway)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(ev.save_benchmark(queries, source, target), encoding="utf-8")
    print(f"{len(queries)} queries written to {out}")
    return 0


def cmd_bench_run(args) -> int:
    cfg = resolve_config(args)
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    if not modes:
        raise UsageError(f"--modes names no mode; expected some of {MODES}")
    for m in modes:
        if m not in MODES:
            raise UsageError(f"unknown mode {m!r}; expected one of {MODES}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache_dir = args.cache or out_dir / "cache"
    gateway = make_gateway(cfg, cache_dir=cache_dir)
    spec, source, target = _load_benchspec(args.benchspec, cfg)
    queries = read_json(args.bench, "--bench file",
                        lambda text: ev.load_benchmark(text, source, target))
    for i, q in enumerate(queries):
        if q.ground_truth is None:
            raise UsageError(f"--bench query {i} (source {source.meta(q.source).cid}) has no "
                             f"\"truth\"; bench run scores every query against its truth")
    need_tree = any(PipelineConfig.from_mode(m).use_tree for m in modes)
    artifacts = _build_artifacts(cfg, source, target, gateway, need_tree=need_tree)
    base = pipeline_config({**cfg, "mode": modes[0]})
    suite = ev.run_ablation_suite(queries, modes, artifacts, gateway, base_config=base,
                                  slice_name=args.slice)
    reports = {args.slice: {mode: report for mode, (report, _) in suite.items()}}
    (out_dir / "report.md").write_text(ev.render_report(reports, "markdown"),
                                       encoding="utf-8")
    (out_dir / "report.csv").write_text(ev.render_report(reports, "csv"),
                                        encoding="utf-8")
    for mode, (_, outcomes) in suite.items():
        _write_traces(out_dir / "traces" / mode, queries, outcomes, artifacts)
    write_run_config(cfg, out_dir)
    print(ev.render_report(reports, "markdown"))
    return 0


def cmd_report(args) -> int:
    # one run keeps its own slices; several runs are one slice each, by directory
    reports: dict[str, dict[str, ev.EvalReport]] = {}
    for run_dir in args.runs:
        csv_path = Path(run_dir) / "report.csv"
        if not csv_path.exists():
            raise UsageError(f"no report.csv under {run_dir}")
        grid = ev.parse_report_csv(csv_path.read_text(encoding="utf-8"))
        for slice_name, by_mode in grid.items():
            name = slice_name if len(args.runs) == 1 else Path(run_dir).name
            reports.setdefault(name, {}).update(by_mode)
    print(ev.render_report(reports, args.format))
    return 0


# -- parser ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--backend", help="'live' or 'scripted:<script path>'")
    p.add_argument("--config", help="JSON config file (defaults < file < env < flags)")
    p.add_argument("--cache", help="disk cache directory for chat replies")
    p.add_argument("--max-in-flight", dest="max_in_flight", type=int,
                   help="most chat calls and fan-out threads at once (the endpoint's rate limit)")


def _add_tree_flags(p: argparse.ArgumentParser):
    p.add_argument("--window", type=int, help="columns per scan batch (W)")
    p.add_argument("--leaf-budget", dest="leaf_budget", type=int,
                   help="max columns per leaf (B)")
    p.add_argument("--fanout", dest="fan_out", type=int, help="target child groups (b)")
    p.add_argument("--min-group", dest="min_group", type=int,
                   help="minimum split-group size (m)")
    p.add_argument("--switch-budget", dest="switch_budget", type=int,
                   help="boundary moves per refinement pass (s)")
    p.add_argument("--delta", dest="cluster_threshold", type=float,
                   help="table-cluster merge cutoff (cosine distance)")
    p.add_argument("--relations", action="store_const", const=True, default=None,
                   help="annotate sibling relation snippets")


def build_parser() -> _Parser:
    parser = _Parser(prog="construm",
                     description="Context packing for LLM schema matching.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("build-tree", parents=[], help="build a context tree")
    p.add_argument("--catalog", required=True)
    p.add_argument("--side", choices=["source", "target"], default="source")
    p.add_argument("--out", required=True)
    p.add_argument("--mask", action="store_const", const=True, default=None,
                   help="mask identifiers before building")
    _add_tree_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_build_tree)

    p = sub.add_parser("build-graph", help="build a similarity hypergraph")
    p.add_argument("--catalog", required=True)
    p.add_argument("--side", choices=["source", "target"], default="target")
    p.add_argument("--tau", type=float, help="similarity link threshold")
    p.add_argument("--out", required=True)
    p.add_argument("--mask", action="store_const", const=True, default=None,
                   help="mask identifiers before building")
    _add_common(p)
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("match", help="run forced-choice matches")
    p.add_argument("--source-catalog", dest="source_catalog", required=True)
    p.add_argument("--target-catalog", dest="target_catalog", required=True)
    p.add_argument("--source-tree", dest="source_tree")
    p.add_argument("--target-tree", dest="target_tree")
    p.add_argument("--source-graph", dest="source_graph")
    p.add_argument("--target-graph", dest="target_graph")
    p.add_argument("--queries", help="benchmark-style JSON query file")
    p.add_argument("--source", help="single query column (cid or unique name)")
    p.add_argument("--mode", choices=list(MODES))
    p.add_argument("--k", type=int, help="shortlist size")
    p.add_argument("--budget", dest="pack_budget", type=int,
                   help="context pack budget (chars)")
    p.add_argument("--tau", type=float)
    p.add_argument("--out", required=True, help="trace output directory")
    _add_tree_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_match)

    bench = sub.add_parser("bench", help="benchmark workflows")
    bsub = bench.add_subparsers(dest="bench_command", metavar="STEP")

    p = bsub.add_parser("generate", help="generate a context-stress benchmark")
    p.add_argument("--benchspec", required=True, help="benchmark spec JSON")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_bench_generate)

    p = bsub.add_parser("run", help="run modes over a benchmark")
    p.add_argument("--benchspec", required=True)
    p.add_argument("--bench", required=True, help="query list from 'bench generate'")
    p.add_argument("--modes", default="full", help="comma-separated mode list")
    p.add_argument("--slice", default="all", help="slice label for reports")
    p.add_argument("--k", type=int)
    p.add_argument("--tau", type=float)
    p.add_argument("--budget", dest="pack_budget", type=int)
    p.add_argument("--out", required=True)
    _add_tree_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_bench_run)

    p = sub.add_parser("report", help="render a report from run directories")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--format", choices=["markdown", "csv"], default="markdown")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        func = getattr(args, "func", None)
        if func is None:
            parser.print_usage(sys.stderr)
            return 1
        return func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CatalogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # noqa: BLE001 - anything else is an internal error
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
