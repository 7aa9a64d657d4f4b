#!/usr/bin/env python3
"""Run a scripted CLI session and keep everything it writes, for ``diff -r``.

The session writes a small source and target catalog, chat scripts and a
benchmark spec into OUT, then runs, with OUT as the working directory so
every path in the outputs is relative:

* ``build-graph`` and ``build-tree --relations`` for each side;
* ``match`` in all five modes over a query file in which two queries
  fail: one's shortlist leaves out the scripted answer, and the script
  answers no decision for the other;
* a masked leg: ``build-graph --mask`` and ``build-tree --mask`` for the
  target side, then a ``full`` ``match`` on those artifacts with both mask
  keys set through ``--config``, under a script keyed on masked names;
* ``bench generate``, then ``bench run`` over all five modes, once with a
  script that answers every query and once with one that never answers;
* ``report`` over one run and over both runs, in both formats.

Every artifact, trace, report, run config and cache record stays under
OUT, and ``OUT/commands/NN_name.txt`` holds each command's exit code,
stdout and stderr. Concurrent work logs in any order, so the stderr lines
are sorted. Running the session from two checkouts and comparing the two
OUT directories with ``diff -r`` checks that a change leaves every output
byte-identical under the scripted backend.

Usage: python benchmarks/cli_session.py OUT [extra flags...]

The extra flags (say ``--max-in-flight 1``) go to every command but
``report``, which takes no model settings.
"""

import io
import json
import logging
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from construm.cli import main as construm_main  # noqa: E402

MODES = ("embed_top1", "llm_local", "full", "no_tree", "no_diff")
TREE_FLAGS = ["--window", "4", "--leaf-budget", "3", "--min-group", "2", "--fanout", "2",
              "--relations"]

# each bench pair shares enough words that its cosine clears the bench
# spec's pair_similarity_tau of 0.8 under every hash-embedder seed 0-199
INCOME = ("main job wage income amount for the reference year before income tax and social"
          " contributions in local currency units")
HOURS = ("usual weekly hours worked in the main job counted as paid working time including"
         " paid overtime and excluding breaks")

SOURCE = {"tables": [
    {"table_id": "person", "name": "person", "ordered": True,
     "description": "one row per survey respondent", "columns": [
         {"name": "income_main", "description": INCOME},
         {"name": "city", "description": "city of residence"},
         {"name": "start_year", "description": "year the main job started"},
         {"name": "hours_main", "description": HOURS},
         {"name": "employer_size", "description": "number of employees at the main employer"},
         {"name": "income_side", "description": INCOME + " extra"},
         {"name": "hours_side", "description": HOURS + " extra"},
         {"name": "birth_year", "description": "year the respondent was born"},
     ]},
    {"table_id": "household", "name": "household",
     "description": "one row per dwelling", "columns": [
         {"name": "hh_income", "description": "total household income amount for the reference year"},
         {"name": "hh_size", "description": "number of persons in the household"},
         {"name": "rent", "description": "monthly rent paid for the dwelling"},
         {"name": "tenure", "description": "dwelling owned or rented"},
     ]},
]}

TARGET = {"tables": [
    {"table_id": "job", "name": "job", "description": "jobs held by each person",
     "columns": [
         {"name": "wage_amount", "description": "main job wage income amount for the reference year"},
         {"name": "wage_amount_prev", "description": "main job wage income amount for the previous year"},
         {"name": "work_hours", "description": "usual weekly hours worked in the main job"},
         {"name": "job_start", "description": "year the main job started"},
         {"name": "firm_size", "description": "number of employees at the main employer"},
     ]},
    {"table_id": "home", "name": "home", "description": "dwellings and their households",
     "columns": [
         {"name": "home_city", "description": "city of residence"},
         {"name": "household_income", "description": "total household income amount for the reference year"},
         {"name": "persons", "description": "number of persons in the household"},
         {"name": "monthly_rent", "description": "monthly rent paid for the dwelling"},
         {"name": "owner", "description": "dwelling owned or rented"},
         {"name": "birth", "description": "year the respondent was born"},
     ]},
]}

TRUTH = {"income_main": "wage_amount", "income_side": "wage_amount",
         "hours_main": "work_hours", "hours_side": "work_hours",
         "start_year": "job_start", "birth_year": "birth", "city": "home_city"}

AUX_RULES = [
    {"contains": "TASK: differentiate",
     "reply": "Summary: close variants of one measure\n- C1: the first\n- C2: the second"},
    {"contains": "TASK: sibling-relations", "reply": "A -> B: A frames B\nB -> A: B refines A"},
]
DEFAULT_REPLY = "a short deterministic summary"


def _cids(doc) -> dict[str, str]:
    names = [c["name"] for t in doc["tables"] for c in t["columns"]]
    return {name: f"C{i}" for i, name in enumerate(names, start=1)}


def write_inputs(out: Path):
    def write(name, doc):
        (out / name).write_text(json.dumps(doc, indent=1), encoding="utf-8")

    target_cid = _cids(TARGET)
    answers = [{"contains": f"Query column: {s};", "reply": f"ANSWER: {target_cid[t]}"}
               for s, t in TRUTH.items()]
    write("source.json", SOURCE)
    write("target.json", TARGET)
    write("answers.json", {"rules": answers + AUX_RULES, "default": DEFAULT_REPLY})
    write("silent.json", {"rules": AUX_RULES, "default": DEFAULT_REPLY})
    source_cid = _cids(SOURCE)
    masked_answers = [{"contains": f"Query column: {source_cid[s]};",
                       "reply": f"ANSWER: {target_cid[t]}"} for s, t in TRUTH.items()]
    write("masked.json", {"rules": masked_answers + AUX_RULES, "default": DEFAULT_REPLY})
    write("masked_config.json", {"mask_source": True, "mask_target": True})
    write("benchspec.json", {
        "source_catalog": "source.json", "target_catalog": "target.json",
        "pair_similarity_tau": 0.8, "min_separation": 2,
        "verified_matches": TRUTH,
    })
    write("queries.json", [
        {"source": source_cid["income_main"], "truth": target_cid["wage_amount"]},
        {"source": source_cid["hours_side"], "truth": target_cid["work_hours"]},
        # the scripted answer is not on this shortlist
        {"source": source_cid["start_year"],
         "shortlist": [target_cid["firm_size"], target_cid["work_hours"]],
         "truth": target_cid["job_start"]},
        {"source": source_cid["city"],
         "shortlist": [target_cid["home_city"], target_cid["owner"]]},
        {"source": source_cid["hh_size"]},  # no scripted answer
    ])


def commands() -> list[tuple[str, list[str], bool]]:
    """(name, argv, takes the extra flags) in session order."""
    cmds = []
    for side, catalog in (("source", "source.json"), ("target", "target.json")):
        cmds.append((f"build_graph_{side}", [
            "build-graph", "--catalog", catalog, "--side", side, "--tau", "0.8",
            "--out", f"artifacts/{side}_graph.json", "--backend", "scripted:answers.json"],
            True))
        cmds.append((f"build_tree_{side}", [
            "build-tree", "--catalog", catalog, "--side", side, *TREE_FLAGS,
            "--out", f"artifacts/{side}_tree.json", "--backend", "scripted:answers.json"],
            True))
    for mode in MODES:
        cmds.append((f"match_{mode}", [
            "match", "--source-catalog", "source.json", "--target-catalog", "target.json",
            "--source-graph", "artifacts/source_graph.json",
            "--target-graph", "artifacts/target_graph.json",
            "--source-tree", "artifacts/source_tree.json",
            "--target-tree", "artifacts/target_tree.json",
            "--queries", "queries.json", "--mode", mode, "--k", "3", "--tau", "0.8",
            "--cache", "match_cache", "--out", f"match/{mode}",
            "--backend", "scripted:answers.json"], True))
    masked_backend = ["--backend", "scripted:masked.json"]
    cmds.append(("build_graph_target_masked", [
        "build-graph", "--catalog", "target.json", "--side", "target", "--tau", "0.8",
        "--mask", "--out", "masked/graph/target_graph.json", *masked_backend], True))
    cmds.append(("build_tree_target_masked", [
        "build-tree", "--catalog", "target.json", "--side", "target", *TREE_FLAGS,
        "--mask", "--out", "masked/tree/target_tree.json", *masked_backend], True))
    cmds.append(("match_full_masked", [
        "match", "--source-catalog", "source.json", "--target-catalog", "target.json",
        "--target-graph", "masked/graph/target_graph.json",
        "--target-tree", "masked/tree/target_tree.json",
        "--queries", "queries.json", "--mode", "full", "--k", "3", "--tau", "0.8",
        *TREE_FLAGS, "--config", "masked_config.json", "--out", "masked/match",
        *masked_backend], True))
    cmds.append(("bench_generate", [
        "bench", "generate", "--benchspec", "benchspec.json", "--out", "bench.json",
        "--backend", "scripted:answers.json"], True))
    for name, script in (("answers", "answers.json"), ("silent", "silent.json")):
        cmds.append((f"bench_run_{name}", [
            "bench", "run", "--benchspec", "benchspec.json", "--bench", "bench.json",
            "--modes", ",".join(MODES), "--k", "3", "--tau", "0.8", "--slice", name,
            *TREE_FLAGS, "--out", f"bench_{name}", "--backend", f"scripted:{script}"],
            True))
    for fmt in ("markdown", "csv"):
        cmds.append((f"report_one_{fmt}", [
            "report", "--runs", "bench_answers", "--format", fmt], False))
        cmds.append((f"report_two_{fmt}", [
            "report", "--runs", "bench_answers", "bench_silent", "--format", fmt], False))
    return cmds


def run_command(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    root = logging.getLogger()
    for handler in list(root.handlers):  # the CLI binds a fresh handler to err
        root.removeHandler(handler)
    with redirect_stdout(out), redirect_stderr(err):
        rc = construm_main(argv)
    return rc, out.getvalue(), err.getvalue()


def run_session(out: Path, extra: list[str]):
    (out / "commands").mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(out)
    try:
        write_inputs(Path("."))
        for i, (name, argv, takes_extra) in enumerate(commands()):
            rc, stdout, stderr = run_command(argv + (extra if takes_extra else []))
            stderr_lines = "".join(sorted(stderr.splitlines(keepends=True)))
            Path("commands", f"{i:02d}_{name}.txt").write_text(
                f"exit: {rc}\n--- stdout\n{stdout}--- stderr\n{stderr_lines}",
                encoding="utf-8")
    finally:
        os.chdir(cwd)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args or args[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 1
    run_session(Path(args[0]), args[1:])
    return 0


if __name__ == "__main__":
    sys.exit(main())
