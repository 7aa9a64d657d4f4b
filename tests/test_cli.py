import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest
from construm.cli import main
from construm.evaluation import parse_report_csv
from helpers import table_doc


def write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, indent=1))
    return path


def fixture_files(tmp_path: Path):
    source = write_json(tmp_path / "source.json", {"tables": [table_doc("J", [
        ("income_main", "main job wage income amount for the reference year"),
        ("city", "city of residence"),
        ("start_year", "year the main job started"),
        ("income_side", "main job wage income amount for the reference year extra"),
    ])]})
    target = write_json(tmp_path / "target.json", {"tables": [table_doc("K", [
        ("wage_amount", "main job wage income amount for the reference year"),
        ("home_city", "city of residence"),
        ("job_start", "year the main job started"),
    ])]})
    script = write_json(tmp_path / "script.json", {
        "rules": [
            {"contains": "Select the single best matching target column",
             "reply": "ANSWER: C1"},
            {"contains": "TASK: differentiate",
             "reply": "Summary: close variants\n- C1: first\n- C2: second"},
        ],
        "default": "a short deterministic summary",
    })
    return source, target, script


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_required_flag_names_it(capsys):
    assert main(["build-graph", "--out", "x.json"]) == 1
    assert "--catalog" in capsys.readouterr().err


def test_no_subcommand_prints_usage(capsys):
    assert main([]) == 1


def test_unknown_backend_is_user_error(tmp_path, capsys):
    source, target, script = fixture_files(tmp_path)
    rc = main(["build-graph", "--catalog", str(source), "--out",
               str(tmp_path / "g.json"), "--backend", "warp-drive"])
    assert rc == 1
    assert "backend" in capsys.readouterr().err
    # hash-only (an embedder and no chat model) is gone; scripted: covers it
    rc = main(["build-graph", "--catalog", str(source), "--out",
               str(tmp_path / "g.json"), "--backend", "hash-only"])
    assert rc == 1
    assert "unknown backend 'hash-only'" in capsys.readouterr().err


def test_build_graph_and_tree_then_match(tmp_path, capsys):
    source, target, script = fixture_files(tmp_path)
    backend = f"scripted:{script}"

    assert main(["build-graph", "--catalog", str(source), "--side", "source",
                 "--tau", "0.8", "--out", str(tmp_path / "sg.json"),
                 "--backend", backend]) == 0
    assert main(["build-graph", "--catalog", str(target), "--side", "target",
                 "--tau", "0.8", "--out", str(tmp_path / "tg.json"),
                 "--backend", backend]) == 0
    assert main(["build-tree", "--catalog", str(source), "--side", "source",
                 "--out", str(tmp_path / "st.json"), "--backend", backend]) == 0
    assert main(["build-tree", "--catalog", str(target), "--side", "target",
                 "--out", str(tmp_path / "tt.json"), "--backend", backend]) == 0
    for name in ("sg.json", "tg.json", "st.json", "tt.json"):
        assert (tmp_path / name).exists()

    out_dir = tmp_path / "run"
    rc = main(["match",
               "--source-catalog", str(source), "--target-catalog", str(target),
               "--source-graph", str(tmp_path / "sg.json"),
               "--target-graph", str(tmp_path / "tg.json"),
               "--source-tree", str(tmp_path / "st.json"),
               "--target-tree", str(tmp_path / "tt.json"),
               "--source", "income_main", "--mode", "full", "--k", "3",
               "--tau", "0.8",
               "--out", str(out_dir), "--backend", backend])
    assert rc == 0
    traces = sorted((out_dir / "traces").glob("q*.json"))
    assert len(traces) == 1
    row = json.loads(traces[0].read_text())
    assert row["chosen"] == "C1"
    assert row["llm_calls"] >= 1
    assert (out_dir / "run_config.json").exists()


def test_match_rejects_an_edited_tree_file(tmp_path, capsys):
    source, target, script = fixture_files(tmp_path)
    backend = f"scripted:{script}"
    tree_path = tmp_path / "st.json"
    assert main(["build-tree", "--catalog", str(source), "--side", "source",
                 "--out", str(tree_path), "--backend", backend]) == 0
    doc = json.loads(tree_path.read_text())
    node = next(n for n in doc["nodes"].values() if n["kind"] == "group_leaf")
    node["summary"] += " (edited)"
    tree_path.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["match", "--source-catalog", str(source), "--target-catalog", str(target),
               "--source-tree", str(tree_path), "--source", "income_main",
               "--mode", "full", "--k", "3", "--out", str(tmp_path / "run"),
               "--backend", backend])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(tree_path) in err and "content hash" in err
    assert "Traceback" not in err


def test_match_rejects_a_graph_file_whose_groups_leave_out_a_column(tmp_path, capsys):
    source, target, script = fixture_files(tmp_path)
    backend = f"scripted:{script}"
    graph_path = tmp_path / "sg.json"
    assert main(["build-graph", "--catalog", str(source), "--side", "source",
                 "--out", str(graph_path), "--backend", backend]) == 0
    doc = json.loads(graph_path.read_text())
    doc["groups"].pop(0)
    graph_path.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["match", "--source-catalog", str(source), "--target-catalog", str(target),
               "--source-graph", str(graph_path), "--source", "income_main",
               "--mode", "llm_local", "--k", "3", "--out", str(tmp_path / "run"),
               "--backend", backend])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(graph_path) in err and "do not partition" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("change", ["grew", "shrank"])
@pytest.mark.parametrize("flag", ["--source-graph", "--target-graph",
                                  "--source-tree", "--target-tree"])
def test_match_rejects_an_artifact_built_from_another_catalog(tmp_path, capsys, flag, change):
    source, target, script = fixture_files(tmp_path)
    backend = f"scripted:{script}"
    side = flag.split("-")[2]
    doc = json.loads({"source": source, "target": target}[side].read_text())
    columns = doc["tables"][0]["columns"]
    if change == "grew":  # the artifact lacks the catalog's last column
        columns.pop()
    else:
        columns.append({"name": "extra_col", "description": "a column since dropped"})
    other = write_json(tmp_path / "other.json", doc)
    artifact = tmp_path / "artifact.json"
    command = "build-graph" if flag.endswith("graph") else "build-tree"
    assert main([command, "--catalog", str(other), "--side", side, "--out", str(artifact),
                 "--backend", backend]) == 0
    capsys.readouterr()
    rc = main(["match", "--source-catalog", str(source), "--target-catalog", str(target),
               flag, str(artifact), "--source", "income_main", "--mode", "full", "--k", "2",
               "--out", str(tmp_path / "run"), "--backend", backend])
    err = capsys.readouterr().err
    assert rc == 1
    assert str(artifact) in err and "rebuild" in err and "Traceback" not in err


def bench_setup(tmp_path):
    source, target, script = fixture_files(tmp_path)
    benchspec = write_json(tmp_path / "benchspec.json", {
        "source_catalog": "source.json",
        "target_catalog": "target.json",
        # income_main and income_side share 12 of their 14 and 15 tokens: a
        # cosine of 12 / sqrt(14 * 15) = 0.83 expected under the hash
        # embedder, 0.66-0.93 over its seeds 0-1999, so 0.5 clears by 0.16
        "pair_similarity_tau": 0.5,
        "min_separation": 2,
        "verified_matches": {"income_main": "wage_amount",
                             "income_side": "wage_amount"},
    })
    return source, target, script, benchspec


def test_bench_generate_run_report_cycle(tmp_path):
    source, target, script, benchspec = bench_setup(tmp_path)
    backend = f"scripted:{script}"
    bench = tmp_path / "bench.json"
    assert main(["bench", "generate", "--benchspec", str(benchspec),
                 "--out", str(bench), "--backend", backend]) == 0
    rows = json.loads(bench.read_text())
    assert [r["source"] for r in rows] == ["C1", "C4"]

    out_dir = tmp_path / "benchrun"
    rc = main(["bench", "run", "--benchspec", str(benchspec), "--bench", str(bench),
               "--modes", "embed_top1,llm_local", "--k", "2",
               "--out", str(out_dir), "--backend", backend])
    assert rc == 0
    assert (out_dir / "report.md").exists()
    assert (out_dir / "report.csv").exists()
    csv_text = (out_dir / "report.csv").read_text()
    assert "embed_top1" in csv_text and "llm_local" in csv_text
    assert (out_dir / "traces" / "embed_top1" / "q0000.json").exists()

    assert main(["report", "--runs", str(out_dir), "--format", "markdown"]) == 0
    assert main(["report", "--runs", str(out_dir), "--format", "csv"]) == 0


HEADER = "slice,mode,n,acc1,acc3,acc5,llm_calls_per_query,tokens_per_query,latency_s"
ROW = "all,full,2,1.0,1.0,1.0,2.0,100.0,0.5"


@pytest.mark.parametrize("text", [
    HEADER.replace("acc1,", "") + "\n" + ROW.replace("1.0,", "", 1) + "\n",
    HEADER + "\n" + ROW.replace(",2,", ",x,") + "\n",
    "garbage\n",
    HEADER + "\n" + "all,full,2,1.0\n",
], ids=["no-acc1-column", "n-not-a-number", "garbage-header", "short-row"])
def test_malformed_report_csv_is_user_error(tmp_path, capsys, text):
    (tmp_path / "report.csv").write_text(text)
    assert main(["report", "--runs", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert str(tmp_path / "report.csv") in err and "Traceback" not in err


def test_malformed_script_is_user_error(tmp_path, capsys):
    source, target, _ = fixture_files(tmp_path)
    script = tmp_path / "script.json"
    for text in ("{not json", '[{"contains": "x", "reply": "y"}]',
                 '{"rules": [{"reply": "y"}]}', '{"rules": [{"contains": 5, "reply": "y"}]}',
                 '{"default": 5}', '{"default": "y", "delay": []}'):
        script.write_text(text)
        rc = main(["build-graph", "--catalog", str(source), "--out", str(tmp_path / "g.json"),
                   "--backend", f"scripted:{script}"])
        err = capsys.readouterr().err
        assert rc == 1, text
        assert f"scripted backend file {script}" in err and "Traceback" not in err


@pytest.mark.parametrize("mistake", ["script-is-a-directory", "cache-is-a-file",
                                     "out-under-a-file"])
def test_path_of_the_wrong_kind_is_user_error(tmp_path, capsys, mistake):
    source, target, script = fixture_files(tmp_path)
    backend, cache, out = f"scripted:{script}", [], tmp_path / "run"
    if mistake == "script-is-a-directory":
        named = tmp_path / "scripts"
        named.mkdir()
        backend = f"scripted:{named}"
    elif mistake == "cache-is-a-file":
        named = source
        cache = ["--cache", str(source)]
    else:
        named = out = source / "run"
    rc = main(["match", "--source-catalog", str(source), "--target-catalog", str(target),
               "--source", "income_main", "--mode", "llm_local", "--out", str(out),
               "--backend", backend, *cache])
    err = capsys.readouterr().err
    assert rc == 1
    assert str(named) in err and "Traceback" not in err


def test_bench_run_without_truth_is_user_error_before_any_query(tmp_path, capsys):
    source, target, script, benchspec = bench_setup(tmp_path)
    bench = write_json(tmp_path / "bench.json", [
        {"source": "C1", "truth": "C1"}, {"source": "C4"}])
    out_dir = tmp_path / "run"
    rc = main(["bench", "run", "--benchspec", str(benchspec), "--bench", str(bench),
               "--modes", "llm_local,full", "--out", str(out_dir),
               "--backend", f"scripted:{script}"])
    assert rc == 1
    assert 'query 1 (source C4) has no "truth"' in capsys.readouterr().err
    assert not (out_dir / "traces").exists()
    assert not any((out_dir / "cache").glob("*.json"))


def test_bench_run_failure_traces_sum_to_the_report(tmp_path):
    source, target, script, benchspec = bench_setup(tmp_path)
    doc = json.loads(script.read_text())
    doc["rules"] = doc["rules"][1:]  # no decision rule: every decision fails
    backend = f"scripted:{write_json(tmp_path / 'silent.json', doc)}"
    bench = tmp_path / "bench.json"
    assert main(["bench", "generate", "--benchspec", str(benchspec),
                 "--out", str(bench), "--backend", backend]) == 0
    out_dir = tmp_path / "run"
    modes = ("embed_top1", "llm_local", "full", "no_tree", "no_diff")
    assert main(["bench", "run", "--benchspec", str(benchspec), "--bench", str(bench),
                 "--modes", ",".join(modes), "--k", "2", "--tau", "0.8",
                 "--out", str(out_dir), "--backend", backend]) == 0
    report = parse_report_csv((out_dir / "report.csv").read_text())["all"]
    for mode in modes:
        rows = [json.loads(p.read_text())
                for p in sorted((out_dir / "traces" / mode).glob("q*.json"))]
        assert len(rows) == report[mode].n == 2
        assert all(("error" in row) == (mode != "embed_top1") for row in rows)
        for counter, mean in (("llm_calls", report[mode].mean_llm_calls),
                              ("total_tokens", report[mode].mean_tokens),
                              ("latency", report[mode].mean_latency)):
            assert sum(row[counter] for row in rows) / len(rows) == mean, (mode, counter)
    assert report["llm_local"].mean_llm_calls == 2.0  # the decision and its retry


def test_bench_run_reproduces_byte_identical_traces(tmp_path):
    source, target, script, benchspec = bench_setup(tmp_path)
    backend = f"scripted:{script}"
    bench = tmp_path / "bench.json"
    assert main(["bench", "generate", "--benchspec", str(benchspec),
                 "--out", str(bench), "--backend", backend]) == 0

    outs = []
    for name in ("r1", "r2"):
        out_dir = tmp_path / name
        assert main(["bench", "run", "--benchspec", str(benchspec),
                     "--bench", str(bench), "--modes", "llm_local", "--k", "2",
                     "--out", str(out_dir), "--backend", backend]) == 0
        outs.append(out_dir)
    # a third run configured purely from the written run_config reproduces too
    out3 = tmp_path / "r3"
    assert main(["bench", "run", "--benchspec", str(benchspec),
                 "--bench", str(bench), "--modes", "llm_local",
                 "--out", str(out3),
                 "--config", str(outs[0] / "run_config.json")]) == 0
    outs.append(out3)
    for rel in ("report.csv", "traces/llm_local/q0000.json",
                "traces/llm_local/q0001.json"):
        blobs = [(d / rel).read_bytes() for d in outs]
        assert blobs[0] == blobs[1] == blobs[2], f"{rel} differs between identical runs"
    assert (outs[0] / "run_config.json").read_bytes() == \
        (outs[1] / "run_config.json").read_bytes()


def test_masked_build_is_reproducible_from_its_run_config(tmp_path):
    source, target, script = fixture_files(tmp_path)
    # a rule keyed on a raw column name fires only if masking is lost
    raw = write_json(tmp_path / "raw.json", {
        "rules": [{"contains": "income_main", "reply": "a raw name reached the model"}],
        "default": "a short deterministic summary",
    })
    for command, name in (("build-tree", "tree.json"), ("build-graph", "graph.json")):
        first, again = tmp_path / command / "first", tmp_path / command / "again"
        assert main([command, "--catalog", str(source), "--side", "source", "--mask",
                     "--out", str(first / name), "--backend", f"scripted:{raw}"]) == 0
        assert json.loads((first / "run_config.json").read_text())["mask_source"] is True
        assert main([command, "--catalog", str(source), "--side", "source",
                     "--out", str(again / name),
                     "--config", str(first / "run_config.json")]) == 0
        assert (again / name).read_bytes() == (first / name).read_bytes(), command
    assert "raw name" not in (tmp_path / "build-tree" / "first" / "tree.json").read_text()


@pytest.mark.parametrize("recorded", ["unmasked", "no-flag"])
@pytest.mark.parametrize("kind", ["graph", "tree"])
def test_masked_match_refuses_an_artifact_built_unmasked(tmp_path, capsys, kind, recorded):
    source, target, script = fixture_files(tmp_path)
    backend = f"scripted:{script}"
    masked_cfg = write_json(tmp_path / "masked.json", {"mask_source": True, "mask_target": True})
    paths = {}
    for name, flags in (("masked", ["--mask"]), ("plain", [])):
        paths[name] = tmp_path / name / f"{kind}.json"
        assert main([f"build-{kind}", "--catalog", str(target), "--side", "target", *flags,
                     "--out", str(paths[name]), "--backend", backend]) == 0
    if recorded == "no-flag":  # as every file written before artifacts recorded masking
        doc = json.loads(paths["plain"].read_text())
        del doc["masked"]
        if kind == "tree":
            del doc["content_hash"]
            paths["plain"].write_text(hashed_tree(**doc))
        else:
            write_json(paths["plain"], doc)
    capsys.readouterr()

    def match(path):
        return main(["match", "--source-catalog", str(source), "--target-catalog", str(target),
                     f"--target-{kind}", str(path), "--source", "C1", "--mode", "full",
                     "--k", "2", "--config", str(masked_cfg), "--out", str(tmp_path / "run"),
                     "--backend", backend])

    assert match(paths["masked"]) == 0
    assert match(paths["plain"]) == 1
    err = capsys.readouterr().err
    assert str(paths["plain"]) in err and "rebuild it" in err, err
    assert ("records no masking state" if recorded == "no-flag" else "the unmasked catalog") in err


def test_bench_run_records_the_masking_its_spec_applies(tmp_path):
    source, target, script, benchspec = bench_setup(tmp_path)
    spec = json.loads(benchspec.read_text())
    masked_spec = write_json(tmp_path / "masked_spec.json", {**spec, "mask_source": True})
    backend = f"scripted:{script}"
    bench = tmp_path / "bench.json"
    assert main(["bench", "generate", "--benchspec", str(benchspec),
                 "--out", str(bench), "--backend", backend]) == 0
    assert main(["bench", "run", "--benchspec", str(masked_spec), "--bench", str(bench),
                 "--modes", "llm_local", "--out", str(tmp_path / "run"),
                 "--backend", backend]) == 0
    resolved = json.loads((tmp_path / "run" / "run_config.json").read_text())
    assert resolved["mask_source"] is True and resolved["mask_target"] is False


def test_match_reads_a_stored_target_graph(tmp_path):
    source, target, script = fixture_files(tmp_path)
    backend = f"scripted:{script}"
    graph = tmp_path / "tg.json"
    assert main(["build-graph", "--catalog", str(target), "--side", "target",
                 "--tau", "0.8", "--out", str(graph), "--backend", backend]) == 0
    out_dir = tmp_path / "graphrun"
    argv = ["match", "--source-catalog", str(source), "--target-catalog", str(target),
            "--source", "income_main", "--mode", "llm_local", "--k", "2",
            "--out", str(out_dir), "--backend", backend]
    # --tree and --graph were second names for --target-tree and --target-graph
    for alias in ("--tree", "--graph"):
        assert main(argv + [alias, str(graph)]) == 1
    assert main(argv + ["--target-graph", str(graph)]) == 0
    row = json.loads(next((out_dir / "traces").glob("q*.json")).read_text())
    assert row["ranked"][0] == row["chosen"] == "C1"
    assert len(row["ranked"]) == 2


def test_match_writes_every_trace_and_exits_2_on_failed_queries(tmp_path, capsys):
    source, target, script = fixture_files(tmp_path)
    # the script always answers C1, so a shortlist without C1 cannot be decided
    queries = write_json(tmp_path / "queries.json", [
        {"source": "C1", "shortlist": ["C1", "C2"]},
        {"source": "C2", "shortlist": ["C2", "C3"]},
        {"source": "C3", "shortlist": ["C3", "C1"]},
    ])
    out_dir = tmp_path / "run"
    rc = main(["match",
               "--source-catalog", str(source), "--target-catalog", str(target),
               "--queries", str(queries), "--mode", "llm_local",
               "--out", str(out_dir), "--backend", f"scripted:{script}"])
    assert rc == 2
    rows = [json.loads(p.read_text()) for p in sorted((out_dir / "traces").glob("q*.json"))]
    assert [row.get("chosen") for row in rows] == ["C1", None, "C1"]
    counters = {"llm_calls", "total_tokens", "latency", "cache_hits"}
    assert set(rows[0]) == {"source", "truth", "chosen", "ranked", "correct", "mode",
                            "prompt_snapshot"} | counters
    assert set(rows[1]) == {"source", "error"} | counters and rows[1]["source"] == "C2"
    assert rows[1]["llm_calls"] == 2 and rows[1]["total_tokens"] > 0  # decision and retry
    assert "unusable after retry" in rows[1]["error"]
    captured = capsys.readouterr()
    assert "q0001: C2 failed" in captured.err and "Traceback" not in captured.err
    assert "q0000: C1 -> C1" in captured.out and "q0002: C3 -> C1" in captured.out
    assert (out_dir / "run_config.json").exists()


def test_traces_do_not_depend_on_max_in_flight(tmp_path):
    source, target, script, benchspec = bench_setup(tmp_path)
    doc = json.loads(script.read_text())
    doc["delay"] = 0.005  # keeps several queries in flight at once
    backend = f"scripted:{write_json(script, doc)}"
    bench = tmp_path / "bench.json"
    assert main(["bench", "generate", "--benchspec", str(benchspec),
                 "--out", str(bench), "--backend", backend]) == 0
    queries = write_json(tmp_path / "queries.json", [
        {"source": c} for c in ("C1", "C2", "C3", "C4")])
    for cap in ("1", "16"):
        assert main(["match",
                     "--source-catalog", str(source), "--target-catalog", str(target),
                     "--queries", str(queries), "--mode", "full", "--k", "3",
                     "--tau", "0.8", "--max-in-flight", cap,
                     "--out", str(tmp_path / f"match{cap}"), "--backend", backend]) == 0
        assert main(["bench", "run", "--benchspec", str(benchspec), "--bench", str(bench),
                     "--modes", "full,no_tree", "--k", "2", "--max-in-flight", cap,
                     "--out", str(tmp_path / f"bench{cap}"), "--backend", backend]) == 0
    for name in ("match", "bench"):
        serial, pooled = tmp_path / f"{name}1", tmp_path / f"{name}16"
        files = sorted(p.relative_to(serial) for p in (serial / "traces").rglob("q*.json"))
        assert len(files) == 4
        if name == "bench":
            files += [Path("report.md"), Path("report.csv")]
        for rel in files:
            assert (serial / rel).read_bytes() == (pooled / rel).read_bytes(), rel


def test_nonpositive_max_in_flight_is_user_error(tmp_path, capsys):
    source, target, script, _ = bench_setup(tmp_path)
    rc = main(["build-graph", "--catalog", str(target), "--out", str(tmp_path / "g.json"),
               "--backend", f"scripted:{script}", "--max-in-flight", "0"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "max_in_flight" in err and "Traceback" not in err


def test_nonpositive_k_is_user_error(tmp_path, capsys):
    source, target, script = fixture_files(tmp_path)
    for k in ("-3", "0"):
        rc = main(["match",
                   "--source-catalog", str(source), "--target-catalog", str(target),
                   "--source", "income_main", "--mode", "llm_local", "--k", k,
                   "--out", str(tmp_path / "run"), "--backend", f"scripted:{script}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "k must be >= 1" in err and "Traceback" not in err


def test_edited_script_is_not_answered_from_cache(tmp_path):
    source, target, script = fixture_files(tmp_path)
    cache = tmp_path / "cache"

    def run(name):
        out_dir = tmp_path / name
        assert main(["match",
                     "--source-catalog", str(source), "--target-catalog", str(target),
                     "--source", "income_main", "--mode", "llm_local", "--k", "3",
                     "--cache", str(cache), "--out", str(out_dir),
                     "--backend", f"scripted:{script}"]) == 0
        return json.loads((out_dir / "traces" / "q0000.json").read_text())

    first = run("r1")
    assert first["chosen"] == "C1" and first["cache_hits"] == 0
    assert run("r2")["cache_hits"] == 1  # same script: the reply comes from the cache
    doc = json.loads(script.read_text())
    doc["rules"][0]["reply"] = "ANSWER: C2"
    write_json(script, doc)  # same file name, new reply
    edited = run("r3")
    assert edited["chosen"] == "C2" and edited["cache_hits"] == 0


def test_leaf_budget_over_window_is_user_error(tmp_path, capsys):
    source, target, script = fixture_files(tmp_path)
    rc = main(["build-tree", "--catalog", str(source), "--out", str(tmp_path / "t.json"),
               "--leaf-budget", "300", "--backend", f"scripted:{script}"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "leaf_budget" in err and "Traceback" not in err


def test_unknown_mode_in_config_file_is_user_error(tmp_path, capsys):
    source, target, script = fixture_files(tmp_path)
    config = write_json(tmp_path / "config.json", {"mode": "nonsense"})
    rc = main(["match",
               "--source-catalog", str(source), "--target-catalog", str(target),
               "--source", "income_main", "--config", str(config),
               "--out", str(tmp_path / "run"), "--backend", f"scripted:{script}"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "nonsense" in err and "Traceback" not in err


def test_empty_mode_list_is_user_error(tmp_path, capsys):
    source, target, script, benchspec = bench_setup(tmp_path)
    backend = f"scripted:{script}"
    bench = tmp_path / "bench.json"
    assert main(["bench", "generate", "--benchspec", str(benchspec),
                 "--out", str(bench), "--backend", backend]) == 0
    capsys.readouterr()
    rc = main(["bench", "run", "--benchspec", str(benchspec), "--bench", str(bench),
               "--modes", ",", "--out", str(tmp_path / "run"), "--backend", backend])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--modes" in err and "Traceback" not in err


def test_config_file_layering_and_flag_override(tmp_path, capsys):
    source, target, script, benchspec = bench_setup(tmp_path)
    backend = f"scripted:{script}"
    config = write_json(tmp_path / "config.json", {"tau": 0.7, "k": 2})
    out = tmp_path / "g.json"
    assert main(["build-graph", "--catalog", str(target), "--out", str(out),
                 "--backend", backend, "--config", str(config)]) == 0
    resolved = json.loads((tmp_path / "run_config.json").read_text())
    assert resolved["tau"] == 0.7 and resolved["k"] == 2
    assert "api_key" not in resolved

    assert main(["build-graph", "--catalog", str(target), "--out", str(out),
                 "--backend", backend, "--config", str(config),
                 "--tau", "0.95"]) == 0
    resolved = json.loads((tmp_path / "run_config.json").read_text())
    assert resolved["tau"] == 0.95  # explicit flag beats the config file


def test_delta_flag_sets_the_cluster_threshold(tmp_path):
    source, target, script = fixture_files(tmp_path)
    out = tmp_path / "t.json"
    assert main(["build-tree", "--catalog", str(source), "--out", str(out),
                 "--delta", "0.25", "--backend", f"scripted:{script}"]) == 0
    resolved = json.loads((tmp_path / "run_config.json").read_text())
    assert resolved["cluster_threshold"] == 0.25 and "delta" not in resolved
    assert json.loads(out.read_text())["params"]["cluster_threshold"] == 0.25


# the four LLM-mode matches, the two without a source graph and the masked
# match run query files that hold failing queries; every other command of
# the session succeeds
SESSION_FAILS = {5, 6, 7, 8, 9, 10, 13}


def test_cli_session_outputs_do_not_depend_on_max_in_flight(tmp_path):
    session = Path(__file__).resolve().parents[1] / "benchmarks" / "cli_session.py"
    outs = {}
    for name, extra in (("default", []), ("serial", ["--max-in-flight", "1"])):
        outs[name] = tmp_path / name
        subprocess.run([sys.executable, str(session), str(outs[name]), *extra],
                       check=True, capture_output=True)
    commands = sorted((outs["default"] / "commands").iterdir())
    assert len(commands) == 21
    for i, path in enumerate(commands):
        head, stderr = path.read_text(encoding="utf-8").split("--- stderr\n")
        assert head.startswith(f"exit: {2 if i in SESSION_FAILS else 0}\n"), path.name
        assert "Traceback" not in stderr, path.name

    files = {name: sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
             for name, out in outs.items()}
    assert files["default"] == files["serial"] and len(files["default"]) > 300

    def comparable(path: Path) -> bytes:
        if path.name != "run_config.json":
            return path.read_bytes()
        return b"".join(line for line in path.read_bytes().splitlines(keepends=True)
                        if b'"max_in_flight"' not in line)

    for rel in files["default"]:
        assert comparable(outs["default"] / rel) == comparable(outs["serial"] / rel), rel


def hashed_tree(**fields) -> str:
    """A source tree file whose content hash is valid, with ``fields`` set."""
    doc = {"format": 1, "side": "source", "root": "root", "params": {}, "nodes": {},
           "relations": [], **fields}
    doc["content_hash"] = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    return json.dumps(doc)


@pytest.mark.parametrize("argv,files,named", [
    (["match", "--target-graph", "nope.json"], {}, "nope.json"),
    (["match", "--source-tree", "nope.json"], {}, "nope.json"),
    (["match", "--target-graph", "bad.json"], {"bad.json": "not json"}, "bad.json"),
    (["match", "--target-graph", "bad.json"], {"bad.json": '{"side": "target"}'}, "bad.json"),
    (["match", "--target-graph", "bad.json"],
     {"bad.json": '{"side": "target", "tau": 0.9, "columns": [{"table_id": "K", "ordinal": 0}, '
                  '{"table_id": "K", "ordinal": 1}, {"table_id": "K", "ordinal": 2}], '
                  '"embeddings": [[1.0], [1.0], [1.0]], "links": [], "groups": [[3]]}'},
     "bad.json"),
    (["match", "--queries", "nope.json"], {}, "nope.json"),
    (["match", "--queries", "q.json"], {"q.json": '[{"truth": "C1"}]'}, "q.json"),
    (["bench", "run", "--bench", "nope.json"], {}, "nope.json"),
    (["match", "--config", "c.json"], {"c.json": '{"k": "3"}'}, "'k'"),
    (["match", "--config", "c.json"], {"c.json": '{"window": "4"}'}, "'window'"),
    (["match", "--config", "c.json"], {"c.json": '[{"k": 3}]'}, "c.json"),
    (["match", "--config", "c.json"], {"c.json": '"k"'}, "c.json"),
    (["match", "--target-graph", "bad.json"], {"bad.json": "[]"}, "bad.json"),
    (["match", "--source-tree", "bad.json"], {"bad.json": "[]"}, "bad.json"),
    (["match", "--target-graph", "bad.json"], {"bad.json": '{"side": "target", "columns": [1]}'},
     "bad.json"),
    (["match", "--target-graph", "bad.json"], {"bad.json": '{"side": "target", "columns": 5}'},
     "bad.json"),
    (["match", "--source-tree", "bad.json"], {"bad.json": hashed_tree(params=[])}, "bad.json"),
    (["match", "--source-tree", "bad.json"], {"bad.json": hashed_tree(relations=[1])}, "bad.json"),
    (["match", "--source-tree", "bad.json"], {"bad.json": hashed_tree(nodes=[])}, "bad.json"),
    (["match", "--queries", "q.json"], {"q.json": "[1]"}, "q.json"),
    (["match", "--queries", "q.json"], {"q.json": '{"a": 1}'}, "q.json"),
    (["match", "--queries", "q.json"], {"q.json": '[{"source": "C1", "shortlist": 7}]'},
     "q.json"),
    (["match", "--queries", "q.json"], {"q.json": '[{"source": ["C1"]}]'}, "q.json"),
    (["bench", "run", "--bench", "q.json"], {"q.json": "[1]"}, "q.json"),
    (["bench", "run", "--bench", "q.json"], {"q.json": '{"a": 1}'}, "q.json"),
], ids=["missing-graph", "missing-tree", "graph-not-json", "graph-without-columns",
        "graph-group-past-its-columns", "missing-queries", "query-without-source",
        "missing-bench", "string-k", "string-window", "config-array", "config-string",
        "graph-array", "tree-array", "graph-column-number", "graph-columns-number",
        "tree-params-array", "tree-relation-number", "tree-nodes-array",
        "queries-number-row", "queries-object", "queries-shortlist-number",
        "queries-source-array", "bench-number-row", "bench-object"])
def test_unreadable_file_or_mistyped_config_value_is_user_error(
        tmp_path, monkeypatch, capsys, argv, files, named):
    bench_setup(tmp_path)
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    rest = {"match": ["--source-catalog", "source.json", "--target-catalog", "target.json",
                      "--source", "income_main", "--mode", "llm_local", "--k", "2"],
            "bench": ["--benchspec", "benchspec.json"]}[argv[0]]
    rc = main(argv + rest + ["--out", "run", "--backend", "scripted:script.json"])
    err = capsys.readouterr().err
    assert rc == 1
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("fields,named", [
    ({"verified_matches": [["income_main", "wage_amount"]]}, "'verified_matches'"),
    ({"verified_matches": {"income_main": 3}}, "'verified_matches'"),
    ({"pair_similarity_tau": "abc"}, "'pair_similarity_tau'"),
    ({"pair_similarity_tau": None}, "'pair_similarity_tau'"),
    ({"pair_similarity_tau": True}, "'pair_similarity_tau'"),
    ({"min_separation": "two"}, "'min_separation'"),
    ({"min_separation": 2.5}, "'min_separation'"),
    ({"source_catalog": 5}, "'source_catalog'"),
    ({"target_catalog": None}, "'target_catalog'"),
    ({"mask_source": "yes"}, "'mask_source'"),
    ({"min_separation": None, "pair_similarity_tau": None}, "'pair_similarity_tau'"),
], ids=["matches-array", "match-number", "tau-string", "tau-null", "tau-bool",
        "separation-string", "separation-float", "source-catalog-number", "target-catalog-null",
        "mask-string", "first-bad-key"])
def test_malformed_bench_spec_is_user_error(tmp_path, capsys, fields, named):
    source, target, script, benchspec = bench_setup(tmp_path)
    write_json(benchspec, {**json.loads(benchspec.read_text()), **fields})
    rc = main(["bench", "generate", "--benchspec", str(benchspec),
               "--out", str(tmp_path / "bench.json"), "--backend", f"scripted:{script}"])
    err = capsys.readouterr().err
    assert rc == 1
    assert str(benchspec) in err and named in err and "Traceback" not in err


@pytest.mark.parametrize("doc", [[{"source_catalog": "source.json"}], "spec", 5, None],
                         ids=["array", "string", "number", "null"])
def test_bench_spec_that_is_no_object_is_user_error(tmp_path, capsys, doc):
    source, target, script, benchspec = bench_setup(tmp_path)
    write_json(benchspec, doc)
    rc = main(["bench", "generate", "--benchspec", str(benchspec),
               "--out", str(tmp_path / "bench.json"), "--backend", f"scripted:{script}"])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"{benchspec} must hold a JSON object" in err and "missing" not in err


def test_bad_config_key_rejected(tmp_path, capsys):
    source, target, script, benchspec = bench_setup(tmp_path)
    # "workers" was a key until max_in_flight replaced it, "delta" until the
    # tree settings took TreeParams' own names, and the last eight until each
    # became a constant of the module that uses it
    for key in ("no_such_option", "workers", "delta", "cap_total", "cap_strong",
                "max_groups", "max_group_members", "decision_timeout", "diff_timeout",
                "embed_dim", "embed_seed"):
        config = write_json(tmp_path / "config.json", {key: 1})
        rc = main(["build-graph", "--catalog", str(target), "--out",
                   str(tmp_path / "g.json"), "--backend", f"scripted:{script}",
                   "--config", str(config)])
        assert rc == 1
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err


def test_missing_catalog_file_is_user_error(tmp_path, capsys):
    source, target, script, _ = bench_setup(tmp_path)
    rc = main(["build-graph", "--catalog", str(tmp_path / "absent.json"),
               "--out", str(tmp_path / "g.json"), "--backend", f"scripted:{script}"])
    assert rc == 1
