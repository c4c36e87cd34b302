"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import main


def test_graph_prints_genome_workflow(capsys):
    assert main(["graph"]) == 0
    out = capsys.readouterr().out
    assert "labflow-1-genome-mapping" in out
    assert "determine_sequence" in out


def test_eer_prints_figure(capsys):
    assert main(["eer"]) == 0
    out = capsys.readouterr().out
    assert "involves" in out and "is-a" in out


def test_graph_from_dsl_file(tmp_path, capsys):
    workflow_file = tmp_path / "wf.txt"
    workflow_file.write_text("""
workflow custom
material m key m initial s
step go involves m
    attr x : integer
transition s -> t via go
terminal t
""")
    assert main(["graph", "--workflow", str(workflow_file)]) == 0
    out = capsys.readouterr().out
    assert "custom" in out and "s --[go]--> t" in out


def test_demo_persists_database(tmp_path, capsys):
    db_path = os.path.join(tmp_path, "demo.db")
    assert main(["demo", "--clones", "3", "--db", db_path]) == 0
    out = capsys.readouterr().out
    assert "workflow steps executed" in out
    assert os.path.exists(db_path)


def test_query_against_persisted_db(tmp_path, capsys):
    db_path = os.path.join(tmp_path, "demo.db")
    main(["demo", "--clones", "3", "--db", db_path])
    capsys.readouterr()
    assert main(["query", db_path, "class_count(clone, N)."]) == 0
    out = capsys.readouterr().out
    assert "N = " in out


def test_query_no_solutions_prints_no(tmp_path, capsys):
    db_path = os.path.join(tmp_path, "demo.db")
    main(["demo", "--clones", "2", "--db", db_path])
    capsys.readouterr()
    assert main(["query", db_path, "state(M, never_used_state)."]) == 0
    assert "no" in capsys.readouterr().out


def test_query_limit(tmp_path, capsys):
    db_path = os.path.join(tmp_path, "demo.db")
    main(["demo", "--clones", "4", "--db", db_path])
    capsys.readouterr()
    assert main(["query", db_path, "material(C, K, M).", "--limit", "2"]) == 0
    out = capsys.readouterr().out
    assert "stopped at 2" in out


def test_query_error_reported(tmp_path, capsys):
    db_path = os.path.join(tmp_path, "demo.db")
    main(["demo", "--clones", "2", "--db", db_path])
    capsys.readouterr()
    assert main(["query", db_path, "no_such_predicate(X)."]) == 0
    assert "error" in capsys.readouterr().err


def test_run_single_server(capsys, tmp_path):
    assert main(["run", "--server", "OStore-mm", "--clones", "3"]) == 0
    out = capsys.readouterr().out
    assert "OStore-mm" in out and "elapsed sec" in out


def test_compare_subset(capsys, tmp_path):
    assert main([
        "compare", "--clones", "3", "--db-dir", str(tmp_path),
        "--servers", "OStore", "Texas-mm",
    ]) == 0
    out = capsys.readouterr().out
    assert "Database Server Version" in out
    assert "OStore" in out and "Texas-mm" in out
    assert "Texas+TC" not in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_record_and_replay_round_trip(tmp_path, capsys):
    trace_path = os.path.join(tmp_path, "stream.trace")
    assert main(["record", trace_path, "--clones", "3"]) == 0
    out = capsys.readouterr().out
    assert "recorded" in out and os.path.exists(trace_path)
    assert main([
        "replay", trace_path, "--server", "OStore",
        "--db-dir", os.path.join(tmp_path, "dbs"),
    ]) == 0
    out = capsys.readouterr().out
    assert "replayed" in out and "size (bytes)" in out


def test_replay_onto_memory_server(tmp_path, capsys):
    trace_path = os.path.join(tmp_path, "stream.trace")
    main(["record", trace_path, "--clones", "2"])
    capsys.readouterr()
    assert main(["replay", trace_path, "--server", "Texas-mm"]) == 0
    assert "Texas-mm" in capsys.readouterr().out


def test_shell_runs_queries_and_quits(tmp_path, capsys, monkeypatch):
    db_path = os.path.join(tmp_path, "demo.db")
    main(["demo", "--clones", "2", "--db", db_path])
    capsys.readouterr()
    lines = iter(["class_count(clone, N).", "", "bad syntax here", "quit."])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    assert main(["shell", db_path]) == 0
    captured = capsys.readouterr()
    assert "N = " in captured.out
    assert "error" in captured.err  # the bad query reported, shell kept going


def test_verify_clean_database(tmp_path, capsys):
    db_path = os.path.join(tmp_path, "demo.db")
    main(["demo", "--clones", "2", "--db", db_path])
    capsys.readouterr()
    assert main(["verify", db_path]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "checked" in out


def test_verify_then_recover_crashed_database(tmp_path, capsys):
    from repro.storage import ObjectStoreSM

    db_path = os.path.join(tmp_path, "crashed.db")
    sm = ObjectStoreSM(path=db_path, checkpoint_every=1)
    doomed = sm.allocate_write({"kept": False})
    sm.commit()
    sm.checkpoint_every = 0
    sm.delete(doomed)
    sm.commit()
    # crash: no close()
    assert main(["verify", db_path]) == 1
    out = capsys.readouterr().out
    assert "problem" in out and "recover" in out
    assert main(["recover", db_path]) == 0
    out = capsys.readouterr().out
    assert "consistent" in out
    assert main(["verify", db_path]) == 0


def test_verify_missing_file_does_not_create_one(tmp_path, capsys):
    db_path = os.path.join(tmp_path, "nope.db")
    assert main(["verify", db_path]) == 2
    assert "no such database" in capsys.readouterr().err
    assert not os.path.exists(db_path)  # a check must never create state
    assert main(["recover", db_path]) == 2
    assert not os.path.exists(db_path)


def test_verify_never_modifies_the_store(tmp_path, capsys):
    from repro.storage import ObjectStoreSM

    db_path = os.path.join(tmp_path, "frozen.db")
    sm = ObjectStoreSM(path=db_path, checkpoint_every=1)
    sm.allocate_write({"x": 1})
    sm.commit()
    sm.checkpoint_every = 0
    sm.allocate_write({"x": 2})
    sm.commit()  # crash follows: this commit is past the checkpoint
    before = open(db_path, "rb").read(), open(db_path + ".meta", "rb").read()
    main(["verify", db_path])
    capsys.readouterr()
    after = open(db_path, "rb").read(), open(db_path + ".meta", "rb").read()
    assert before == after


def test_shell_handles_eof(tmp_path, capsys, monkeypatch):
    db_path = os.path.join(tmp_path, "demo.db")
    main(["demo", "--clones", "2", "--db", db_path])
    capsys.readouterr()

    def raise_eof(prompt=""):
        raise EOFError

    monkeypatch.setattr("builtins.input", raise_eof)
    assert main(["shell", db_path]) == 0


def test_readahead_flag_parses_on_off_and_window(capsys, tmp_path):
    for flag, window in (("on", None), ("off", 0), ("4", 4)):
        assert main([
            "compare", "--clones", "2", "--db-dir",
            str(tmp_path / f"ra_{flag}"), "--servers", "OStore",
            "--readahead", flag,
        ]) == 0
        capsys.readouterr()


def test_readahead_flag_rejects_garbage():
    with pytest.raises(SystemExit):
        main(["compare", "--clones", "2", "--readahead", "many"])
    with pytest.raises(SystemExit):
        main(["compare", "--clones", "2", "--readahead", "-3"])


def test_lint_clean_tree_exits_zero(capsys):
    assert main(["lint"]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_lint_reports_findings_nonzero(capsys):
    fixture = os.path.join(
        os.path.dirname(__file__), "lint_fixtures", "LF03", "bad_reach_in.py"
    )
    assert main(["lint", fixture]) == 1
    out = capsys.readouterr().out
    assert "LF03" in out and "finding" in out


def test_lint_json_schema(capsys):
    import json

    fixture_dir = os.path.join(
        os.path.dirname(__file__), "lint_fixtures", "LF06"
    )
    assert main(["lint", fixture_dir, "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"version", "checked_files", "counts", "findings"}
    assert payload["counts"].get("LF06", 0) >= 2


def test_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "LF01" in out and "LF06" in out


def test_lint_rule_subset(capsys):
    fixture = os.path.join(
        os.path.dirname(__file__), "lint_fixtures", "LF03", "bad_reach_in.py"
    )
    assert main(["lint", fixture, "--rules", "LF06"]) == 0
    capsys.readouterr()


def test_serve_smoke_in_memory(capsys):
    assert main(["serve", "--smoke", "3", "--units", "8"]) == 0
    out = capsys.readouterr().out
    assert "serving <in-memory> [OStore] on 127.0.0.1:" in out
    assert "creates: 12" in out  # 3 clients x 4 mix materials
    assert "verify: OK" in out


def test_serve_smoke_persists_database(tmp_path, capsys):
    db_path = str(tmp_path / "served.pages")
    assert main([
        "serve", db_path, "--smoke", "2", "--units", "6", "--group-cap", "4",
    ]) == 0
    capsys.readouterr()
    assert os.path.exists(db_path)
    assert main(["verify", db_path]) == 0
    out = capsys.readouterr().out
    assert "OK" in out


def test_serve_interrupt_right_after_serving_line_stops_cleanly(
    tmp_path, monkeypatch
):
    """SIGINT lands the moment the serving line is written — exactly when
    a client that waits for the line sends it.  The server must still
    shut down and exit 0 instead of dying with a traceback."""
    import io
    import re
    import socket
    import sys

    class _InterruptAfterServingLine(io.StringIO):
        fired = False

        def write(self, text):
            written = super().write(text)
            if (not self.fired and "\n" in text
                    and self.getvalue().startswith("serving ")):
                self.fired = True
                raise KeyboardInterrupt
            return written

    out = _InterruptAfterServingLine()
    monkeypatch.setattr(sys, "stdout", out)
    db_path = str(tmp_path / "served.pages")
    try:
        status = main(["serve", db_path])
    except KeyboardInterrupt:
        pytest.fail("the interrupt escaped serve")
    monkeypatch.undo()
    assert status == 0
    assert out.fired
    assert "shutting down" in out.getvalue()
    host, port = re.search(r" on ([\d.]+):(\d+) ", out.getvalue()).groups()
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection((host, int(port)), timeout=2.0).close()
    assert main(["verify", db_path]) == 0
