"""htaplint self-hosting: the shipped tree is clean, and the CLI gates it.

The zero-findings test is the analyzer's whole point as a CI gate — any
new nondeterminism, missed invalidation, cost asymmetry, metric typo,
swallowed error, or unreasoned suppression anywhere under ``src/repro``
fails this file.
"""

import json

from repro.analysis import analyze_tree, render_human, render_json
from repro.analysis.__main__ import main
from repro.analysis.core import Finding


class TestShippedTree:
    def test_zero_findings_on_shipped_tree(self):
        found = analyze_tree()
        assert found == [], "\n" + "\n".join(f.render() for f in found)

    def test_cli_exits_zero_on_shipped_tree(self, capsys):
        assert main([]) == 0
        assert "no findings" in capsys.readouterr().out


class TestCli:
    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "HTL001",
            "HTL002",
            "HTL004",
            "HTL005",
            "HTL006",
            "HTL007",
            "HTL008",
            "HTL009",
        ):
            assert rule_id in out

    def test_unknown_rule_is_usage_error(self, capsys):
        assert main(["--rules", "HTL042"]) == 2

    def test_json_format_on_dirty_tree(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n")
        code = main(["--format", "json", "--root", str(tmp_path)])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "HTL001"
        assert payload["findings"][0]["path"] == "bad.py"

    def test_rule_selection_scopes_the_run(self, tmp_path):
        (tmp_path / "bad.py").write_text("import random\n")
        assert main(["--root", str(tmp_path), "--rules", "HTL005"]) == 0
        assert main(["--root", str(tmp_path), "--rules", "HTL001"]) == 1

    def test_syntax_error_is_reported_not_crashed(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def f(:\n")
        assert main(["--root", str(tmp_path)]) == 1
        assert "HTL999" in capsys.readouterr().out

    def test_sarif_format(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n")
        out_file = tmp_path / "report.sarif"
        code = main(
            [
                "--format",
                "sarif",
                "--root",
                str(tmp_path),
                "--output",
                str(out_file),
            ]
        )
        assert code == 1
        log = json.loads(out_file.read_text())
        assert log["version"] == "2.1.0"
        (run,) = log["runs"]
        assert run["tool"]["driver"]["name"] == "htaplint"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert "HTL001" in rule_ids
        (result,) = run["results"]
        assert result["ruleId"] == "HTL001"
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "bad.py"
        assert loc["region"]["startLine"] == 1

    def test_baseline_round_trip(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n")
        baseline = tmp_path / "baseline.json"
        assert (
            main(["--root", str(tmp_path), "--write-baseline", str(baseline)])
            == 0
        )
        capsys.readouterr()
        # Known findings are subtracted: the gate passes...
        assert (
            main(["--root", str(tmp_path), "--baseline", str(baseline)]) == 0
        )
        capsys.readouterr()
        # ...until something new appears.
        (tmp_path / "worse.py").write_text("import random\n")
        code = main(
            [
                "--format",
                "json",
                "--root",
                str(tmp_path),
                "--baseline",
                str(baseline),
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert [f["path"] for f in payload["findings"]] == ["worse.py"]

    def test_cache_reuse(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        cache = tmp_path / ".cache" / "graph.pickle"
        assert (
            main(["--root", str(tmp_path), "--cache", str(cache)]) == 0
        )
        assert cache.is_file()
        # Second run loads the pickled index and agrees.
        assert (
            main(["--root", str(tmp_path), "--cache", str(cache)]) == 0
        )


class TestRenderers:
    def test_render_human_summarizes_by_rule(self):
        found = [
            Finding("HTL001", "a.py", 1, "x"),
            Finding("HTL001", "a.py", 2, "y"),
            Finding("HTL005", "b.py", 3, "z"),
        ]
        out = render_human(found)
        assert "a.py:1: HTL001 x" in out
        assert "3 finding(s)" in out
        assert "HTL001: 2" in out

    def test_render_json_round_trips(self):
        found = [Finding("HTL002", "c.py", 9, "m")]
        payload = json.loads(render_json(found))
        assert payload == {
            "count": 1,
            "findings": [
                {"rule": "HTL002", "path": "c.py", "line": 9, "message": "m"}
            ],
        }
