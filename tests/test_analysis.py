"""Acceptance tests for athena-lint (the ``repro.cli lint`` command).

Covers the contract from the issue: the shipped tree lints clean, a
fixture with a wall-clock call or an unknown feature name fails with a
``file:line`` finding, the JSON reporter is schema-stable, and both the
inline-directive and pyproject suppression layers work.
"""

import io
import json
import os
import re
import textwrap

import pytest

from repro.analysis import (
    JsonReporter,
    LintEngine,
    TextReporter,
    default_checkers,
    find_pyproject,
    load_config,
)
from repro.cli import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def in_repo_root(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)


class TestSelfCheck:
    def test_shipped_tree_lints_clean(self, in_repo_root, capsys):
        """The headline acceptance criterion: exit 0 over the repo."""
        assert main(["lint", "src/repro", "examples", "benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("ATH101", "ATH201", "ATH301"):
            assert rule in out


class TestFixtureFailures:
    def test_wall_clock_fixture_fails_with_file_line(self, tmp_path, capsys):
        bad = tmp_path / "bad_clock.py"
        bad.write_text(
            textwrap.dedent(
                """
                import time

                def stamp():
                    return time.time()
                """
            )
        )
        assert main(["lint", str(bad), "--no-config"]) == 1
        out = capsys.readouterr().out
        assert re.search(r"bad_clock\.py:5:\d+ \[ATH101\]", out)

    def test_unknown_feature_fixture_fails_with_suggestion(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "bad_feature.py"
        bad.write_text(
            'DDOS_FEATURES = ["FLOW_PACKET_COUNT", "FLOW_PAKET_COUNT"]\n'
        )
        assert main(["lint", str(bad), "--no-config"]) == 1
        out = capsys.readouterr().out
        assert re.search(r"bad_feature\.py:1:\d+ \[ATH201\]", out)
        assert "did you mean 'FLOW_PACKET_COUNT'" in out

    def test_warnings_do_not_fail_the_run(self, tmp_path, capsys):
        warn = tmp_path / "warn_only.py"
        warn.write_text('query.where("switch_idx", "==", 3)\n')
        assert main(["lint", str(warn), "--no-config"]) == 0
        out = capsys.readouterr().out
        assert "[ATH202] warning" in out

    def test_syntax_error_fails_the_run(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        assert main(["lint", str(broken), "--no-config"]) == 1
        assert "parse error" in capsys.readouterr().out


class TestSuppression:
    def test_inline_disable_silences_the_line(self, tmp_path, capsys):
        src = tmp_path / "suppressed.py"
        src.write_text(
            "import time\n"
            "t = time.time()  # athena-lint: disable=ATH101\n"
        )
        assert main(["lint", str(src), "--no-config"]) == 0

    def test_bare_disable_silences_every_rule_on_the_line(self, tmp_path):
        src = tmp_path / "suppressed.py"
        src.write_text(
            "import time\n"
            "t = time.time()  # athena-lint: disable\n"
        )
        assert main(["lint", str(src), "--no-config"]) == 0

    def test_disable_file_silences_the_family(self, tmp_path):
        src = tmp_path / "suppressed.py"
        src.write_text(
            "# athena-lint: disable-file=ATH1\n"
            "import time\n"
            "t = time.time()\n"
            "u = time.time_ns()\n"
        )
        assert main(["lint", str(src), "--no-config"]) == 0

    def test_unrelated_rule_still_fires(self, tmp_path, capsys):
        src = tmp_path / "partial.py"
        src.write_text(
            "import time\n"
            "t = time.time()  # athena-lint: disable=ATH201\n"
        )
        assert main(["lint", str(src), "--no-config"]) == 1
        assert "ATH101" in capsys.readouterr().out


class TestPyprojectConfig:
    def test_repo_config_disables_determinism_in_benchmarks(self):
        config = load_config(os.path.join(REPO_ROOT, "pyproject.toml"))
        assert config.is_rule_disabled("benchmarks/bench_compute.py", "ATH101")
        assert not config.is_rule_disabled("src/repro/cli.py", "ATH101")

    def test_exclude_skips_files(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "bad.py").write_text("import time\nt = time.time()\n")
        (tmp_path / "pyproject.toml").write_text(
            '[tool.athena-lint]\nexclude = ["pkg"]\n'
        )
        config = load_config(str(tmp_path / "pyproject.toml"))
        engine = LintEngine(default_checkers(), config=config, root=str(tmp_path))
        report = engine.run([str(pkg)])
        assert report.files_skipped == 1
        assert report.files_checked == 0
        assert not report.failed

    def test_find_pyproject_walks_upward(self):
        found = find_pyproject(os.path.join(REPO_ROOT, "src", "repro"))
        assert found == os.path.join(REPO_ROOT, "pyproject.toml")


class TestJsonReporter:
    """The JSON shape is a v1 contract — CI consumes it."""

    TOP_KEYS = {"schema_version", "summary", "parse_errors", "findings"}
    SUMMARY_KEYS = {"files_checked", "files_skipped", "errors", "warnings",
                    "by_rule"}
    FINDING_KEYS = {"path", "line", "col", "rule", "severity", "message",
                    "checker"}

    def _report_for(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        engine = LintEngine(default_checkers(), root=str(tmp_path))
        return engine.run([str(bad)])

    def test_schema_is_stable(self, tmp_path):
        payload = JsonReporter().to_dict(self._report_for(tmp_path))
        assert payload["schema_version"] == 1
        assert set(payload) == self.TOP_KEYS
        assert set(payload["summary"]) == self.SUMMARY_KEYS
        assert payload["findings"], "fixture must produce a finding"
        for finding in payload["findings"]:
            assert set(finding) == self.FINDING_KEYS
        assert payload["summary"]["by_rule"] == {"ATH101": 1}

    def test_cli_json_output_parses(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        assert main(["lint", str(bad), "--format", "json", "--no-config"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == self.TOP_KEYS
        assert payload["summary"]["errors"] == 1

    def test_reporters_take_injectable_streams(self, tmp_path):
        report = self._report_for(tmp_path)
        text_sink, json_sink = io.StringIO(), io.StringIO()
        TextReporter(stream=text_sink).report(report)
        JsonReporter(stream=json_sink).report(report)
        assert "[ATH101]" in text_sink.getvalue()
        assert json.loads(json_sink.getvalue())["schema_version"] == 1
