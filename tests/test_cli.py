"""Tests for the operator CLI."""

import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "utility APIs        : 7" in out  # 70-something
        assert "kmeans" in out

    def test_features_listing(self, capsys):
        assert main(["features"]) == 0
        out = capsys.readouterr().out
        assert "FLOW_PACKET_COUNT" in out
        assert out.count("\n") > 100

    def test_features_category_filter(self, capsys):
        assert main(["features", "--category", "stateful"]) == 0
        out = capsys.readouterr().out
        assert "PAIR_FLOW" in out
        assert "FLOW_BYTE_PER_PACKET" not in out

    def test_ddos_command(self, capsys):
        assert main(["ddos", "--scale", "0.0004"]) == 0
        out = capsys.readouterr().out
        assert "Detection Rate" in out

    def test_cbench_command(self, capsys):
        assert main(["cbench", "--rounds", "1", "--seconds", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "overhead with Athena+DB" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])
