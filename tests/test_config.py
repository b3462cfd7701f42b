"""Configuration validation at build time."""

import json

import pytest

from clustersum.cli import main
from clustersum.config import ConfigError, PipelineConfig, build_config


class TestSummaryLength:
    def test_summary_longer_than_max_len_rejected(self):
        with pytest.raises(ConfigError, match="max_summary_len"):
            PipelineConfig(max_len=16, max_summary_len=17)
        with pytest.raises(ConfigError, match="max_summary_len"):
            build_config(cli_overrides={"max_len": 16})  # default max_summary_len 32

    def test_summary_equal_to_max_len_accepted(self):
        config = PipelineConfig(max_len=16, max_summary_len=16)
        assert config.max_summary_len == config.max_len

    def test_cli_exits_2_before_any_stage(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({"id": "a", "text": "one two"}) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(["build-vocab", "--corpus", str(corpus), "--out", str(out),
                     "--set", "max_summary_len=65"])
        assert code == 2
        assert "max_summary_len" in capsys.readouterr().err
        assert not out.exists()
