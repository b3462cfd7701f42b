"""Configuration validation at build time."""

import json
from pathlib import Path

import pytest

from clustersum.cli import main
from clustersum.config import (
    ConfigError,
    PipelineConfig,
    build_config,
    parse_config_file,
    parse_setting,
)


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


class TestSettings:
    def _build_vocab(self, tmp_path, *settings):
        """build-vocab on a corpus of two records, as many as the default
        ``num_clusters`` asks for."""
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps({"id": i, "text": "one two"}) + "\n"
                                  for i in ("a", "b")), encoding="utf-8")
        out = tmp_path / "out"
        args = ["build-vocab", "--corpus", str(corpus), "--out", str(out)]
        for item in settings:
            args += ["--set", item]
        return main(args), out

    def test_set_seed_is_an_int(self, tmp_path):
        code, out = self._build_vocab(tmp_path, "seed=7")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["seed"] == 7 and isinstance(manifest["seed"], int)

    @pytest.mark.parametrize("item,message", [
        ("mlm_epochs=abc", "bad integer"),
        ("no_such_key=1", "unknown configuration key"),
        ("no_labels=true", "unknown configuration key"),
        ("loss_normalization=tokens", "unknown configuration key"),
        ("start_token=cls", "unknown configuration key"),
        ("bert_corruption=false", "unknown configuration key"),
        ("cosine_top_k_values=1,5,10", "unknown configuration key"),
        ("seed", "KEY=VALUE"),
    ])
    def test_bad_setting_exits_2(self, tmp_path, capsys, item, message):
        code, out = self._build_vocab(tmp_path, item)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    # each value used to get past parsing and fail mid-run, or only at the stage reading it
    @pytest.mark.parametrize("item,message", [
        ("mlm_epochs=0", "mlm_epochs"),
        ("finetune_epochs=0", "finetune_epochs"),
        ("decoder_epochs=0", "decoder_epochs"),
        ("mlm_batch_size=0", "mlm_batch_size"),
        ("finetune_batch_size=0", "finetune_batch_size"),
        ("decoder_batch_size=0", "decoder_batch_size"),
        ("mlm_lr=0", "mlm_lr must be positive"),
        ("finetune_lr=-1e-3", "finetune_lr must be positive"),
        ("decoder_lr=0", "decoder_lr must be positive"),
        ("mlm_warmup_steps=-3", "mlm_warmup_steps must be non-negative"),
        ("finetune_warmup_steps=-1", "finetune_warmup_steps must be non-negative"),
        ("decoder_warmup_steps=-1", "decoder_warmup_steps must be non-negative"),
        ("weight_decay=-1", "weight_decay must be non-negative"),
        ("dropout=1.5", "dropout must lie in [0, 1)"),
        ("dropout=1", "dropout must lie in [0, 1)"),
        ("dropout=-0.1", "dropout must lie in [0, 1)"),
        ("mask_rate=2.0", "mask_rate must lie in (0, 1]"),
        ("mask_rate=0", "mask_rate must lie in (0, 1]"),
        ("vocab_max_size=3", "vocab_max_size must exceed"),
        ("vocab_max_size=5", "vocab_max_size must exceed"),
        ("max_len=1", "max_len must be at least 3"),
        ("max_len=2", "max_len must be at least 3"),
        ("val_fraction=1.5", "val_fraction"),
        ("val_fraction=1", "val_fraction"),
        ("val_fraction=-0.1", "val_fraction"),
        ("num_candidates=0", "num_candidates"),
        ("temperature=0", "temperature"),
        ("top_k=0", "top_k"),
        ("top_p=0", "top_p"),
        ("top_p=1.5", "top_p must lie in (0, 1]"),
        ("retain_top_m=0", "retain_top_m"),
        ("max_summary_len=0", "max_summary_len"),
        ("seed=-1", "seed must be non-negative"),
    ])
    def test_bad_value_exits_2_before_any_stage(self, tmp_path, capsys, item, message):
        code, out = self._build_vocab(tmp_path, item)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_valid_configs_keep_their_hash(self):
        """The parse-time checks refuse values; they add no field and change
        no hash of a configuration that passes them."""
        assert PipelineConfig().config_hash().startswith("f8d866f312acd418")
        assert PipelineConfig.paper_scale().config_hash().startswith("4d42aeab09e88715")

    def test_defaults_paper_scale_and_benchmark_settings_parse(self, monkeypatch):
        PipelineConfig()
        PipelineConfig.paper_scale()
        assert PipelineConfig(val_fraction=0.0).val_fraction == 0.0
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from workloads import WORKLOADS

        for workload in WORKLOADS.values():
            for tiny in (False, True):
                build_config(cli_overrides=workload.merged_settings(tiny))

    def test_config_file_and_set_share_one_parser(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 7  # comment\nunweighted_ce = yes\n", encoding="utf-8")
        assert parse_config_file(path) == dict([parse_setting("seed=7"),
                                                parse_setting("unweighted_ce=yes")])
        path.write_text("\nmlm_epochs = abc\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"run.cfg:2: bad integer"):
            parse_config_file(path)
