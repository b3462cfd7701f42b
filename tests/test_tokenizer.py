"""Vocabulary building, encoding, masking, and persistence."""

import numpy as np
import pytest

from clustersum.tokenizer import (
    CLS_ID,
    MASK_ID,
    PAD_ID,
    SEP_ID,
    UNK_ID,
    SPECIAL_TOKENS,
    Vocabulary,
    build_vocab,
    decode,
    encode,
    mask_for_mlm,
    tokenize,
)


class TestBuildVocab:
    def test_frequency_then_lexicographic_order(self):
        vocab = build_vocab(["a a b"], max_size=20)
        assert vocab.token_to_id["a"] < vocab.token_to_id["b"]

    def test_min_count_excludes_rare_tokens(self):
        vocab = build_vocab(["a a b"], max_size=20, min_count=2)
        assert "b" not in vocab.token_to_id
        assert encode("b", vocab, 8).ids == [CLS_ID, UNK_ID, SEP_ID]

    def test_capacity_arithmetic(self):
        corpus = [" ".join(f"tok{i}" for i in range(10))]
        vocab = build_vocab(corpus, max_size=7)
        assert vocab.size == 7
        non_special = [t for t in vocab.id_to_token if t not in SPECIAL_TOKENS]
        assert len(non_special) == 2

    def test_tie_break_is_lexicographic(self):
        vocab = build_vocab(["zeta alpha zeta alpha"], max_size=20)
        assert vocab.token_to_id["alpha"] < vocab.token_to_id["zeta"]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_vocab(["", "  "], max_size=20)

    def test_specials_occupy_fixed_low_ids(self):
        vocab = build_vocab(["hello world"], max_size=20)
        assert vocab.id_to_token[:5] == list(SPECIAL_TOKENS)
        assert PAD_ID == 0 and UNK_ID == 1 and CLS_ID == 2
        assert SEP_ID == 3 and MASK_ID == 4
        assert vocab.id_to_token[UNK_ID] == "[UNK]"

    def test_max_size_must_leave_room(self):
        with pytest.raises(ValueError):
            build_vocab(["a"], max_size=5)


class TestEncode:
    def test_empty_text(self):
        vocab = build_vocab(["a b c"], max_size=20)
        assert encode("", vocab, 16).ids == [CLS_ID, SEP_ID]

    def test_truncation_arithmetic(self):
        vocab = build_vocab([" ".join(f"t{i}" for i in range(100))], max_size=300)
        doc = encode(" ".join(f"t{i}" for i in range(100)), vocab, max_len=10)
        assert len(doc.ids) == 10
        assert len(doc.ids) - 2 == 8
        assert doc.ids[0] == CLS_ID and doc.ids[-1] == SEP_ID

    def test_round_trip_on_in_vocab_text(self):
        rng = np.random.default_rng(0)
        words = [f"word{i}" for i in range(30)]
        corpus = [" ".join(rng.choice(words, size=12)) for _ in range(20)]
        vocab = build_vocab(corpus, max_size=100)
        for _ in range(50):
            text = " ".join(rng.choice(words, size=int(rng.integers(1, 14))))
            normalized = " ".join(tokenize(text))
            assert decode(encode(text, vocab, 64).ids, vocab) == normalized

    def test_unknown_tokens_map_to_unk(self):
        vocab = build_vocab(["known tokens only"], max_size=20)
        doc = encode("known stranger", vocab, 16)
        assert doc.ids == [CLS_ID, vocab.token_to_id["known"], UNK_ID, SEP_ID]

    def test_lowercasing(self):
        vocab = build_vocab(["Mixed CASE text"], max_size=20)
        assert "mixed" in vocab.token_to_id
        assert "Mixed" not in vocab.token_to_id


class TestMaskForMlm:
    def _doc(self, body_len, vocab):
        text = " ".join(f"t{i}" for i in range(body_len))
        return encode(text, vocab, body_len + 2)

    @pytest.fixture
    def vocab(self):
        return build_vocab([" ".join(f"t{i}" for i in range(30))], max_size=100)

    def test_count_rounding(self, vocab):
        doc = self._doc(20, vocab)
        _, positions, _ = mask_for_mlm(doc, 0.15, np.random.default_rng(1))
        assert len(positions) == 3

    def test_minimum_one_mask(self, vocab):
        doc = self._doc(3, vocab)
        _, positions, _ = mask_for_mlm(doc, 0.15, np.random.default_rng(2))
        assert len(positions) == 1

    def test_specials_never_masked(self, vocab):
        doc = self._doc(10, vocab)
        for seed in range(50):
            masked, positions, _ = mask_for_mlm(doc, 0.15, np.random.default_rng(seed))
            assert masked[0] == CLS_ID and masked[-1] == SEP_ID
            assert all(1 <= p <= 10 for p in positions)

    def test_differs_exactly_at_reported_positions(self, vocab):
        doc = self._doc(12, vocab)
        masked, positions, originals = mask_for_mlm(doc, 0.15, np.random.default_rng(3))
        for i, (a, b) in enumerate(zip(doc.ids, masked)):
            if i in positions:
                assert b == MASK_ID and a == originals[positions.index(i)]
            else:
                assert a == b

    def test_monte_carlo_frequency(self, vocab):
        """Each body position of a length-20 doc masked at rate 0.15 +/- 0.02."""
        doc = self._doc(20, vocab)
        rng = np.random.default_rng(4)
        hits = np.zeros(21)
        draws = 10_000
        for _ in range(draws):
            _, positions, _ = mask_for_mlm(doc, 0.15, rng)
            for p in positions:
                hits[p] += 1
        freq = hits[1:] / draws
        assert np.all(np.abs(freq - 0.15) < 0.02)

    def test_empty_body_rejected(self, vocab):
        doc = encode("", vocab, 8)
        with pytest.raises(ValueError, match="no body"):
            mask_for_mlm(doc, 0.15, np.random.default_rng(5))


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        vocab = build_vocab(["the quick brown fox jumps"], max_size=50)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.token_to_id == vocab.token_to_id
        assert loaded.id_to_token == vocab.id_to_token

    def test_line_number_is_id(self, tmp_path):
        vocab = build_vocab(["alpha beta"], max_size=50)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        lines = path.read_text().splitlines()
        for token, line in zip(vocab.id_to_token, lines):
            assert token == line

    def test_reject_file_without_specials(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("foo\nbar\n")
        with pytest.raises(ValueError):
            Vocabulary.load(path)
