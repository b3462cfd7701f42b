"""Property tests of the input parsers: ``KEY=VALUE`` settings, config
files and the JSONL corpus."""

import json
import re
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustersum.config import ConfigError, PipelineConfig, parse_config_file, parse_setting
from clustersum.pipeline import CorpusError, CorpusRecord, load_corpus
from clustersum.tokenizer import tokenize

FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}
BOOL_SPELLINGS = {"1": True, "true": True, "yes": True, "on": True,
                  "0": False, "false": False, "no": False, "off": False}

# one line of text: no control, surrogate or line/paragraph separator characters
LINE_TEXT = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")))


def _in_file(text: str, body):
    """``body(path)`` on a temporary file holding ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_text(text, encoding="utf-8")
        return body(path)


@st.composite
def settings_of_any_type(draw, value_text=LINE_TEXT):
    """(key, rendered value, expected parsed value) for any config field."""
    key = draw(st.sampled_from(sorted(FIELD_TYPES)))
    kind = FIELD_TYPES[key]
    if kind == "bool":
        spelling = draw(st.sampled_from(sorted(BOOL_SPELLINGS)))
        upper = draw(st.lists(st.booleans(), min_size=len(spelling), max_size=len(spelling)))
        shown = "".join(c.upper() if u else c for c, u in zip(spelling, upper))
        return key, shown, BOOL_SPELLINGS[spelling]
    if kind == "int":
        value = draw(st.integers())
        return key, str(value), value
    if kind == "float":
        value = draw(st.floats(allow_nan=False))
        return key, repr(value), value
    value = draw(value_text.filter(lambda v: v == v.strip()))
    return key, value, value


@given(settings_of_any_type(), st.sampled_from(["", " ", "\t"]), st.sampled_from(["", " "]))
def test_parse_setting_round_trips_every_field_type(setting, pad_key, pad_value):
    key, shown, expected = setting
    parsed_key, value = parse_setting(f"{pad_key}{key}{pad_key}={pad_value}{shown}{pad_value}")
    assert parsed_key == key
    assert type(value) is type(expected) and value == expected


@given(st.text(st.characters(whitelist_categories=("Ll", "Nd"), whitelist_characters="_"),
               min_size=1).filter(lambda k: k not in FIELD_TYPES),
       LINE_TEXT)
def test_parse_setting_rejects_unknown_keys(key, value):
    with pytest.raises(ConfigError, match="unknown configuration key"):
        parse_setting(f"{key}={value}")


@given(st.sampled_from(sorted(k for k, t in FIELD_TYPES.items() if t != "str")), LINE_TEXT)
def test_parse_setting_accepts_a_typed_value_or_raises_config_error(key, raw):
    """No other exception escapes, and what parses is the plain conversion."""
    kind = FIELD_TYPES[key]
    try:
        expected = {"bool": lambda r: BOOL_SPELLINGS[r.lower()], "int": int,
                    "float": float}[kind](raw.strip())
    except (KeyError, ValueError):
        with pytest.raises(ConfigError, match=f"bad (boolean|integer|float) for '{key}'"):
            parse_setting(f"{key}={raw}")
    else:
        parsed_key, value = parse_setting(f"{key}={raw}")
        assert parsed_key == key
        assert value == expected or value != value and expected != expected  # nan parses too


@pytest.mark.parametrize("text", ["no_pretraining=maybe", "seed=1.5", "mlm_lr=fast",
                                  "seed", "=1"])
def test_parse_setting_bad_examples(text):
    with pytest.raises(ConfigError):
        parse_setting(text)


@given(st.lists(st.tuples(
    settings_of_any_type(LINE_TEXT.filter(lambda v: "#" not in v)),
    st.sampled_from(["", "   ", "\t"]),
    LINE_TEXT.map(lambda c: f"# {c}") | st.just(""),
)))
def test_parse_config_file_ignores_comments_and_blank_lines(entries):
    lines = []
    for (key, shown, _), blank, comment in entries:
        lines += [blank, comment, f"{key} = {shown}  {comment}"]
    expected = {key: value for (key, _, value), _, _ in entries}
    assert _in_file("\n".join(lines) + "\n", parse_config_file) == expected


RECORDS = st.lists(
    st.builds(CorpusRecord, LINE_TEXT, LINE_TEXT.filter(tokenize), st.none() | LINE_TEXT),
    min_size=1, max_size=20, unique_by=lambda r: r.id,
)


def _jsonl(records, blanks) -> tuple[str, list[int]]:
    """The records as JSONL, ``blanks[i]`` blank lines before record i, and
    each record's line number."""
    lines, numbers = [], []
    for record, blank in zip(records, blanks):
        lines += [""] * blank
        row = {"id": record.id, "text": record.text}
        if record.label is not None:
            row["label"] = record.label
        lines.append(json.dumps(row))
        numbers.append(len(lines))
    return "\n".join(lines) + "\n", numbers


@given(RECORDS, st.lists(st.integers(0, 2), min_size=21, max_size=21))
@settings(max_examples=50)
def test_load_corpus_reads_back_written_records(records, blanks):
    text, _ = _jsonl(records, blanks)
    assert _in_file(text, load_corpus) == records


@given(RECORDS, st.lists(st.integers(0, 2), min_size=21, max_size=21), st.data())
@settings(max_examples=50)
def test_load_corpus_names_both_lines_of_a_duplicate_id(records, blanks, data):
    first = data.draw(st.integers(0, len(records) - 1))
    at = data.draw(st.integers(first + 1, len(records)))
    copy = CorpusRecord(records[first].id, "another text")
    records = records[:at] + [copy] + records[at:]
    text, numbers = _jsonl(records, blanks)
    message = f"duplicate id {copy.id!r} at lines {numbers[first]} and {numbers[at]}"
    with pytest.raises(CorpusError, match=re.escape(message)):
        _in_file(text, load_corpus)
