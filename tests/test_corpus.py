import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parity_bpe
from parity_bpe import (
    ConfigError,
    CorpusError,
    LabeledCorpus,
    NormUnit,
    load_labeled_corpus,
    load_parallel_dev,
    pretokenize,
    unit_length,
)
from parity_bpe.corpus import digest, reference_unit_totals

from .oracles import per_line_load_labeled_corpus, utf8_scalar_count


def write_manifest(tmp_path, records_by_lang):
    manifest = {"languages": []}
    for lang, records in records_by_lang.items():
        path = tmp_path / f"{lang}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for text in records:
                fh.write(json.dumps({"text": text, "lang": lang}) + "\n")
        manifest["languages"].append({"lang": lang, "path": f"{lang}.jsonl"})
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest), encoding="utf-8")
    return mpath


class TestPretokenize:
    def test_space_attaches_to_following_pretoken(self):
        assert pretokenize(b"ab cd") == [b"ab", b" cd"]

    def test_empty(self):
        assert pretokenize(b"") == []

    def test_double_space_roundtrip(self):
        text = b"a  b"
        assert b"".join(pretokenize(text)) == text

    def test_trailing_and_leading_whitespace(self):
        assert pretokenize(b"  ab ") == [b"  ab", b" "]
        assert pretokenize(b" \t\n") == [b" \t\n"]

    @given(st.binary(max_size=200))
    def test_reconstruction_complete(self, text):
        assert b"".join(pretokenize(text)) == text


class TestUnitLength:
    def test_hello_bytes_and_chars(self):
        text = "héllo".encode("utf-8")
        assert unit_length(text, NormUnit.BYTES) == 6
        assert unit_length(text, NormUnit.CHARS) == 5

    def test_empty_all_units(self):
        for unit in NormUnit:
            assert unit_length(b"", unit) == 0

    def test_cjk_chars_are_bytes_over_three(self):
        line = "一二三四五六七八".encode("utf-8")
        assert unit_length(line, NormUnit.BYTES) == 3 * 8
        assert unit_length(line, NormUnit.CHARS) == 8
        assert unit_length(line, NormUnit.CHARS) == utf8_scalar_count(line)

    @given(st.text(max_size=100))
    def test_chars_matches_independent_decoder(self, text):
        data = text.encode("utf-8")
        assert unit_length(data, NormUnit.CHARS) == utf8_scalar_count(data)

    def test_invalid_utf8_falls_back_to_bytes(self):
        assert unit_length(b"\xff\xfe", NormUnit.CHARS) == 2

    def test_words_counts_pretokens(self):
        assert unit_length(b"ab cd", NormUnit.WORDS) == 2
        assert unit_length(b"one", NormUnit.WORDS) == 1

    def test_lines(self):
        assert unit_length(b"ab\ncd", NormUnit.LINES) == 2
        assert unit_length(b"single line", NormUnit.LINES) == 1

    def test_a_line_ends_at_newline_only(self):
        assert unit_length(b"ab\rcd", NormUnit.LINES) == 1
        assert unit_length(b"ab\r\ncd\r", NormUnit.LINES) == 2
        assert unit_length(b"ab\n", NormUnit.LINES) == 1
        assert unit_length(b"\n\n", NormUnit.LINES) == 2
        assert unit_length(b"\r", NormUnit.LINES) == 1

    @given(st.one_of(
        st.binary(max_size=60),
        st.lists(st.sampled_from([b"a", b" ", b"\n", b"\x0b", b"\x0c", b"\x1c", b"\x85"]),
                 max_size=12).map(b"".join),
    ).map(lambda text: text.replace(b"\r", b"")))
    def test_lines_without_cr_are_splitlines(self, text):
        assert unit_length(text, NormUnit.LINES) == len(text.splitlines())


class TestLoadLabeledCorpus:
    def test_single_record_counts(self, tmp_path):
        mpath = write_manifest(tmp_path, {"aa": ["ab ab"]})
        corpus = load_labeled_corpus(mpath)
        assert corpus.per_language["aa"] == Counter({b"ab": 1, b" ab": 1})
        assert reference_unit_totals(corpus, NormUnit.WORDS) == {"aa": 2}
        assert reference_unit_totals(corpus, NormUnit.BYTES) == {"aa": 5}

    def test_empty_partition_rejected(self, tmp_path):
        mpath = write_manifest(tmp_path, {"aa": ["ab"], "bb": []})
        with pytest.raises(CorpusError, match="empty language partition"):
            load_labeled_corpus(mpath)

    def test_unknown_language_rejected(self, tmp_path):
        path = tmp_path / "aa.jsonl"
        path.write_text(json.dumps({"text": "x", "lang": "zz"}) + "\n")
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps({"languages": [{"lang": "aa", "path": "aa.jsonl"}]}))
        with pytest.raises(CorpusError, match="unknown language"):
            load_labeled_corpus(mpath)

    def test_malformed_record_reports_line(self, tmp_path):
        path = tmp_path / "aa.jsonl"
        path.write_text('{"text": "ok", "lang": "aa"}\nnot json\n')
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps({"languages": [{"lang": "aa", "path": "aa.jsonl"}]}))
        with pytest.raises(CorpusError, match="aa.jsonl:2"):
            load_labeled_corpus(mpath)

    def test_missing_file(self, tmp_path):
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps({"languages": [{"lang": "aa", "path": "gone.jsonl"}]}))
        with pytest.raises(CorpusError, match="missing corpus file"):
            load_labeled_corpus(mpath)

    def test_order_insensitive_multisets(self, tmp_path):
        records = ["one two", "two three", "three one"]
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        m1 = write_manifest(tmp_path / "a", {"aa": records})
        m2 = write_manifest(tmp_path / "b", {"aa": list(reversed(records))})
        c1 = load_labeled_corpus(m1)
        c2 = load_labeled_corpus(m2)
        assert c1.per_language == c2.per_language
        for unit in DERIVED_UNITS:
            assert reference_unit_totals(c1, unit) == reference_unit_totals(c2, unit)

    def test_limit_per_language(self, tmp_path):
        mpath = write_manifest(tmp_path, {"aa": ["x y", "z w"]})
        corpus = load_labeled_corpus(mpath, limit_per_language=1)
        assert corpus.per_language["aa"] == Counter(pretokenize(b"x y"))  # the first record only

    @pytest.mark.parametrize("limit", [0, -3, True, 2.5])
    def test_bad_limit_is_config_error_before_reading(self, tmp_path, limit):
        # the manifest does not exist: the limit is refused before it is read
        with pytest.raises(ConfigError, match="limit_per_language"):
            load_labeled_corpus(tmp_path / "missing.json", limit_per_language=limit)

    def test_synthetic_totals_match_declared(self, synth_dir, corpus):
        stats = json.loads((synth_dir / "synth_stats.json").read_text())
        for lang in corpus.languages:
            declared = stats["languages"][lang]["train_text_bytes"]
            assert reference_unit_totals(corpus, NormUnit.BYTES)[lang] == declared
            # reconstruction-completeness: multiset bytes equal raw text bytes
            recounted = sum(len(w) * c for w, c in corpus.per_language[lang].items())
            assert recounted == declared


# -- the loader against the per-line oracle ------------------------------------
def write_files(directory: Path, files: dict[str, bytes]) -> Path:
    """Write one file per language and a manifest naming them; returns the manifest."""
    for lang, data in files.items():
        (directory / f"{lang}.jsonl").write_bytes(data)
    manifest = directory / "manifest.json"
    manifest.write_text(
        json.dumps({"languages": [{"lang": lang, "path": f"{lang}.jsonl"} for lang in files]})
    )
    return manifest


def load_both(directory: Path, files: dict[str, bytes], limit=None):
    """Write one file per language and load it with both loaders.

    Returns (fast, per-line), each a corpus or the CorpusError or ConfigError
    message, and the per-line loader's record-by-record totals (None when it
    raised).
    """
    manifest = write_files(directory, files)
    try:
        fast = load_labeled_corpus(manifest, limit)
    except (CorpusError, ConfigError) as exc:
        fast = str(exc)
    try:
        per_line, totals = per_line_load_labeled_corpus(manifest, limit)
    except (CorpusError, ConfigError) as exc:
        per_line, totals = str(exc), None
    return fast, per_line, totals


# The units a labeled corpus has: it keeps no record boundaries, so no lines.
DERIVED_UNITS = (NormUnit.BYTES, NormUnit.CHARS, NormUnit.WORDS)


def assert_same_totals(fast: LabeledCorpus, totals: dict[str, dict[NormUnit, int]]):
    """The fast loader's derived totals equal the oracle's per-record sums."""
    for unit in DERIVED_UNITS:
        assert reference_unit_totals(fast, unit) == {
            lang: totals[lang][unit] for lang in fast.languages}


def assert_same_load(directory: Path, files: dict[str, bytes], limit=None):
    fast, per_line, totals = load_both(directory, files, limit)
    if isinstance(per_line, str) or isinstance(fast, str):
        assert fast == per_line
        return per_line
    assert fast.languages == per_line.languages
    assert fast.per_language == per_line.per_language
    assert_same_totals(fast, totals)
    assert fast.digests == per_line.digests
    for lang in fast.languages:  # the same first-seen order, too
        assert list(fast.per_language[lang]) == list(per_line.per_language[lang])
    return fast


def rec(text, lang="aa") -> bytes:
    return json.dumps({"text": text, "lang": lang}).encode()


# the two-object line is rejected; a batch parse of the joined lines would
# pair its second object with the split one below and accept the file
TWO_OBJECTS_AND_A_SPLIT_ONE = (
    rec("one") + b", " + rec("two") + b"\n" + b'{"text": "three",\n' + b'"lang": "aa"}\n'
)

FIXED_FILES = {
    "two-objects-then-split": (TWO_OBJECTS_AND_A_SPLIT_ONE, None),
    "utf8-bom-line": (rec("a b") + b"\n\xef\xbb\xbf" + rec("bom c") + b"\n", None),
    "vt-ff-padding": (b"\x0b" + rec("a") + b"\x0c \n\x0c\x0b\n" + rec("b c") + b"\n", None),
    "nbsp-padding": (rec("a") + b"\n\xc2\xa0" + rec("b") + b"\n", None),
    "nbsp-inside-text": (json.dumps({"text": "a\xa0b c", "lang": "aa"}, ensure_ascii=False)
                         .encode() + b"\n", None),
    "crlf-and-blank-lines": (b"\r\n" + rec("a b") + b"\r\n\r\n  \r\n" + rec(" c") + b"\r\n", None),
    "raw-ff-byte": (rec("a") + b"\n" + b'{"text": "b \xff", "lang": "aa"}\n', None),
    "lone-surrogate-escape": (rec("a") + b"\n" + b'{"text": "b \\ud800", "lang": "aa"}\n', None),
    "encoded-surrogate": (rec("a") + b"\n" + b'{"text": "\xed\xa0\x80", "lang": "aa"}\n', None),
    "non-object-record": (rec("a") + b'\n["text", "lang"]\n', None),
    "string-record": (rec("a") + b'\n"text"\n', None),
    "unknown-language": (rec("a") + b"\n" + rec("b", "zz") + b"\n", None),
    "limit-per-language": (b"".join(rec(f"w{i} x") + b"\n" for i in range(5)), 2),
    "limit-across-files": (rec("a") + b"\n" + rec("b1", "bb") + b"\n", 1),
    "limit-skips-bad-text": (rec("a") + b'\n{"text": "\\ud800", "lang": "aa"}\n', 1),
    "separator-between-records": (rec("a") + "\x1c".encode() + rec("b") + b"\n", None),
    # the first bad line is named, after a line only json.loads reads
    "bom-line-then-malformed": (
        rec("a") + b"\n\xef\xbb\xbf" + rec("bom") + b"\n{not json\n\xff\n", None),
    "bad-utf8-after-good-lines": (
        rec("a") + b"\n" + rec("b") + b'\n\n{"text": "\xc3(", "lang": "aa"}\n{not json\n', None),
    "unicode-line-separators": (
        json.dumps({"text": "a\u2028b\x85c\rd", "lang": "aa"}, ensure_ascii=False).encode()
        + b"\n", None),
}


@pytest.mark.parametrize("name", sorted(FIXED_FILES))
def test_loader_matches_per_line_oracle(tmp_path, name):
    data, limit = FIXED_FILES[name]
    assert_same_load(tmp_path, {"aa": data, "bb": rec("bb text", "bb") + b"\n"}, limit)


def test_split_object_file_is_rejected_at_its_first_line(tmp_path):
    got = assert_same_load(tmp_path, {"aa": TWO_OBJECTS_AND_A_SPLIT_ONE})
    assert "aa.jsonl:1: malformed record" in got


@pytest.mark.parametrize(
    "name, lineno", [("bom-line-then-malformed", 3), ("bad-utf8-after-good-lines", 4)]
)
def test_first_bad_line_keeps_its_number(tmp_path, name, lineno):
    got = assert_same_load(tmp_path, {"aa": FIXED_FILES[name][0]})
    assert f"aa.jsonl:{lineno}: malformed record" in got


def test_each_training_file_is_read_once(tmp_path, file_reads):
    # the byte-order mark line is one that only json.loads reads
    manifest = write_files(tmp_path, {"aa": FIXED_FILES["utf8-bom-line"][0],
                                      "bb": rec("b c", "bb") + b"\n"})
    corpus = load_labeled_corpus(manifest)
    assert corpus.per_language["aa"][b"bom"] == 1
    assert [file_reads[str(tmp_path / name)] for name in ("aa.jsonl", "bb.jsonl")] == [1, 1]


def test_a_file_named_by_several_entries_is_read_once(tmp_path, file_reads):
    """However the manifest spells it, a shared file's records are counted once."""
    (tmp_path / "sub").mkdir()
    data = b"".join(rec(text, lang) + b"\n" for text, lang in
                    [("ab ab", "aa"), ("cd", "bb"), ("ef", "cc"), ("gh", "aa")])
    (tmp_path / "both.jsonl").write_bytes(data)
    manifest = tmp_path / "manifest.json"
    spellings = {"aa": "both.jsonl", "bb": "./both.jsonl", "cc": "sub/../both.jsonl"}
    manifest.write_text(json.dumps(
        {"languages": [{"lang": lang, "path": path} for lang, path in spellings.items()]}))
    corpus = load_labeled_corpus(manifest)
    # each record kept once: two of aa's, one each of bb's and cc's
    assert corpus.per_language == {"aa": Counter({b"ab": 1, b" ab": 1, b"gh": 1}),
                                   "bb": Counter({b"cd": 1}), "cc": Counter({b"ef": 1})}
    assert corpus.digests == dict.fromkeys(spellings, digest(data))
    assert sum(n for path, n in file_reads.items() if path.endswith("both.jsonl")) == 1
    # the limit counts each record once
    assert load_labeled_corpus(manifest, 3).per_language == corpus.per_language
    assert load_labeled_corpus(manifest, 1).per_language["aa"] == Counter({b"ab": 1, b" ab": 1})
    # the per-line oracle reads each distinct file once too, and agrees
    for limit in (None, 1, 3):
        fast = load_labeled_corpus(manifest, limit)
        per_line, totals = per_line_load_labeled_corpus(manifest, limit)
        assert fast.per_language == per_line.per_language
        assert_same_totals(fast, totals)
        assert fast.digests == per_line.digests


def test_first_empty_language_in_manifest_order_is_named(tmp_path):
    """The error names the same language under any hash seed: the first empty one listed."""
    manifest = write_files(tmp_path, {"aa": b"", "bb": b"", "cc": rec("c d", "cc") + b"\n",
                                      "dd": b""})
    src = str(Path(parity_bpe.__file__).parents[1])
    for seed in ("2", "3"):  # a set's order named 'bb' and 'dd' under these
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        argv = ["train", "--classical", "--merges", "5", "--corpus", str(manifest),
                "--model-out", str(tmp_path / "m.bpe")]
        run = subprocess.run([sys.executable, "-m", "parity_bpe.cli", *argv],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 2
        assert "empty language partition: 'aa'" in run.stderr
        assert "Traceback" not in run.stderr


def test_bom_line_loads(tmp_path):
    corpus = assert_same_load(tmp_path, {"aa": FIXED_FILES["utf8-bom-line"][0]})
    assert corpus.per_language["aa"] == Counter({b"a": 1, b" b": 1, b"bom": 1, b" c": 1})


# ASCII whitespace, which both loaders strip, and characters that
# str.strip() or str.splitlines() would treat as whitespace or line breaks
PADDING = st.sampled_from(
    ["", " ", "\t", "\r", "\x0b", "\x0c", "\xa0", "\ufeff", "\x85", "\x1c", "\u2028"]
)
VALID_RECORD = st.builds(
    lambda text, lang, ascii: json.dumps({"text": text, "lang": lang}, ensure_ascii=ascii),
    st.text(max_size=12),
    st.sampled_from(["aa", "bb"]),
    st.booleans(),
)
ODD_RECORD = st.sampled_from([
    '{"text": "a", "lang": "aa"}, {"text": "b", "lang": "aa"}',
    '{"text": "c",',
    '"lang": "aa"}',
    '{"text": "d", "lang": "zz"}',
    '{"text": 1, "lang": "aa"}',
    '{"lang": "bb"}',
    '["text", "lang"]',
    '"aa"',
    "7",
    '{"text": "\\ud800", "lang": "aa"}',
    "{}",
    "not json",
    "",
])
LINE = st.one_of(
    st.tuples(PADDING, VALID_RECORD, PADDING).map(lambda t: "".join(t).encode()),
    st.tuples(PADDING, ODD_RECORD, PADDING).map(lambda t: "".join(t).encode()),
    st.sampled_from([b"\xff", b"\xef\xbb\xbf" + rec("bom"), b"\x00" + rec("nul"), b"\xed\xa0\x80"]),
)
FILE = st.builds(
    lambda lines, newline, last: newline.join(lines) + (newline if last else b""),
    st.lists(LINE, max_size=8),
    st.sampled_from([b"\n", b"\r\n"]),
    st.booleans(),
)
ASCII_PADDING = st.sampled_from(["", " ", "\t", "\r", "\x0b", "\x0c"])
# Valid lines only, so that many files load; the byte-order mark sends a
# file down the per-line path, which must load it all the same.
CLEAN_FILE = st.builds(
    lambda lines, newline: newline.join(lines),
    st.lists(
        st.one_of(
            st.tuples(ASCII_PADDING, VALID_RECORD, ASCII_PADDING).map(lambda t: "".join(t).encode()),
            st.sampled_from([b"\xef\xbb\xbf" + rec("bom"), b"\xef\xbb\xbf" + rec("bom", "bb")]),
        ),
        min_size=1,
        max_size=8,
    ),
    st.sampled_from([b"\n", b"\r\n"]),
)
ANY_FILE = st.one_of(CLEAN_FILE, CLEAN_FILE, FILE)


@settings(max_examples=300, deadline=None)
@given(ANY_FILE, ANY_FILE, st.one_of(st.none(), st.integers(0, 3)))
def test_loader_matches_per_line_oracle_on_random_files(aa, bb, limit):
    with tempfile.TemporaryDirectory() as directory:
        assert_same_load(Path(directory), {"aa": aa, "bb": bb}, limit)


class TestFromMultisets:
    def test_totals_consistent(self):
        corpus = LabeledCorpus.from_multisets({"aa": {b"ab": 2, b" c": 1}})
        assert reference_unit_totals(corpus, NormUnit.BYTES) == {"aa": 6}
        assert reference_unit_totals(corpus, NormUnit.WORDS) == {"aa": 3}

    def test_empty_rejected(self):
        with pytest.raises(CorpusError):
            LabeledCorpus.from_multisets({"aa": {}})

    def test_has_no_lines(self, corpus):
        """A labeled corpus keeps no record boundaries, so it has no line total."""
        assert not hasattr(corpus, "unit_totals")
        for labeled in (corpus, LabeledCorpus.from_multisets({"aa": {b"ab": 2}})):
            with pytest.raises(ConfigError, match="no line totals"):
                reference_unit_totals(labeled, NormUnit.LINES)


class TestLoadParallelDev:
    def test_aligned(self, tmp_path):
        (tmp_path / "aa.txt").write_text("a1\na2\na3\n")
        (tmp_path / "bb.txt").write_text("b1\nb2\nb3\n")
        dev = load_parallel_dev(tmp_path, ["aa", "bb"])
        assert dev.n_lines == 3
        assert dev.lines["bb"][1] == b"b2"

    def test_mismatch_reports_counts(self, tmp_path):
        (tmp_path / "aa.txt").write_text("a\nb\nc\n")
        (tmp_path / "bb.txt").write_text("a\nb\nc\nd\n")
        with pytest.raises(CorpusError, match=r"aa:3.*bb:4"):
            load_parallel_dev(tmp_path, ["aa", "bb"])

    def test_missing_language_file(self, tmp_path):
        (tmp_path / "aa.txt").write_text("a\n")
        with pytest.raises(CorpusError, match="missing dev file"):
            load_parallel_dev(tmp_path, ["aa", "bb"])

    def test_equal_length_files_align(self, synth_dir, dev):
        # independent line count straight off the files
        for lang in dev.languages:
            raw = (synth_dir / "dev" / f"{lang}.txt").read_bytes()
            assert len(raw.splitlines()) == dev.n_lines
