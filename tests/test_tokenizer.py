import random
from collections import Counter
from itertools import accumulate
from pathlib import Path
from sys import getsizeof

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parity_bpe import (
    LabeledCorpus,
    ModelFormatError,
    TokenizerModel,
    _kernels,
    pretokenize,
    tokenizer,
    train_classical,
)
from parity_bpe.corpus import digest
from parity_bpe.tokenizer import escape_token, unescape_token

from .oracles import replay_encode

EXAMPLE_MERGES = [(b"b", b"a"), (b"ba", b"b")]


class TestEncodeDecode:
    def test_iterative_merge_example(self):
        model = TokenizerModel(EXAMPLE_MERGES)
        tokens = model.encode(b"babab")
        assert tokens == [b"ba", b"bab"]
        assert model.decode(tokens) == b"babab"
        assert model.token_count(b"babab") == 2

    def test_identity_tokenizer(self):
        model = TokenizerModel([])
        assert model.encode(b"ab") == [b"a", b"b"]
        assert model.decode([]) == b""
        assert model.token_count(b"") == 0

    def test_decode_unknown_token(self):
        model = TokenizerModel([])
        with pytest.raises(ModelFormatError, match="not in vocabulary"):
            model.decode([b"ab"])

    def test_decode_unknown_id(self):
        model = TokenizerModel([])
        with pytest.raises(ModelFormatError, match="unknown token id"):
            model.decode_ids([999])

    def test_merges_stay_inside_pretokens(self):
        model = TokenizerModel([(b"a", b" "), (b"a", b"b")])
        # "a b" splits into "a" and " b": the (a, space) merge cannot apply
        assert model.encode(b"a ab") == [b"a", b" ", b"ab"]

    def test_roundtrip_fuzz_trained(self, classical_run):
        model, _ = classical_run
        rng = random.Random(99)
        for _ in range(300):
            data = rng.randbytes(rng.randint(0, 64))
            assert model.decode(model.encode(data)) == data

    @given(st.binary(max_size=128))
    def test_roundtrip_small_model(self, data):
        model = TokenizerModel(EXAMPLE_MERGES)
        assert model.decode(model.encode(data)) == data

    def test_matches_sequential_replay(self, classical_run):
        model, _ = classical_run
        rng = random.Random(4242)
        for _ in range(100):
            data = rng.randbytes(rng.randint(0, 80))
            assert model.encode(data) == replay_encode(model.merges, data)

    def test_token_count_matches_encode(self, classical_run):
        model, _ = classical_run
        rng = random.Random(7)
        for _ in range(1000):
            data = rng.randbytes(rng.randint(0, 48))
            assert model.token_count(data) == len(model.encode(data))

    def test_duplicate_result_bytes_encode_canonically(self):
        # two construction paths to the same bytes "abc"
        merges = [(b"b", b"c"), (b"a", b"bc"), (b"a", b"b"), (b"ab", b"c")]
        model = TokenizerModel(merges)
        ids = model.encode_ids(b"abc")
        assert model.decode_ids(ids) == b"abc"
        assert ids == [256 + 1]  # canonical id of the first "abc"


class TestTextSpans:
    @pytest.mark.parametrize("fmt", ["ids", "tokens"])
    def test_inverts_the_encode_text(self, fmt):
        # two construction paths to the same bytes "abc"
        model = TokenizerModel([(b"b", b"c"), (b"a", b"bc"), (b"a", b"b"), (b"ab", b"c")])
        texts, spans = model.text_cache(fmt), model.text_spans(fmt)
        for i, span in enumerate(model.id_to_bytes):
            fields = texts[span].split(b" ")
            assert b"".join(spans[f] for f in fields) == span
            field = b"%d" % i if fmt == "ids" else escape_token(span).encode("ascii")
            assert spans[field] == model.id_to_bytes[i]
        assert len(spans) == (len(model.id_to_bytes) if fmt == "ids" else model.vocab_size)


# Models for the run tests: no merges (every byte inert), every byte active
# (so runs are pre-tokens), merges over whitespace, and two merges that build
# the same bytes "abc" (ids 257 and 259, the first canonical).
RUN_MODELS = {
    "no-merges": [],
    "all-active": [(bytes([i]), bytes([(i + 1) % 256])) for i in range(256)]
    + [(b"\x00\x01", b"\x02\x03")],
    "whitespace": [(b" ", b"a"), (b" a", b"b"), (b"\t", b"\t"), (b"\t\t", b"c"), (b"c", b" ")],
    "equal-bytes": [(b"b", b"c"), (b"a", b"bc"), (b"a", b"b"), (b"ab", b"c")],
}
_RUN_PIECES = [b"a", b"b", b"c", b"ab", b" ", b"  ", b"\t", b"\r\x0b\x0c", b"\n", b"\xc3", b"\xff"]


@st.composite
def _trained_models(draw):
    """A classical model trained on a few drawn lines of letters, whitespace
    and high bytes, with a drawn merge budget (0 included)."""
    lines = draw(st.lists(st.lists(st.sampled_from(_RUN_PIECES), min_size=1, max_size=10)
                          .map(b"".join), min_size=1, max_size=6))
    corpus = LabeledCorpus.from_multisets({"aa": Counter(w for line in lines
                                                         for w in pretokenize(line))})
    return train_classical(corpus, draw(st.integers(0, 20)))[0]


def _check_runs(model: TokenizerModel, line: bytes) -> None:
    runs = model.run_splitter()(line)
    assert b"".join(runs) == line
    # every pre-token ends where a run ends, so no run crosses a boundary
    run_ends = list(accumulate(map(len, runs)))
    pretoken_ends = set(accumulate(map(len, pretokenize(line))))
    assert pretoken_ends <= set(run_ends)
    # runs are the inert bytes one by one and the maximal stretches between them
    inert = set(range(256)) - set(b"".join(model.id_to_bytes[256:]))
    for run, end, following in zip(runs, run_ends, runs[1:] + [None]):
        assert len(run) == 1 or not inert.intersection(run)
        if following is not None and not inert.intersection(run + following):
            assert end in pretoken_ends
    ids = [i for run in runs for i in _kernels.encode_ids(run, model._table)]
    assert ids == model.encode_ids(line)
    if not inert.intersection(line):
        assert runs == pretokenize(line)


class TestRuns:
    """``run_splitter`` splits a line into runs whose tokens are the line's."""

    @pytest.mark.parametrize("name", RUN_MODELS)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_runs_tokenize_the_line(self, name, data):
        model = TokenizerModel(RUN_MODELS[name])
        pieces = st.one_of(st.sampled_from(model.id_to_bytes), st.binary(max_size=4))
        _check_runs(model, data.draw(st.lists(pieces, max_size=16).map(b"".join)))

    @settings(max_examples=100, deadline=None)
    @given(model=_trained_models(), data=st.data())
    def test_runs_of_trained_models(self, model, data):
        pieces = st.one_of(st.sampled_from(_RUN_PIECES), st.binary(max_size=4))
        _check_runs(model, data.draw(st.lists(pieces, max_size=16).map(b"".join)))

    def test_trained_model_on_random_bytes(self, classical_run):
        model, _ = classical_run
        rng = random.Random(25)
        for _ in range(300):
            _check_runs(model, rng.randbytes(rng.randint(0, 80)))


def _held(cache) -> int:
    return sum(getsizeof(word) + getsizeof(value) for word, value in cache.items())


class TestWordCache:
    # An entry here is 200-350 bytes, so a budget of 1 is below every single entry.
    @pytest.mark.parametrize("budget", [1, 600, 2000, 10_000])
    def test_caches_start_over_at_the_limit(self, classical_run, monkeypatch, budget):
        monkeypatch.setattr(tokenizer, "WORD_CACHE_BYTES", budget)
        merges = classical_run[0].merges
        model = TokenizerModel(merges)
        caches = (model._word_cache, model.text_cache("ids"))
        rng = random.Random(11)
        stored = cleared = 0
        for n in range(60):
            # three unique pre-tokens per line: a space, a serial number, random non-space bytes
            line = b"".join(
                b" %d:%d:" % (n, k) + bytes(b for b in rng.randbytes(20) if not chr(b).isspace())
                for k in range(3)
            )
            for word in pretokenize(line):
                ids = TokenizerModel(merges).encode_ids(word)
                for cache, expected in zip(caches, (ids, b" ".join(b"%d" % i for i in ids))):
                    before, held = dict(cache), cache.held
                    value = cache[word]
                    assert value == expected
                    assert cache.held == _held(cache) <= budget
                    size = getsizeof(word) + getsizeof(value)
                    if size > budget:  # returned, not stored, and the cache left as it was
                        assert cache == before and cache.held == held
                    elif held + size > budget:  # a miss that would pass the budget starts over
                        assert cache == {word: value}
                        cleared += 1
                    else:
                        assert cache == {**before, word: value}
                    stored += word in cache
            assert model.encode_ids(line) == TokenizerModel(merges).encode_ids(line)
            assert caches[0].held == _held(caches[0]) <= budget
        if budget == 1:
            assert stored == 0
        else:
            assert stored == 2 * 180 and cleared > 0

    def test_an_entry_above_the_budget_leaves_the_cache_as_it_was(self, classical_run,
                                                                   monkeypatch):
        """With a 2,000-byte budget, three cached words stay cached when a
        600-byte pre-token, whose entry alone is above the budget, is looked up."""
        monkeypatch.setattr(tokenizer, "WORD_CACHE_BYTES", 2000)
        model = TokenizerModel(classical_run[0].merges)
        rng = random.Random(3)
        long_word = b"x" + bytes(b for b in rng.randbytes(800) if not chr(b).isspace())[:599]
        assert pretokenize(long_word) == [long_word]
        for cache in (model._word_cache, model.text_cache("ids")):
            for word in (b" aa", b" bb", b" cc"):
                cache[word]
            before, held = dict(cache), cache.held
            value = cache[long_word]
            assert getsizeof(long_word) + getsizeof(value) > 2000
            assert cache == before and cache.held == held == _held(cache)

    def test_long_pretokens_stay_within_the_budget(self, classical_run, monkeypatch):
        """200 distinct 4 KB whitespace-free pre-tokens never hold more than a
        64 KiB budget in either cache, and encode as the kernel does."""
        budget = 1 << 16
        monkeypatch.setattr(tokenizer, "WORD_CACHE_BYTES", budget)
        model = TokenizerModel(classical_run[0].merges)
        texts = model.text_cache("tokens")
        rng = random.Random(5)
        # the training alphabet, so that merges apply
        letters = {b for pair in model.merges for b in b"".join(pair)}
        alphabet = sorted(letters - set(b" \t\n\r\x0b\x0c"))
        for n in range(200):
            word = b"%d:" % n + bytes(rng.choices(alphabet, k=4096))
            assert pretokenize(word) == [word]
            ids = _kernels.encode_ids(list(word), model._table)
            assert model.encode_ids(word) == ids
            assert texts[word] == b" ".join(escape_token(model.id_to_bytes[i]).encode("ascii")
                                       for i in ids)
            for cache in (model._word_cache, texts):
                assert word in cache
                assert cache.held == _held(cache) <= budget


def test_readme_states_the_word_cache_budget():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = " ".join(readme.read_text(encoding="utf-8").split())
    budget = tokenizer.WORD_CACHE_BYTES
    assert f"past {budget >> 20} MiB ({budget:,} bytes)" in text


class TestMonotoneCompression:
    def test_prefix_token_counts_non_increasing(self, classical_run):
        model, _ = classical_run
        merges = list(model.merges)
        rng = random.Random(11)
        samples = [rng.randbytes(rng.randint(1, 64)) for _ in range(20)]
        for data in samples:
            previous = None
            for k in (0, 1, 2, 5, 20, 100, len(merges)):
                count = TokenizerModel(merges[:k]).token_count(data)
                if previous is not None:
                    assert count <= previous
                previous = count

    def test_prefix_consistency(self, classical_run):
        # encoding with m_<k then replaying m_k equals encoding with m_<=k
        model, _ = classical_run
        merges = list(model.merges)
        rng = random.Random(12)
        for k in (1, 3, 50, 200):
            left, right = merges[k - 1]
            prefix = TokenizerModel(merges[: k - 1])
            full = TokenizerModel(merges[:k])
            for _ in range(20):
                data = rng.randbytes(rng.randint(0, 48))
                tokens = prefix.encode(data)
                replayed = []
                i = 0
                while i < len(tokens):
                    if (
                        i + 1 < len(tokens)
                        and tokens[i] == left
                        and tokens[i + 1] == right
                    ):
                        replayed.append(left + right)
                        i += 2
                    else:
                        replayed.append(tokens[i])
                        i += 1
                assert replayed == full.encode(data)


class TestEscaping:
    def test_printables_literal(self):
        assert escape_token(b"ab!") == "ab!"

    def test_non_printables_escaped(self):
        assert escape_token(b" \t\xff\\") == "\\x20\\x09\\xff\\x5c"

    def test_malformed_escape_rejected(self):
        # int(..., 16) alone would take a sign or surrounding whitespace
        for bad in ("\\x", "\\xg1", "\\q", "a b", "\\x 1", "\\x+1", "\\x1 "):
            with pytest.raises(ModelFormatError):
                unescape_token(bad)

    def test_upper_case_hex_accepted(self):
        assert unescape_token("\\x4A\\xFf") == b"J\xff"

    @given(st.binary(min_size=1, max_size=32))
    def test_bijective(self, token):
        assert unescape_token(escape_token(token)) == token


class TestSerialization:
    def test_roundtrip_observational(self, tmp_path, classical_run):
        model, _ = classical_run
        path = tmp_path / "model.bpe"
        model.save(path)
        loaded = TokenizerModel.load(path)
        assert loaded.merges == model.merges
        rng = random.Random(13)
        for _ in range(200):
            data = rng.randbytes(rng.randint(0, 64))
            assert loaded.encode_ids(data) == model.encode_ids(data)

    def test_file_digest_names_the_bytes_parsed(self, tmp_path):
        """The digest is computed when read, from the bytes load parsed, not
        from the file as it is by then."""
        path = tmp_path / "model.bpe"
        TokenizerModel(EXAMPLE_MERGES).save(path)
        parsed = path.read_bytes()
        model = TokenizerModel.load(path)
        TokenizerModel(EXAMPLE_MERGES[:1]).save(path)
        assert model.file_digest == digest(parsed) != digest(path.read_bytes())
        assert TokenizerModel(EXAMPLE_MERGES).file_digest is None

    def test_empty_model_roundtrips(self, tmp_path):
        path = tmp_path / "empty.bpe"
        TokenizerModel([]).save(path)
        assert TokenizerModel.load(path).merges == ()

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "bad.bpe"
        path.write_text("parity-bpe v9\nmerges:\n")
        with pytest.raises(ModelFormatError, match="version"):
            TokenizerModel.load(path)

    def test_missing_merges_section(self, tmp_path):
        path = tmp_path / "bad.bpe"
        path.write_text("parity-bpe v1\n")
        with pytest.raises(ModelFormatError, match="merges"):
            TokenizerModel.load(path)

    def test_malformed_merge_line(self, tmp_path):
        path = tmp_path / "bad.bpe"
        path.write_text("parity-bpe v1\nmerges:\nonly-one-field\n")
        with pytest.raises(ModelFormatError, match="malformed merge line"):
            TokenizerModel.load(path)

    def test_non_producible_operand(self, tmp_path):
        path = tmp_path / "bad.bpe"
        path.write_text("parity-bpe v1\nmerges:\nzz\ty\n")
        with pytest.raises(ModelFormatError, match="not producible"):
            TokenizerModel.load(path)

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "bad.bpe"
        path.write_text("parity-bpe v1\nmerges:\na\tb\na\tb\n")
        with pytest.raises(ModelFormatError, match="duplicate"):
            TokenizerModel.load(path)

    @pytest.mark.parametrize("merges, message", [
        ([(b"", b"a")], "merge 0: empty operand"),
        ([(b"a", b"")], "merge 0: empty operand"),
        ([(b"", b"zz")], "merge 0: empty operand"),
        ([(b"zz", b"")], "merge 0: operand not producible: 'zz'"),
        ([(b"a", b"b"), (b"a", b"\xff\xfe")],
         "merge 1: operand not producible: " + repr(escape_token(b"\xff\xfe"))),
        ([(b"a", b"b"), (b"ab", b"a"), (b"a", b"b")], "merge 2: duplicate pair 'a' + 'b'"),
        ([(b" ", b" "), (b"\t", b" "), (b"  ", b" "), (b" ", b" ")],
         "merge 3: duplicate pair " + " + ".join([repr(escape_token(b" "))] * 2)),
    ])
    def test_constructor_errors_name_the_merge(self, tmp_path, merges, message):
        with pytest.raises(ModelFormatError) as exc:
            TokenizerModel(merges)
        assert str(exc.value) == message
        path = tmp_path / "bad.bpe"
        path.write_text("parity-bpe v1\nmerges:\n" + "".join(
            f"{escape_token(left)}\t{escape_token(right)}\n" for left, right in merges))
        with pytest.raises(ModelFormatError) as exc:
            TokenizerModel.load(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_a_malformed_text_is_reported_at_its_first_line(self, tmp_path):
        path = tmp_path / "bad.bpe"
        path.write_text("parity-bpe v1\nmerges:\na\tb\n\\x4g\tb\na\t\\x4g\n\\x4g\t\\x4g\n")
        with pytest.raises(ModelFormatError) as exc:
            TokenizerModel.load(path)
        bad = "\\x4g"
        assert str(exc.value) == f"{path}:4: malformed escape in token {bad!r}"

    def test_a_malformed_text_after_repeats_of_valid_ones(self, tmp_path):
        """Line 2,003 holds ``\\x2``, a prefix of ``\\x20``, after 2,000
        valid lines that hold ``\\x20`` and ``a`` about a thousand times each."""
        chain = [(b"a" * k, b"a") for k in range(1, 1001)]
        spaced = [(b" ", b"a" * k) for k in range(1, 1001)]
        path = tmp_path / "bad.bpe"
        TokenizerModel(chain + spaced).save(path)
        with open(path, "a", encoding="ascii") as fh:
            fh.write("\\x2\ta\n\\x20\ta\n")
        with pytest.raises(ModelFormatError) as exc:
            TokenizerModel.load(path)
        bad = "\\x2"
        assert str(exc.value) == f"{path}:2003: malformed escape in token {bad!r}"

    def test_repeated_escaped_operands_roundtrip(self, tmp_path):
        """Operands that share an escaped text load as equal spans, and the
        model loads with the merges and vocabulary it was saved with."""
        merges = [(b" ", b"a"), (b" ", b" "), (b"  ", b" "), (b" ", b"\xc3"), (b"\xc3", b"\xa9"),
                  (b" \xc3", b"\xa9"), (b"\xc3\xa9", b" "), (b" a", b" "), (b"\t", b"\t")]
        model = TokenizerModel(merges)
        path = tmp_path / "m.bpe"
        model.save(path)
        assert path.read_text(encoding="ascii").count("\\x20") == 11
        loaded = TokenizerModel.load(path)
        assert loaded.merges == model.merges == tuple(merges)
        assert loaded.id_to_bytes == model.id_to_bytes
        assert loaded.encode_ids(b"a \xc3\xa9  a\t\t") == model.encode_ids(b"a \xc3\xa9  a\t\t")

    def test_file_is_diffable_text(self, tmp_path):
        model = TokenizerModel([(b" ", b"a"), (b"\xc3", b"\xa9")])
        path = tmp_path / "m.bpe"
        model.save(path)
        text = path.read_text(encoding="ascii")
        assert text == "parity-bpe v1\nmerges:\n\\x20\ta\n\\xc3\t\\xa9\n"
