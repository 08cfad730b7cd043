import filecmp
import hashlib

import pytest

from parity_bpe import (
    ConfigError,
    NormUnit,
    SyntheticSpec,
    generate_synthetic,
    load_labeled_corpus,
    load_parallel_dev,
)
from parity_bpe.synthetic import SyntheticLanguage


def test_proportions_respected(tmp_path, synth_dir, corpus):
    totals = {
        lang: corpus.unit_totals[lang][NormUnit.BYTES] for lang in corpus.languages
    }
    grand = sum(totals.values())
    for lang, expected in zip(("aa", "bb", "cc"), (0.80, 0.15, 0.05)):
        assert abs(totals[lang] / grand - expected) / expected < 0.02


def test_deterministic_output(tmp_path):
    spec = SyntheticSpec.default(["xx", "yy"], [0.5, 0.5], dev_lines=10)
    spec.total_train_bytes = 5_000
    generate_synthetic(spec, seed=3, out_dir=tmp_path / "one")
    generate_synthetic(spec, seed=3, out_dir=tmp_path / "two")
    for rel in ("manifest.json", "train/xx.jsonl", "train/yy.jsonl", "dev/xx.txt", "dev/yy.txt"):
        assert filecmp.cmp(tmp_path / "one" / rel, tmp_path / "two" / rel, shallow=False)


def test_different_seed_differs(tmp_path):
    spec = SyntheticSpec.default(["xx"], [1.0], dev_lines=5)
    spec.total_train_bytes = 2_000
    generate_synthetic(spec, seed=1, out_dir=tmp_path / "one")
    generate_synthetic(spec, seed=2, out_dir=tmp_path / "two")
    assert not filecmp.cmp(tmp_path / "one/train/xx.jsonl", tmp_path / "two/train/xx.jsonl", shallow=False)


def test_monolingual(tmp_path):
    spec = SyntheticSpec.default(["solo"], [1.0], dev_lines=4)
    spec.total_train_bytes = 2_000
    generate_synthetic(spec, seed=0, out_dir=tmp_path)
    corpus = load_labeled_corpus(tmp_path / "manifest.json")
    assert corpus.languages == ("solo",)
    dev = load_parallel_dev(tmp_path / "dev", ["solo"])
    assert dev.n_lines == 4


def test_dev_lines_are_content_aligned(synth_dir, dev):
    # same message index sequence per line: word counts agree across languages
    for i in range(dev.n_lines):
        words = {lang: len(dev.lines[lang][i].split(b" ")) for lang in dev.languages}
        assert len(set(words.values())) == 1


def test_disjoint_alphabets_enforced(tmp_path):
    spec = SyntheticSpec(
        languages=[SyntheticLanguage("aa", "abc"), SyntheticLanguage("bb", "cde")],
        proportions=[0.5, 0.5],
    )
    with pytest.raises(ConfigError, match="overlapping alphabets"):
        generate_synthetic(spec, seed=0, out_dir=tmp_path)


def test_proportions_must_sum_to_one(tmp_path):
    spec = SyntheticSpec.default(["aa", "bb"], [0.7, 0.2])
    with pytest.raises(ConfigError, match="sum to 1"):
        generate_synthetic(spec, seed=0, out_dir=tmp_path)


@pytest.mark.parametrize("code", ["", ".", "..", "../x", "a/b", "a\0b", 7])
def test_code_must_name_a_file(tmp_path, code):
    spec = SyntheticSpec.default([code], [1.0])
    with pytest.raises(ConfigError, match="cannot name a file"):
        generate_synthetic(spec, seed=0, out_dir=tmp_path / "out")
    assert list(tmp_path.iterdir()) == []


def test_alphabet_byte_sets_disjoint(synth_dir, corpus):
    seen = {}
    for lang in corpus.languages:
        byte_set = set()
        for word in corpus.per_language[lang]:
            byte_set.update(word)
        byte_set.discard(0x20)
        seen[lang] = byte_set
    langs = list(seen)
    for i, a in enumerate(langs):
        for b in langs[i + 1 :]:
            assert not (seen[a] & seen[b])


# The generator's output is a pure function of (spec, seed), across versions
# too: the sha256 of every file it writes, and the stats it returns.
PINNED_OUTPUTS = {
    "default-mix": (
        lambda: SyntheticSpec.default(
            ["aa", "bb", "cc"], [0.8, 0.15, 0.05], dev_lines=20, total_train_bytes=20_000
        ),
        7,
        {
            "dev/aa.txt": "be94023f5bc593b03b0ebecb8a12c9b115d529f14556a91a214e720589f35c87",
            "dev/bb.txt": "a31443e9349ea95503c5b301bbc8ec9d397835c1993103f5e4df7100639d463b",
            "dev/cc.txt": "71d6c4a346769caa8e6b8b4bc0811f7f6c03d5206c90aa2062c0828480d3f253",
            "manifest.json": "8e65ced992a189674386edd2346cd65a320125cdfaefa070aadd06d1f1039338",
            "synth_stats.json": "34d8e5265929baccc0c5ef0fe3652605b0650f66a300e13e651c2af2acc8878f",
            "train/aa.jsonl": "7bfcd6dbe220a57367891e83a474bbde0f83fb5c349f87e0e98803b8fe32877a",
            "train/bb.jsonl": "a931ac6e35a2e91d4e4b6a97db0716b97c0b19751155942cd8dfc855768128ab",
            "train/cc.jsonl": "c6c28040c6a8cead2412d62e9867e6a9212f84fc77dc9b54b9e62b6d88fd5747",
        },
        {
            "seed": 7,
            "languages": {
                "aa": {"proportion": 0.8, "train_text_bytes": 16010, "train_lines": 596},
                "bb": {"proportion": 0.15, "train_text_bytes": 3007, "train_lines": 114},
                "cc": {"proportion": 0.05, "train_text_bytes": 1020, "train_lines": 41},
            },
            "dev_lines": 20,
        },
    ),
    # JSON escapes in the text (quote, backslash, non-ASCII) and in the code
    "custom": (
        lambda: SyntheticSpec(
            [SyntheticLanguage('q"', 'a"\\b'), SyntheticLanguage("\u00fc", "\u00e9\u00fc")],
            [0.6, 0.4],
            dev_lines=15,
            total_train_bytes=4_000,
            words_per_line=(1, 3),
            zipf_exponent=0.7,
        ),
        11,
        {
            'dev/q".txt': "6e1e7d154df74354a131d9bcfd73720a6ac9263a6b3cf2dd4b84e007760ffb28",
            "dev/\u00fc.txt": "95d49baf9239c46cf8be765b2de1da5a33b4adaba6c81e05f255abdea64922a7",
            "manifest.json": "c1c65791c7d96e46c2ff134b9538563696c1d2924fa265634965796b7376863f",
            "synth_stats.json": "81556687b27b3faaa4dd7bfec78a9b37bbd0ab44248fc3f1ea201d7faa9b6e1b",
            'train/q".jsonl': "4e30c42251372a8cbb2ccfa2d63e5a40fef81fed48c206b106ee82b39417a531",
            "train/\u00fc.jsonl": "40f82e33abfc26bb68f71006e34374c720b9810243b45ec3600e0dd018c6a6d0",
        },
        {
            "seed": 11,
            "languages": {
                'q"': {"proportion": 0.6, "train_text_bytes": 2410, "train_lines": 316},
                "\u00fc": {"proportion": 0.4, "train_text_bytes": 1604, "train_lines": 78},
            },
            "dev_lines": 15,
        },
    ),
}


@pytest.mark.parametrize("name", list(PINNED_OUTPUTS))
def test_output_bytes_are_pinned(tmp_path, name):
    make_spec, seed, digests, stats = PINNED_OUTPUTS[name]
    assert generate_synthetic(make_spec(), seed, tmp_path) == stats
    written = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.rglob("*")
        if path.is_file()
    }
    assert written == digests
