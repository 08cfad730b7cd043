"""The abstract's trade-off on a mixed-script mixture.

Five languages with byte-disjoint 13-character alphabets: two ASCII ones
(1 byte a character), Cyrillic and Greek (2 bytes) and Devanagari (3 bytes),
in the proportions 0.5/0.2/0.15/0.1/0.05. Classical training follows the
mixture, so the rare many-byte languages stay long; parity training evens
out the tokens per dev line and pays for it in compression of the training
mixture. The test pins the direction of both effects, not their size.
"""

import pytest

from parity_bpe import (
    NormUnit,
    ParityConfig,
    SyntheticSpec,
    compute_cr,
    full_report,
    generate_synthetic,
    load_labeled_corpus,
    load_parallel_dev,
    train_classical,
    train_parity,
)
from parity_bpe.synthetic import SyntheticLanguage

MERGES = 400


def _alphabet(first: str) -> str:
    return "".join(chr(ord(first) + i) for i in range(13))


MIXED_SCRIPTS = SyntheticSpec(
    [SyntheticLanguage("lat1", _alphabet("a")), SyntheticLanguage("lat2", _alphabet("n")),
     SyntheticLanguage("cyrl", _alphabet("р")), SyntheticLanguage("grek", _alphabet("α")),
     SyntheticLanguage("deva", _alphabet("क"))],
    [0.5, 0.2, 0.15, 0.1, 0.05],
    dev_lines=200,
    total_train_bytes=300_000,
    vocab_size=800,
)


@pytest.fixture(scope="module")
def mixed_scripts(tmp_path_factory):
    out = tmp_path_factory.mktemp("mixed_scripts")
    generate_synthetic(MIXED_SCRIPTS, seed=1, out_dir=out)
    corpus = load_labeled_corpus(out / "manifest.json")
    return corpus, load_parallel_dev(out / "dev", list(corpus.languages))


def test_parity_trades_training_compression_for_equal_dev_costs(mixed_scripts):
    """Gini of tokens per dev line, and byte CR on the training mixture (Σ
    bytes over Σ tokens of ``compute_cr``): parity < hybrid 0.5 < classical
    on both."""
    corpus, dev = mixed_scripts
    models = {
        "classical": train_classical(corpus, MERGES)[0],
        "hybrid": train_parity(corpus, dev, ParityConfig.hybrid(MERGES, 0.5))[0],
        "parity": train_parity(corpus, dev, ParityConfig(MERGES))[0],
    }
    gini, train_cr = {}, {}
    for name, model in models.items():
        assert len(model.merges) == MERGES
        gini[name] = full_report(model, dev).global_metrics["gini_tokens_per_line"]
        table = compute_cr(corpus, model, NormUnit.BYTES)
        train_cr[name] = sum(table.unit_totals.values()) / sum(table.token_totals.values())
    assert gini["parity"] < gini["hybrid"] < gini["classical"], gini
    assert train_cr["parity"] < train_cr["hybrid"] < train_cr["classical"], train_cr
