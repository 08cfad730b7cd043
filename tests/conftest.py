import random
from collections import Counter
from pathlib import Path

import pytest

from parity_bpe import (
    ParityConfig,
    SyntheticSpec,
    generate_synthetic,
    load_labeled_corpus,
    load_parallel_dev,
    train_classical,
    train_parity,
)

SEED = 20250809
MERGE_BUDGET = 500


@pytest.fixture(scope="session")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    spec = SyntheticSpec.default(["aa", "bb", "cc"], [0.80, 0.15, 0.05], dev_lines=100)
    generate_synthetic(spec, seed=SEED, out_dir=out)
    return out


@pytest.fixture(scope="session")
def small_synth_dir(tmp_path_factory):
    """A ~3 KB corpus, for tests that run many CLI commands."""
    out = tmp_path_factory.mktemp("small_synth")
    spec = SyntheticSpec.default(["aa", "bb", "cc"], [0.5, 0.3, 0.2], dev_lines=20,
                                 total_train_bytes=3000)
    generate_synthetic(spec, seed=SEED, out_dir=out)
    return out


@pytest.fixture(scope="session")
def corpus(synth_dir):
    return load_labeled_corpus(synth_dir / "manifest.json")


@pytest.fixture(scope="session")
def dev(synth_dir, corpus):
    return load_parallel_dev(synth_dir / "dev", list(corpus.languages))


@pytest.fixture(scope="session")
def classical_run(corpus):
    return train_classical(corpus, MERGE_BUDGET)


@pytest.fixture(scope="session")
def parity_run(corpus, dev):
    config = ParityConfig(total_merges=MERGE_BUDGET, window_size=0)
    return train_parity(corpus, dev, config)


@pytest.fixture(scope="session")
def hybrid_run(corpus, dev):
    config = ParityConfig(MERGE_BUDGET, global_merges=MERGE_BUDGET // 2, window_size=0)
    return train_parity(corpus, dev, config)


@pytest.fixture(scope="session")
def window_run(corpus, dev):
    config = ParityConfig(total_merges=MERGE_BUDGET, window_size=6, alpha=2)
    return train_parity(corpus, dev, config)


@pytest.fixture(scope="session")
def fuzz_strings():
    rng = random.Random(SEED)
    return [rng.randbytes(rng.randint(0, 512)) for _ in range(10_000)]


@pytest.fixture()
def file_reads(monkeypatch):
    """Counts, by path string, each file opened through ``open`` or read through
    ``Path.read_bytes`` or ``Path.read_text``."""
    reads = Counter()
    real_open, read_bytes, read_text = open, Path.read_bytes, Path.read_text

    def counting_open(file, *args, **kwargs):
        reads[str(file)] += 1
        return real_open(file, *args, **kwargs)

    def counting_read_bytes(self):
        reads[str(self)] += 1
        return read_bytes(self)

    def counting_read_text(self, *args, **kwargs):
        reads[str(self)] += 1
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    monkeypatch.setattr(Path, "read_bytes", counting_read_bytes)
    monkeypatch.setattr(Path, "read_text", counting_read_text)
    return reads
