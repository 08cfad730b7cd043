"""The trainers' final token totals equal a re-encode of the reference corpus.

``train`` builds its summary CR table from ``TrainLog.unit_totals`` and
``TrainLog.token_totals`` instead of measuring and encoding the corpus again;
these tests hold that table equal to ``compute_cr``'s.
"""

import pytest

from parity_bpe import (
    CRTable,
    LabeledCorpus,
    NormUnit,
    ParallelDevCorpus,
    ParityConfig,
    compute_cr,
    train_classical,
    train_no_dev,
    train_parity,
)

BUDGET = 120
# One language runs out of pairs after a few merges, the other has none.
STOPPING = LabeledCorpus.from_multisets({"aa": {b"abab": 3, b"abc": 2}, "bb": {b"xy": 1}})
STOPPING_DEV = ParallelDevCorpus(("aa", "bb"), {"aa": [b"abab abc"], "bb": [b"xy xy"]})


def assert_totals_match(log, reference, model, unit):
    expected = compute_cr(reference, model, unit)
    assert log.token_totals == expected.token_totals
    # the table the CLI builds from the log is the one compute_cr returns
    assert CRTable(unit, reference.languages, log.unit_totals, log.token_totals) == expected


@pytest.mark.parametrize("merges", [0, BUDGET])
def test_classical(corpus, merges):
    model, log = train_classical(corpus, merges)
    assert len(log) == merges
    assert_totals_match(log, corpus, model, NormUnit.BYTES)


def test_classical_stopped_early():
    model, log = train_classical(STOPPING, 50)
    assert log.stopped_early and 0 < len(log) < 50
    assert_totals_match(log, STOPPING, model, NormUnit.BYTES)


@pytest.mark.parametrize("global_merges", [0, BUDGET // 2])
@pytest.mark.parametrize("unit", list(NormUnit), ids=lambda u: u.value)
def test_parity(corpus, dev, unit, global_merges):
    config = ParityConfig(
        total_merges=BUDGET, global_merges=global_merges, window_size=10, unit=unit
    )
    model, log = train_parity(corpus, dev, config)
    assert len(log) == BUDGET
    assert_totals_match(log, dev, model, unit)


def test_parity_zero_merges(corpus, dev):
    model, log = train_parity(corpus, dev, ParityConfig(total_merges=0))
    assert len(log) == 0
    assert_totals_match(log, dev, model, NormUnit.LINES)


def test_parity_stopped_early():
    config = ParityConfig(total_merges=50, window_size=0)
    model, log = train_parity(STOPPING, STOPPING_DEV, config)
    assert log.stopped_early and 0 < len(log) < 50
    assert_totals_match(log, STOPPING_DEV, model, NormUnit.LINES)


@pytest.mark.parametrize("merges, global_merges", [(0, 0), (BUDGET, 0), (BUDGET, BUDGET // 2)])
def test_no_dev(corpus, merges, global_merges):
    config = ParityConfig(
        total_merges=merges,
        global_merges=global_merges,
        window_size=10,
        unit=NormUnit.BYTES,
    )
    model, log = train_no_dev(corpus, config)
    assert len(log) == merges
    assert_totals_match(log, corpus, model, NormUnit.BYTES)


def test_no_dev_stopped_early():
    config = ParityConfig(total_merges=50, window_size=0, unit=NormUnit.BYTES)
    model, log = train_no_dev(STOPPING, config)
    assert log.stopped_early and 0 < len(log) < 50
    assert_totals_match(log, STOPPING, model, NormUnit.BYTES)


def test_totals_are_not_written_to_the_log(corpus, tmp_path):
    _, log = train_classical(corpus, 5)
    log.to_jsonl(tmp_path / "log.jsonl")
    assert "totals" not in (tmp_path / "log.jsonl").read_text()
    read = type(log).from_jsonl(tmp_path / "log.jsonl")
    assert read.unit_totals is None and read.token_totals is None
