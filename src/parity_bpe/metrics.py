"""Intrinsic tokenizer evaluation: compression, diversity, fairness, morphology.

Compression rate is reported under two estimators that differ on skewed
data: the per-document mean of ratios and the ratio of sums. Reports label
each explicitly so they are never silently conflated.
"""

from __future__ import annotations

import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple, Sequence

from .corpus import NormUnit, ParallelDevCorpus, char_count, digest, line_count, pretokenize
from .errors import DataError
from .tokenizer import TokenizerModel

RENYI_ALPHA_DEFAULT = 2.5


@dataclass
class UnigramDistribution:
    """Empirical token frequency distribution over an evaluation corpus."""

    freq: dict[bytes, int]
    total: int

    @classmethod
    def from_texts(cls, model: TokenizerModel, docs: Sequence[bytes]) -> "UnigramDistribution":
        return _distribution(model, _doc_rows(model, docs)[0])

    def probabilities(self) -> list[float]:
        return [count / self.total for count in self.freq.values()]


class CompressionRates(NamedTuple):
    mean_of_ratios: float
    ratio_of_sums: float


class MorphScores(NamedTuple):
    precision: float
    recall: float
    f1: float


@dataclass
class GoldSegmentation:
    """A word with its gold interior morpheme-boundary byte offsets."""

    word: bytes
    boundaries: frozenset[int]

    def __post_init__(self):
        if not self.word:
            raise DataError("empty word in gold segmentation")
        bad = [b for b in self.boundaries if not 0 < b < len(self.word)]
        if bad:
            raise DataError(f"gold boundary outside word {self.word!r}: {sorted(bad)}")


def _doc_rows(model: TokenizerModel, docs: Sequence[bytes]) -> tuple[Counter, list[tuple], bool]:
    """The counts of the token ids of ``docs``, one ``(tokens, bytes, chars,
    lines, words)`` row per document, and whether a chars count fell back to
    bytes. Each document is pre-tokenized once: its pre-tokens give its words
    column and, through ``pretoken_ids``, its token ids. The ids of all the
    documents are counted at once, at the end; nothing raises."""
    all_ids: list[int] = []
    rows = []
    fell_back = False
    for doc in docs:
        words = pretokenize(doc)
        ids = model.pretoken_ids(words)
        all_ids += ids
        chars, fallback = char_count(doc)
        fell_back = fell_back or fallback
        # the unit_length of each unit, from the one char_count
        rows.append((len(ids), len(doc), chars, line_count(doc), len(words)))
    return Counter(all_ids), rows, fell_back


# The units of a row's columns after its token count, in row order.
_ROW_UNITS = (NormUnit.BYTES, NormUnit.CHARS, NormUnit.LINES, NormUnit.WORDS)


def _distribution(model: TokenizerModel, counts: Counter) -> UnigramDistribution:
    if not counts:
        raise DataError("empty token stream: cannot build a unigram distribution")
    vocab = model.id_to_bytes
    return UnigramDistribution({vocab[i]: c for i, c in counts.items()}, sum(counts.values()))


def _rates(units: Sequence[int], tokens: Sequence[int]) -> CompressionRates:
    """Both estimators of a unit column per token; a zero-token document raises."""
    ratio_sum = 0.0
    for u, t in zip(units, tokens):
        if t == 0:
            raise DataError("zero-token document in corpus")
        ratio_sum += u / t
    return CompressionRates(ratio_sum / len(tokens), sum(units) / sum(tokens))


def _fertility(tokens: Sequence[int], words: Sequence[int]) -> float:
    word_sum = sum(words)
    if word_sum == 0:
        raise DataError("empty corpus: no words")
    return sum(tokens) / word_sum


def _type_token_ratio(dist: UnigramDistribution) -> float:
    return len(dist.freq) / dist.total


def _vocab_utilization(model: TokenizerModel, counts: Counter) -> float:
    return len(counts) / model.vocab_size


def compression_rate(
    model: TokenizerModel, docs: Sequence[bytes], unit: NormUnit
) -> CompressionRates:
    """Both compression-rate estimators of ``model`` over ``docs``."""
    column = 1 + _ROW_UNITS.index(NormUnit(unit))
    if not docs:
        raise DataError("empty corpus: no documents")
    rows = _doc_rows(model, docs)[1]
    return _rates([row[column] for row in rows], [row[0] for row in rows])


def fertility(model: TokenizerModel, docs: Sequence[bytes]) -> float:
    """Average tokens per whitespace word, as a ratio of sums."""
    rows = _doc_rows(model, docs)[1]
    return _fertility([row[0] for row in rows], [row[4] for row in rows])


def vocab_utilization(model: TokenizerModel, docs: Sequence[bytes]) -> float:
    """Fraction of the vocabulary observed when tokenizing ``docs``."""
    return _vocab_utilization(model, _doc_rows(model, docs)[0])


def type_token_ratio(model: TokenizerModel, docs: Sequence[bytes]) -> float:
    """Distinct token types over total tokens produced for ``docs``."""
    return _type_token_ratio(UnigramDistribution.from_texts(model, docs))


def avg_token_rank(
    model: TokenizerModel,
    docs: Sequence[bytes],
    dist: UnigramDistribution | None = None,
) -> float:
    """Frequency-weighted mean rank in the frequency-ordered vocabulary.

    Rank 1 is the most frequent token; ties order by (count desc, bytes).
    """
    if dist is None:
        dist = UnigramDistribution.from_texts(model, docs)
    ordered = sorted(dist.freq.items(), key=lambda item: (-item[1], item[0]))
    weighted = sum(rank * count for rank, (_, count) in enumerate(ordered, start=1))
    return weighted / dist.total


def check_renyi_order(alpha: float, error: type[Exception] = DataError) -> None:
    """The one rule for a Renyi order: above 0, infinity included; raises ``error``."""
    if not alpha > 0:  # also rejects nan
        raise error(f"Renyi order must be > 0, got {alpha}")


def renyi_entropy(dist: UnigramDistribution | Sequence[float], alpha: float) -> float:
    """Order-``alpha`` Renyi entropy in bits (Shannon at alpha=1, min-entropy at inf)."""
    check_renyi_order(alpha)
    probs = dist.probabilities() if isinstance(dist, UnigramDistribution) else list(dist)
    probs = [p for p in probs if p > 0]
    if not probs:
        raise DataError("empty distribution")
    if math.isinf(alpha):
        return -math.log2(max(probs))
    if alpha == 1:
        return -sum(p * math.log2(p) for p in probs)
    power_sum = sum(p**alpha for p in probs)
    if power_sum == 0.0:  # every p**alpha underflowed: factor out the largest p
        top = max(probs)
        scaled_sum = sum((p / top) ** alpha for p in probs)
        return alpha / (1.0 - alpha) * math.log2(top) + math.log2(scaled_sum) / (1.0 - alpha)
    return math.log2(power_sum) / (1.0 - alpha)


def gini(costs: Sequence[float]) -> float:
    """Inequality of per-language costs; 0 means all costs are equal.

    With ascending costs c_1..c_n this is
    (1/n) * (n + 1 - 2 * sum((n + 1 - i) * c_i) / sum(c_i)).
    """
    n = len(costs)
    if n == 0:
        raise DataError("empty cost vector")
    if any(c <= 0 for c in costs):
        raise DataError("costs must be positive")
    ordered = sorted(costs)
    total = sum(ordered)
    weighted = sum((n + 1 - i) * c for i, c in enumerate(ordered, start=1))
    # mathematically >= 0; clamp float rounding on near-equal costs
    return max(0.0, (n + 1 - 2.0 * weighted / total) / n)


def _boundaries(pieces: Sequence[bytes]) -> frozenset[int]:
    """The byte offsets between consecutive ``pieces`` of a word."""
    return frozenset(accumulate(len(piece) for piece in pieces[:-1]))


def morph_boundary_scores(
    model: TokenizerModel, gold: Sequence[GoldSegmentation]
) -> MorphScores:
    """Boundary-set precision/recall of token splits against gold morphemes.

    Each word is tokenized in isolation; predicted boundaries are the
    cumulative byte offsets between consecutive tokens. An empty prediction
    has precision 1 by convention; scores are macro-averaged over words.
    """
    if not gold:
        raise DataError("empty gold segmentation list")
    p_sum = r_sum = f_sum = 0.0
    for entry in gold:
        predicted = _boundaries(model.encode(entry.word))
        hits = len(predicted & entry.boundaries)
        precision = hits / len(predicted) if predicted else 1.0
        recall = hits / len(entry.boundaries) if entry.boundaries else 1.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        p_sum += precision
        r_sum += recall
        f_sum += f1
    n = len(gold)
    return MorphScores(p_sum / n, r_sum / n, f_sum / n)


def load_gold_tsv(path: str | Path) -> list[GoldSegmentation]:
    """Parse ``word<TAB>seg|ment|ed`` lines into gold segmentations."""
    return load_gold_with_digest(path)[0]


def load_gold_with_digest(path: str | Path) -> tuple[list[GoldSegmentation], str]:
    """:func:`load_gold_tsv`, and the ``corpus.digest`` of the bytes it parsed."""
    path = Path(path)
    entries = []
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read gold file {path}: {exc.strerror or exc}") from None
    for lineno, raw in enumerate(io.BytesIO(data), 1):  # the lines a binary file yields
        line = raw.rstrip(b"\r\n")
        if not line:
            continue
        parts = line.split(b"\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected word<TAB>segmentation")
        word, segmented = parts
        pieces = segmented.split(b"|")
        if b"".join(pieces) != word:
            raise DataError(
                f"{path}:{lineno}: segmentation does not concatenate to the word"
            )
        if b"" in pieces:
            raise DataError(f"{path}:{lineno}: empty segment")
        entries.append(GoldSegmentation(word, _boundaries(pieces)))
    if not entries:
        raise DataError(f"{path}: no gold entries")
    return entries, digest(data)


@dataclass
class MetricReport:
    """Per-language and global metric values plus provenance."""

    global_metrics: dict
    per_language: dict[str, dict]
    provenance: dict

    def to_dict(self) -> dict:
        return {
            "global": self.global_metrics,
            "per_language": self.per_language,
            "provenance": self.provenance,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "MetricReport":
        return cls(data["global"], data["per_language"], data["provenance"])

    @classmethod
    def from_json(cls, text: str) -> "MetricReport":
        return cls.from_dict(json.loads(text))


def _rows_metrics(
    model: TokenizerModel, counts: Counter, rows: list[tuple], renyi_alpha: float
) -> dict:
    """The report metrics of some documents from their ``_doc_rows`` counts
    and rows, by the formulas of the single-metric functions. The empty
    token stream is checked first, then the zero-token document."""
    dist = _distribution(model, counts)
    tokens, *unit_columns, words = zip(*rows)
    stats = {}
    for unit, units in zip(_ROW_UNITS, unit_columns):
        for estimator, value in zip(CompressionRates._fields, _rates(units, tokens)):
            stats[f"cr_{unit.value}_{estimator}"] = value
    stats["fertility"] = _fertility(tokens, words)
    stats["type_token_ratio"] = _type_token_ratio(dist)
    stats["vocab_utilization"] = _vocab_utilization(model, counts)
    stats["avg_token_rank"] = avg_token_rank(model, [], dist=dist)
    stats["renyi_entropy"] = renyi_entropy(dist, renyi_alpha)
    stats["tokens_per_line"] = dist.total / len(rows)
    return stats


def full_report(
    model: TokenizerModel,
    dev: ParallelDevCorpus,
    renyi_alpha: float = RENYI_ALPHA_DEFAULT,
    gold: Sequence[GoldSegmentation] | None = None,
    provenance: dict | None = None,
) -> MetricReport:
    """All intrinsic metrics per language and pooled over the parallel corpus.

    Each line is pre-tokenized once, and its token ids are looked up from
    those pre-tokens (see ``_doc_rows``); the pooled metrics come from the
    per-language counts and rows in language order, the order of the pooled
    lines.

    The fairness Gini uses tokens per aligned line as the per-language cost,
    which normalizes by content rather than script.
    """
    if dev.n_lines == 0:
        raise DataError("empty dev corpus")
    per_language = {}
    fallback_languages = []
    pooled_counts: Counter = Counter()
    pooled_rows: list[tuple] = []
    for lang in dev.languages:
        counts, rows, fell_back = _doc_rows(model, dev.lines[lang])
        per_language[lang] = _rows_metrics(model, counts, rows, renyi_alpha)
        if fell_back:
            fallback_languages.append(lang)
        pooled_counts.update(counts)
        pooled_rows += rows

    global_metrics = _rows_metrics(model, pooled_counts, pooled_rows, renyi_alpha)
    global_metrics["gini_tokens_per_line"] = gini(
        [per_language[lang]["tokens_per_line"] for lang in dev.languages]
    )
    if gold is not None:
        scores = morph_boundary_scores(model, gold)
        global_metrics["morph_boundary_precision"] = scores.precision
        global_metrics["morph_boundary_recall"] = scores.recall
        global_metrics["morph_boundary_f1"] = scores.f1

    meta = {
        "languages": list(dev.languages),
        "n_lines": dev.n_lines,
        "renyi_alpha": renyi_alpha,
        "gini_cost": "tokens_per_line",
        "vocab_size": model.vocab_size,
        "n_merges": len(model.merges),
        "char_fallback_languages": fallback_languages,
    }
    if provenance:
        meta.update(provenance)
    return MetricReport(global_metrics, per_language, meta)
