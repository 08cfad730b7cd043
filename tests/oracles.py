"""Independent reference implementations used to check the library.

Everything here is deliberately naive and self-contained: sequential merge
replay, and a per-merge rescan on a pair-keyed ``merge_table``, for
encoding, from-scratch sliding-window pair recounts, classical and min-max
training traces that recount everything at every step, a bitwise UTF-8
scalar counter, a pairwise-difference Gini, the one-``json.loads``-per-line
corpus loader, and the ``naive_*`` metric bodies, each of which tokenizes
the documents on its own and applies its own formula.
``ten_pass_full_report`` builds the report from those bodies, one
tokenization pass per metric; it takes only the Renyi entropy, the Gini and
the morph scores from the package, and the one-pass ``full_report`` must
match it exactly. None of it shares code with the package paths it verifies,
except the two per-line ``encode`` formatters, which format a whole line's
``encode_ids`` and ``encode`` output, as the CLI did before it rendered each
pre-token once; and the per-line ``decode``, which parses and checks each
field, as the CLI did before it looked fields up in ``text_spans``.

``store_ids``, ``listed_ids``, ``global_pair_counts``, ``lang_pair_counts``
and ``tokenized_words`` are not oracles but views: they read a trainer
state's store by token ids or byte spans, so tests can compare it with the
recounts above.
"""

import hashlib
import json
import os
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from parity_bpe import (
    ConfigError,
    CorpusError,
    DataError,
    GoldSegmentation,
    LabeledCorpus,
    MetricReport,
    NormUnit,
    ParallelDevCorpus,
    TokenizerModel,
    UnigramDistribution,
    gini,
    morph_boundary_scores,
    pretokenize,
    renyi_entropy,
    unit_length,
)
from parity_bpe import _kernels
from parity_bpe.corpus import char_count
from parity_bpe.metrics import RENYI_ALPHA_DEFAULT, CompressionRates
from parity_bpe.tokenizer import escape_token, unescape_token


def replay_encode(merges, text: bytes) -> list[bytes]:
    """Encode by replaying the merge list in order within each pre-token."""
    out = []
    for word in pretokenize(text):
        tokens = [bytes([b]) for b in word]
        for left, right in merges:
            replaced = []
            i = 0
            while i < len(tokens):
                if i + 1 < len(tokens) and tokens[i] == left and tokens[i + 1] == right:
                    replaced.append(left + right)
                    i += 2
                else:
                    replaced.append(tokens[i])
                    i += 1
            tokens = replaced
        out.extend(tokens)
    return out


def merge_table(merges) -> dict:
    """``{(left id, right id): (rank, merged id)}`` of a merge list, by its
    canonical ids: a merge's id is 256 plus its rank unless an earlier merge
    (or a single byte) produced the same bytes."""
    canonical = {bytes([i]): i for i in range(256)}
    table = {}
    for rank, (left, right) in enumerate(merges):
        merged = canonical.setdefault(left + right, 256 + rank)
        table[(canonical[left], canonical[right])] = (rank, merged)
    return table


def rescan_encode_ids(ids, table: dict) -> list:
    """Kernel-level encoder: rescan for the lowest-ranked pair, apply it
    leftmost-first and non-overlapping everywhere, repeat.

    ``table`` maps an adjacent id pair to ``(rank, merged_id)``, as
    :func:`merge_table` builds it.
    """
    seq = list(ids)
    while len(seq) > 1:
        best_rank = -1
        best_a = best_b = best_new = 0
        for i in range(len(seq) - 1):
            entry = table.get((seq[i], seq[i + 1]))
            if entry is not None and (best_rank < 0 or entry[0] < best_rank):
                best_rank = entry[0]
                best_new = entry[1]
                best_a, best_b = seq[i], seq[i + 1]
        if best_rank < 0:
            break
        out = []
        i = 0
        n = len(seq)
        while i < n:
            if i + 1 < n and seq[i] == best_a and seq[i + 1] == best_b:
                out.append(best_new)
                i += 2
            else:
                out.append(seq[i])
                i += 1
        seq = out
    return seq


def sliding_pair_counts(words) -> Counter:
    """Positional pair counts over (token tuple, multiplicity) pairs."""
    counts = Counter()
    for tokens, mult in words:
        for i in range(len(tokens) - 1):
            counts[(tokens[i], tokens[i + 1])] += mult
    return counts


def store_ids(value):
    """A trainer store's code strs as token ids: a word or pair key becomes
    its id tuple, a dict keyed by pair keys (the pair index, a count or
    delta table) the same dict keyed by id pairs, and a list its items so.
    """
    if isinstance(value, str):
        return _kernels.token_ids(value)
    if isinstance(value, dict):
        return {store_ids(key): item for key, item in value.items()}
    return [store_ids(item) for item in value]


def listed_ids(index, pair) -> list[int]:
    """The word ids a trainer pair index, keyed by id pairs (``store_ids``),
    lists under ``pair``, in order.

    A slot is a bare id while it names one word and a list of ids after.
    """
    slot = index.get(pair, [])
    return [slot] if isinstance(slot, int) else list(slot)


def global_pair_counts(state) -> dict[tuple[bytes, bytes], int]:
    """A trainer state's summed pair counts, keyed by byte spans."""
    return {
        (state.vocab[a], state.vocab[b]): sum(vec)
        for (a, b), vec in state.train.pair_counts.items()
    }


def lang_pair_counts(state, lang: str) -> dict[tuple[bytes, bytes], int]:
    """A trainer state's nonzero pair counts in one language, keyed by byte spans."""
    li = state.lang_index[lang]
    return {
        (state.vocab[a], state.vocab[b]): vec[li]
        for (a, b), vec in state.train.pair_counts.items()
        if vec[li]
    }


def tokenized_words(state, dev: bool = False):
    """(token byte spans, per-language counts) of each training word of a
    trainer state, or of each dev word when ``dev``."""
    store = state.train
    entries_of = store.dev_counts if dev else store.counts
    return [
        (tuple(state.vocab[t] for t in tokens), {state.langs[li]: c for li, c in entries if c})
        for tokens, entries in zip(store_ids(store.words), entries_of)
        if entries
    ]


def replace_pair(tokens, left: bytes, right: bytes):
    """Leftmost-first non-overlapping replacement of (left, right)."""
    merged = left + right
    out = []
    i = 0
    while i < len(tokens):
        if i + 1 < len(tokens) and tokens[i] == left and tokens[i + 1] == right:
            out.append(merged)
            i += 2
        else:
            out.append(tokens[i])
            i += 1
    return tuple(out)


def greedy_steps(multiset: dict[bytes, int], budget: int, min_count: int = 2):
    """Brute-force classical training trace: [(left, right, count), ...].

    Selection recounts every pair from scratch and breaks ties on the
    lexicographically smallest (left, right) byte spans.
    """
    words = [
        (tuple(bytes([b]) for b in word), mult) for word, mult in sorted(multiset.items())
    ]
    steps = []
    for _ in range(budget):
        counts = sliding_pair_counts(words)
        if not counts:
            break
        pair, count = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if count < min_count:
            break
        steps.append((pair[0], pair[1], count))
        words = [(replace_pair(tokens, *pair), mult) for tokens, mult in words]
    return steps


def naive_parity_steps(train: LabeledCorpus, dev_lines, config, no_dev: bool = False):
    """Brute-force min-max training trace: one dict of ``TrainStep`` fields per step.

    Every step recomputes from scratch each language's compression rate (its
    unit total over the token count of its reference text, the dev lines, or
    the training words when ``no_dev``), the window ranks from the last
    ``window_size`` parity picks, and each candidate's pair counts. The first
    ``global_merges`` steps pick from the summed counts. A parity step takes
    the first language in (over quota, rate, code) order whose best count is
    at least 2; ties go to the smallest (left, right) spans.
    """
    langs = list(train.languages)
    train_sets = {lang: dict(train.per_language[lang]) for lang in langs}
    if no_dev:
        reference = train_sets
        units = {lang: sum(len(w) * c for w, c in train_sets[lang].items()) for lang in langs}
    else:
        reference = {lang: Counter(w for line in dev_lines[lang] for w in pretokenize(line))
                     for lang in langs}
        units = {lang: sum(unit_length(line, config.unit) for line in dev_lines[lang])
                 for lang in langs}
    tokens = {w: tuple(bytes([b]) for b in w)
              for multisets in (train_sets, reference) for lang in langs for w in multisets[lang]}
    quota = Fraction(str(config.alpha)) * config.window_size / len(langs)
    picks: list[str] = []

    def best(multiset_of):
        counts = sliding_pair_counts((tokens[w], c) for w, c in multiset_of.items())
        pair, count = min(counts.items(), key=lambda kv: (-kv[1], kv[0]), default=(None, 0))
        return (pair, count) if count >= 2 else None

    def token_totals(multisets):
        return {lang: sum(len(tokens[w]) * c for w, c in multisets[lang].items()) for lang in langs}

    steps = []
    for k in range(1, config.total_merges + 1):
        fields = dict(lang=None, fallback=False, skipped=[], cr_snapshot=None)
        if k <= config.global_merges:
            summed = Counter()
            for lang in langs:
                summed.update(train_sets[lang])
            sel = best(summed)
            fields["mode"] = "global"
        else:
            totals = token_totals(reference)
            snapshot = {lang: units[lang] / totals[lang] for lang in langs}
            recent = picks[-config.window_size:] if config.window_size else []
            over = {lang: bool(config.window_size) and recent.count(lang) + 1 > quota
                    for lang in langs}
            sel = None
            for lang in sorted(langs, key=lambda lang: (over[lang], snapshot[lang], lang)):
                sel = best(train_sets[lang])
                if sel is not None:
                    picks.append(lang)
                    fields.update(lang=lang, fallback=over[lang], cr_snapshot=snapshot)
                    break
                fields["skipped"].append(lang)
            fields["mode"] = "parity"
        if sel is None:
            break
        (left, right), count = sel
        before = token_totals(train_sets)
        tokens = {w: replace_pair(t, left, right) for w, t in tokens.items()}
        after = token_totals(train_sets)
        steps.append(dict(step=k, left=left, right=right, count=count, **fields,
                          dev_tokens=token_totals(reference),
                          replacements={lang: before[lang] - after[lang] for lang in langs}))
    return steps


def utf8_scalar_count(data: bytes) -> int:
    """Count UTF-8 code points by counting non-continuation bytes."""
    return sum(1 for b in data if b & 0xC0 != 0x80)


def pairwise_gini(costs) -> float:
    """Gini as mean absolute pairwise difference over twice the mean."""
    n = len(costs)
    total = sum(abs(a - b) for a in costs for b in costs)
    mean = sum(costs) / n
    return total / (2 * n * n * mean)


def audit_selection_windows(selections, window_size: int, quota: int):
    """Quota violations over sliding windows of consecutive selections.

    ``selections`` is a list of (language, fallback) pairs in log order.
    Windows containing a fallback-flagged step are excused.
    """
    violations = []
    for start in range(len(selections) - window_size + 1):
        window = selections[start : start + window_size]
        if any(fallback for _, fallback in window):
            continue
        counts = Counter(lang for lang, _ in window)
        for lang, occurrences in counts.items():
            if occurrences > quota:
                violations.append((start, lang, occurrences))
    return violations


def per_line_load_labeled_corpus(
    manifest: str | Path, limit_per_language: int | None = None
) -> tuple[LabeledCorpus, dict[str, dict[NormUnit, int]]]:
    """The labeled-corpus loader as it was before its fast path: one
    ``json.loads`` and one ``Counter.update`` per line. The package loader
    must return the same corpus, or raise the same ``CorpusError``, or the
    same ``ConfigError`` for a limit that is not None or an int of at least 1.

    Beside the corpus it returns each language's bytes, chars and words,
    summed record by record, for ``reference_unit_totals`` to match.
    """
    limit = limit_per_language
    if limit is not None:  # a usage fault, found before any file is read
        if type(limit) is not int:
            raise ConfigError(f"limit_per_language must be an integer, got {limit!r}")
        if limit < 1:
            raise ConfigError(f"limit_per_language must be >= 1, got {limit}")
    manifest = Path(manifest)
    try:
        spec = json.loads(manifest.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CorpusError(f"manifest not found: {manifest}") from None
    except json.JSONDecodeError as exc:
        raise CorpusError(f"malformed manifest {manifest}: {exc}") from None

    entries = spec.get("languages")
    if not isinstance(entries, list) or not entries:
        raise CorpusError(f"manifest {manifest} lists no languages")
    declared: list[tuple[str, Path]] = []
    seen = set()
    for entry in entries:
        lang, path = entry.get("lang"), entry.get("path")
        if not lang or not isinstance(lang, str) or not path:
            raise CorpusError(f"manifest {manifest}: bad language entry {entry!r}")
        if lang in seen:
            raise CorpusError(f"manifest {manifest}: duplicate language {lang!r}")
        seen.add(lang)
        declared.append((lang, manifest.parent / path))

    known = {lang for lang, _ in declared}
    per_language: dict[str, Counter] = {lang: Counter() for lang in known}
    totals = {lang: {NormUnit.BYTES: 0, NormUnit.CHARS: 0, NormUnit.WORDS: 0} for lang in known}
    n_records = {lang: 0 for lang in known}
    digests = {}
    read = {}  # real path -> digest: a file several entries name is read once

    for lang, path in declared:
        if not path.exists():
            raise CorpusError(f"missing corpus file for {lang!r}: {path}")
        real = os.path.realpath(path)
        if real in read:
            digests[lang] = read[real]
            continue
        digests[lang] = read[real] = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, 1):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    record = json.loads(raw)
                    text, rec_lang = record["text"], record["lang"]
                except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
                    raise CorpusError(f"{path}:{lineno}: malformed record ({exc})") from None
                if not isinstance(text, str) or not isinstance(rec_lang, str):
                    raise CorpusError(f"{path}:{lineno}: text and lang must be strings")
                if rec_lang not in known:
                    raise CorpusError(
                        f"{path}:{lineno}: unknown language {rec_lang!r} not in manifest"
                    )
                if limit_per_language is not None and n_records[rec_lang] >= limit_per_language:
                    continue
                n_records[rec_lang] += 1
                try:
                    data = text.encode("utf-8")
                except UnicodeEncodeError as exc:
                    raise CorpusError(f"{path}:{lineno}: invalid text ({exc})") from None
                words = pretokenize(data)
                per_language[rec_lang].update(words)
                t = totals[rec_lang]
                t[NormUnit.BYTES] += len(data)
                t[NormUnit.CHARS] += len(text)  # valid UTF-8, so one char per code point
                t[NormUnit.WORDS] += len(words)

    for lang, _ in declared:
        if not per_language[lang]:
            raise CorpusError(f"empty language partition: {lang!r}")

    return LabeledCorpus(tuple(sorted(known)), per_language, digests), totals


def naive_unigram_distribution(
    model: TokenizerModel, docs: Sequence[bytes]
) -> UnigramDistribution:
    """``UnigramDistribution.from_texts`` from a Counter of ``encode`` tokens."""
    freq = Counter()
    for doc in docs:
        freq.update(model.encode(doc))
    total = sum(freq.values())
    if total <= 0:
        raise DataError("empty token stream: cannot build a unigram distribution")
    return UnigramDistribution(dict(freq), total)


def naive_compression_rate(
    model: TokenizerModel, docs: Sequence[bytes], unit: NormUnit
) -> CompressionRates:
    """Both compression-rate estimators, one ``token_count`` per document."""
    unit = NormUnit(unit)
    if not docs:
        raise DataError("empty corpus: no documents")
    unit_sum = 0
    token_sum = 0
    ratio_sum = 0.0
    for doc in docs:
        tokens = model.token_count(doc)
        if tokens == 0:
            raise DataError("zero-token document in corpus")
        units = unit_length(doc, unit)
        unit_sum += units
        token_sum += tokens
        ratio_sum += units / tokens
    return CompressionRates(ratio_sum / len(docs), unit_sum / token_sum)


def naive_fertility(model: TokenizerModel, docs: Sequence[bytes]) -> float:
    """Tokens per whitespace word, as a ratio of sums."""
    token_sum = sum(model.token_count(doc) for doc in docs)
    word_sum = sum(unit_length(doc, NormUnit.WORDS) for doc in docs)
    if word_sum == 0:
        raise DataError("empty corpus: no words")
    return token_sum / word_sum


def naive_vocab_utilization(model: TokenizerModel, docs: Sequence[bytes]) -> float:
    """The distinct ``encode`` tokens over the vocabulary size."""
    observed = set()
    for doc in docs:
        observed.update(model.encode(doc))
    return len(observed) / model.vocab_size


def naive_type_token_ratio(model: TokenizerModel, docs: Sequence[bytes]) -> float:
    """Distinct token types over total tokens."""
    dist = naive_unigram_distribution(model, docs)
    return len(dist.freq) / dist.total


def naive_avg_token_rank(
    model: TokenizerModel,
    docs: Sequence[bytes],
    dist: UnigramDistribution | None = None,
) -> float:
    """Frequency-weighted mean rank; ties order by (count desc, bytes)."""
    if dist is None:
        dist = naive_unigram_distribution(model, docs)
    ordered = sorted(dist.freq.items(), key=lambda item: (-item[1], item[0]))
    weighted = sum(rank * count for rank, (_, count) in enumerate(ordered, start=1))
    return weighted / dist.total


def _doc_metrics(model: TokenizerModel, docs: Sequence[bytes], renyi_alpha: float) -> dict:
    dist = naive_unigram_distribution(model, docs)
    cr_bytes = naive_compression_rate(model, docs, NormUnit.BYTES)
    cr_chars = naive_compression_rate(model, docs, NormUnit.CHARS)
    cr_lines = naive_compression_rate(model, docs, NormUnit.LINES)
    return {
        "cr_bytes_mean_of_ratios": cr_bytes.mean_of_ratios,
        "cr_bytes_ratio_of_sums": cr_bytes.ratio_of_sums,
        "cr_chars_mean_of_ratios": cr_chars.mean_of_ratios,
        "cr_chars_ratio_of_sums": cr_chars.ratio_of_sums,
        "cr_lines_mean_of_ratios": cr_lines.mean_of_ratios,
        "cr_lines_ratio_of_sums": cr_lines.ratio_of_sums,
        "fertility": naive_fertility(model, docs),
        "type_token_ratio": naive_type_token_ratio(model, docs),
        "vocab_utilization": naive_vocab_utilization(model, docs),
        "avg_token_rank": naive_avg_token_rank(model, docs, dist=dist),
        "renyi_entropy": renyi_entropy(dist, renyi_alpha),
        "tokens_per_line": dist.total / len(docs),
    }


def ten_pass_full_report(
    model: TokenizerModel,
    dev: ParallelDevCorpus,
    renyi_alpha: float = RENYI_ALPHA_DEFAULT,
    gold: Sequence[GoldSegmentation] | None = None,
    provenance: dict | None = None,
) -> MetricReport:
    """All intrinsic metrics per language and pooled over the parallel corpus.

    The fairness Gini uses tokens per aligned line as the per-language cost,
    which normalizes by content rather than script.
    """
    if dev.n_lines == 0:
        raise DataError("empty dev corpus")
    per_language = {}
    costs = {}
    for lang in dev.languages:
        docs = dev.lines[lang]
        stats = _doc_metrics(model, docs, renyi_alpha)
        per_language[lang] = stats
        costs[lang] = stats["tokens_per_line"]

    pooled: list[bytes] = []
    for lang in dev.languages:
        pooled.extend(dev.lines[lang])
    global_metrics = _doc_metrics(model, pooled, renyi_alpha)
    global_metrics["gini_tokens_per_line"] = gini([costs[lang] for lang in dev.languages])
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
        "char_fallback_languages": [
            lang
            for lang in dev.languages
            if any(char_count(line)[1] for line in dev.lines[lang])
        ],
    }
    if provenance:
        meta.update(provenance)
    return MetricReport(global_metrics, per_language, meta)


def ids_line(model: TokenizerModel, record: bytes) -> str:
    """One line of ``encode --format ids`` output, formatted from the whole line."""
    return " ".join(str(i) for i in model.encode_ids(record))


def tokens_line(model: TokenizerModel, record: bytes) -> str:
    """One line of ``encode --format tokens`` output, formatted from the whole line."""
    return " ".join(escape_token(t) for t in model.encode(record))


def decode_line(model: TokenizerModel, fmt: str, line: bytes) -> bytes:
    """One line of ``decode`` output, each field parsed and checked on its own,
    as the CLI did before it looked fields up in ``text_spans``."""
    fields = line.split()
    if fmt == "ids":
        try:
            ids = [int(f) for f in fields]
        except ValueError as exc:
            raise DataError(f"bad token id in input: {exc}") from None
        return model.decode_ids(ids) + b"\n"
    try:
        texts = [f.decode("ascii") for f in fields]
    except UnicodeDecodeError:
        raise DataError("non-ASCII byte in token input") from None
    return model.decode([unescape_token(t) for t in texts]) + b"\n"
