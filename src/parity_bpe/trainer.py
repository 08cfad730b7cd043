"""Greedy merge learning over a tokenized corpus.

The trainer keeps every unique pre-token as a token-id sequence together
with sparse per-language multiplicities: one (language index, count) entry
per language the pre-token occurs in. Adjacent-pair counts are maintained
incrementally per language, from the pairs beside each replacement only.
Selection uses lazily-invalidated max-heaps keyed on (count, left bytes,
right bytes), so ties break deterministically on the lexicographically
smallest byte spans. Each heap is built from the live counts on its first
selection and receives updates only after that; since the key is unique per
pair, the picks do not depend on when a heap was built.

``run_merges`` is the one loop that selects, applies and logs merges, for
every training mode: global steps first, then steps chosen by a picker.
Classical training is all global steps; ``parity`` supplies the min-max
picker.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path

from . import _kernels
from .corpus import LabeledCorpus
from .errors import ConfigError, CorpusError, InternalError
from .tokenizer import TokenizerModel, escape_token, unescape_token

# Pairs occurring once are never merged; they cannot compress held-out text.
MIN_PAIR_COUNT = 2


@dataclass
class TrainStep:
    """One learned merge and the statistics that justified it."""

    step: int
    left: bytes
    right: bytes
    count: int
    mode: str  # "global" or "parity"
    lang: str | None = None
    fallback: bool = False
    skipped: list[str] = field(default_factory=list)
    cr_snapshot: dict[str, float] | None = None
    dev_tokens: dict[str, int] | None = None
    replacements: dict[str, int] | None = None

    def to_record(self) -> dict:
        rec = {
            "step": self.step,
            "left": escape_token(self.left),
            "right": escape_token(self.right),
            "count": self.count,
            "mode": self.mode,
        }
        if self.lang is not None:
            rec["lang"] = self.lang
        if self.fallback:
            rec["fallback"] = True
        if self.skipped:
            rec["skipped"] = self.skipped
        if self.cr_snapshot is not None:
            rec["cr_snapshot"] = self.cr_snapshot
        if self.dev_tokens is not None:
            rec["dev_tokens"] = self.dev_tokens
        if self.replacements is not None:
            rec["replacements"] = self.replacements
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "TrainStep":
        return cls(
            step=rec["step"],
            left=unescape_token(rec["left"]),
            right=unescape_token(rec["right"]),
            count=rec["count"],
            mode=rec["mode"],
            lang=rec.get("lang"),
            fallback=rec.get("fallback", False),
            skipped=rec.get("skipped", []),
            cr_snapshot=rec.get("cr_snapshot"),
            dev_tokens=rec.get("dev_tokens"),
            replacements=rec.get("replacements"),
        )


class TrainLog:
    """Ordered record of learned merges, one entry per merge.

    ``token_totals`` holds the per-language token totals of the reference
    corpus after the last merge (the training corpus for classical and
    no-dev training, the dev corpus for parity training). ``run_merges`` sets
    it; it is not written to the JSONL file, so a log read back has None.
    """

    def __init__(self):
        self.steps: list[TrainStep] = []
        self.stopped_early = False
        self.stop_reason: str | None = None
        self.token_totals: dict[str, int] | None = None

    def append(self, step: TrainStep) -> None:
        self.steps.append(step)

    def __len__(self):
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def __getitem__(self, i):
        return self.steps[i]

    def to_jsonl(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for step in self.steps:
                fh.write(json.dumps(step.to_record(), sort_keys=True) + "\n")

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "TrainLog":
        log = cls()
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    log.append(TrainStep.from_record(json.loads(line)))
        return log


class _WordStore:
    """Unique token sequences with sparse per-language counts and a pair index.

    ``counts[word_id]`` is a tuple of ``(lang_index, count)`` entries, one per
    language the word occurs in, in language order. Most words occur in one
    language, so the per-word loops run once per entry, not once per
    language. ``index[pair][word_id]`` is the positional occurrence count of
    the pair inside that word. ``pair_counts[pair]`` (when tracked) is the
    per-language occurrence count weighted by word multiplicity, a list of
    ``n_langs`` ints; a pair whose counts all reach zero is removed.
    ``token_totals`` tracks the per-language total token count and shrinks by
    one per replacement. An untracked store (the dev store) keeps only the
    words, the index and the token totals.
    """

    def __init__(self, n_langs: int, track_pairs: bool):
        self.n_langs = n_langs
        self.words: list[tuple[int, ...]] = []
        self.counts: list[tuple[tuple[int, int], ...]] = []
        self.index: dict[tuple[int, int], dict[int, int]] = {}
        self.pair_counts: dict[tuple[int, int], list[int]] | None = (
            {} if track_pairs else None
        )
        self.token_totals = [0] * n_langs

    def apply_merge(self, a: int, b: int, c: int):
        """Replace (a, b) with c in every word containing it.

        Returns (per-language replacement counts, per-pair count deltas). The
        deltas are per-language lists; an untracked store returns none.
        """
        n_langs = self.n_langs
        repl = [0] * n_langs
        changed: dict[tuple[int, int], list[int]] = {}
        occ_map = self.index.get((a, b))
        if not occ_map:
            return repl, changed
        index = self.index
        index_get = index.get
        changed_get = changed.get
        words = self.words
        counts = self.counts
        track = self.pair_counts is not None
        for wid in list(occ_map):
            new_tokens, n_rep, deltas = _kernels.merge_and_deltas(words[wid], a, b, c)
            if not n_rep:
                continue
            words[wid] = new_tokens
            entries = counts[wid]
            for li, cnt in entries:
                repl[li] += n_rep * cnt
            for pair, d in deltas.items():
                slot = index_get(pair)
                if slot is None:
                    index[pair] = {wid: d}
                elif d > 0:
                    slot[wid] = slot.get(wid, 0) + d
                else:
                    remaining = slot[wid] + d
                    if remaining:
                        slot[wid] = remaining
                    else:
                        del slot[wid]
                        if not slot:
                            del index[pair]
                if track:
                    acc = changed_get(pair)
                    if acc is None:
                        acc = changed[pair] = [0] * n_langs
                    for li, cnt in entries:
                        acc[li] += d * cnt
        for li in range(n_langs):
            self.token_totals[li] -= repl[li]
        pair_counts = self.pair_counts
        for pair, dvec in changed.items():
            vec = pair_counts.get(pair)
            new = list(dvec) if vec is None else [x + d for x, d in zip(vec, dvec)]
            if any(new):
                pair_counts[pair] = new
            elif vec is not None:
                del pair_counts[pair]
        return repl, changed


class TrainerState:
    """Mutable training state: vocabulary, word stores, selection heaps."""

    def __init__(
        self,
        corpus: LabeledCorpus,
        dev_words: dict[str, dict[bytes, int]] | None = None,
    ):
        if not corpus.languages:
            raise CorpusError("empty corpus: no languages")
        self.langs: list[str] = list(corpus.languages)
        self.lang_index = {lang: i for i, lang in enumerate(self.langs)}
        self.vocab: list[bytes] = [bytes([i]) for i in range(256)]
        self.first_id: dict[bytes, int] = {span: i for i, span in enumerate(self.vocab)}
        self.merges: list[tuple[bytes, bytes]] = []
        self._merged_pairs: set[tuple[bytes, bytes]] = set()

        n_langs = len(self.langs)
        self.train = _WordStore(n_langs, track_pairs=True)
        self._fill_store(self.train, {l: corpus.per_language[l] for l in self.langs})
        if not self.train.words:
            raise CorpusError("empty corpus: no pre-tokens")

        self.dev: _WordStore | None = None
        if dev_words is not None:
            missing = [l for l in self.langs if l not in dev_words]
            if missing:
                raise CorpusError(f"dev corpus missing languages: {missing}")
            self.dev = _WordStore(n_langs, track_pairs=False)
            self._fill_store(self.dev, {l: dev_words[l] for l in self.langs})

        # Each heap is built on its first selection: classical training never
        # reads a language heap, and parity training without a hybrid prelude
        # never reads the global one.
        self.global_heap: list = []
        self.lang_heaps: list[list] = [[] for _ in range(n_langs)]
        self._global_built = False
        self._built_langs: list[int] = []

    def _fill_store(self, store: _WordStore, multisets: dict[str, dict[bytes, int]]):
        """Add every word in sorted byte order, then derive the pair counts."""
        combined: dict[bytes, list[tuple[int, int]]] = {}
        for li, lang in enumerate(self.langs):
            for word, count in multisets[lang].items():
                entries = combined.get(word)
                if entries is None:
                    combined[word] = [(li, count)]
                else:
                    entries.append((li, count))
        words, counts, index = store.words, store.counts, store.index
        index_get = index.get
        token_totals = store.token_totals
        for wid, word in enumerate(sorted(combined), len(words)):
            tokens = tuple(word)
            entries = tuple(combined[word])
            words.append(tokens)
            counts.append(entries)
            for li, c in entries:
                token_totals[li] += len(tokens) * c
            for pair in zip(word, word[1:]):  # byte values are the initial ids
                slot = index_get(pair)
                if slot is None:
                    index[pair] = {wid: 1}
                elif wid in slot:
                    slot[wid] += 1
                else:
                    slot[wid] = 1
        pair_counts = store.pair_counts
        if pair_counts is None:
            return
        n_langs = store.n_langs
        for pair, slot in index.items():
            vec = pair_counts[pair] = [0] * n_langs
            for wid, occ in slot.items():
                for li, c in counts[wid]:
                    vec[li] += occ * c

    def _build_heap(self, heap: list, value_of) -> None:
        """Fill an empty heap with one entry per pair with a positive count."""
        vocab = self.vocab
        for (a, b), vec in self.train.pair_counts.items():
            count = value_of(vec)
            if count > 0:
                heap.append((-count, vocab[a], vocab[b], a, b))
        heapq.heapify(heap)

    def _push_changes(self, changed: dict[tuple[int, int], list[int]]) -> None:
        """Push the new counts of changed pairs into the heaps built so far."""
        built = [(li, self.lang_heaps[li]) for li in self._built_langs]
        if not (self._global_built or built):
            return
        pc = self.train.pair_counts
        vocab = self.vocab
        for pair, dvec in changed.items():
            vec = pc.get(pair)
            if vec is None:
                continue
            a, b = pair
            lb, rb = vocab[a], vocab[b]
            if self._global_built and any(dvec):
                heapq.heappush(self.global_heap, (-sum(vec), lb, rb, a, b))
            for li, heap in built:
                if dvec[li] and vec[li] > 0:
                    heapq.heappush(heap, (-vec[li], lb, rb, a, b))

    def _select(self, heap, value_of):
        """Pop until the top entry matches its live count; that is the argmax."""
        pc = self.train.pair_counts
        while heap:
            negc, _, _, a, b = heapq.heappop(heap)
            vec = pc.get((a, b))
            if vec is None:
                continue
            current = value_of(vec)
            if current != -negc:
                continue
            if current < MIN_PAIR_COUNT:
                return None
            return (a, b), current
        return None

    def select_global(self):
        """Best pair by summed count across languages, or None if exhausted."""
        if not self._global_built:
            self._build_heap(self.global_heap, sum)
            self._global_built = True
        return self._select(self.global_heap, sum)

    def select_for_lang(self, lang: str):
        """Best pair within one language's shard, or None if exhausted."""
        li = self.lang_index[lang]
        value_of = itemgetter(li)
        if li not in self._built_langs:
            self._build_heap(self.lang_heaps[li], value_of)
            self._built_langs.append(li)
        return self._select(self.lang_heaps[li], value_of)

    def apply(self, pair: tuple[int, int]) -> list[int]:
        """Record the merge and replace its occurrences in all stores.

        Returns the per-language replacement counts in the training store.
        """
        a, b = pair
        left, right = self.vocab[a], self.vocab[b]
        byte_pair = (left, right)
        if byte_pair in self._merged_pairs:
            raise InternalError(f"pair merged twice: {escape_token(left)!r}+{escape_token(right)!r}")
        self._merged_pairs.add(byte_pair)
        result = left + right
        canonical = self.first_id.setdefault(result, len(self.vocab))
        self.vocab.append(result)
        self.merges.append(byte_pair)

        train_repl, changed = self.train.apply_merge(a, b, canonical)
        self._push_changes(changed)
        if self.dev is not None:
            self.dev.apply_merge(a, b, canonical)
        return train_repl

    def global_pair_counts(self) -> dict[tuple[bytes, bytes], int]:
        """Summed pair counts keyed by byte spans (test/inspection view)."""
        return {
            (self.vocab[a], self.vocab[b]): sum(vec)
            for (a, b), vec in self.train.pair_counts.items()
        }

    def lang_pair_counts(self, lang: str) -> dict[tuple[bytes, bytes], int]:
        li = self.lang_index[lang]
        return {
            (self.vocab[a], self.vocab[b]): vec[li]
            for (a, b), vec in self.train.pair_counts.items()
            if vec[li]
        }

    def tokenized_words(self, store: str = "train"):
        """Yield (token byte spans, per-language counts) for inspection."""
        ws = self.train if store == "train" else self.dev
        for tokens, entries in zip(ws.words, ws.counts):
            spans = tuple(self.vocab[t] for t in tokens)
            yield spans, {self.langs[li]: c for li, c in entries if c}

    def to_model(self) -> TokenizerModel:
        return TokenizerModel(list(self.merges))


def run_merges(
    state: TrainerState,
    reference_totals: list[int],
    num_merges: int,
    global_merges: int,
    pick=None,
    dev_tokens: bool = False,
    on_step=None,
) -> tuple[TokenizerModel, TrainLog]:
    """Learn up to ``num_merges`` merges: ``global_merges`` global steps, then picked ones.

    ``pick(state)`` returns ``(selection, fields)``: the ``(pair, count)`` to
    merge, or None when no language has a pair left, and the ``TrainStep``
    fields that explain the choice. ``reference_totals`` is the live
    per-language token-total list the merges shrink; it becomes the log's
    ``token_totals``, and each record's ``dev_tokens`` when ``dev_tokens``.
    """
    langs = state.langs
    log = TrainLog()
    for k in range(1, num_merges + 1):
        if k <= global_merges:
            sel, fields = state.select_global(), {"mode": "global"}
            exhausted = "no pair"
        else:
            sel, fields = pick(state)
            exhausted = "no language has a pair"
        if sel is None:
            log.stopped_early = True
            log.stop_reason = f"{exhausted} with count >= {MIN_PAIR_COUNT} after {k - 1} merges"
            break
        pair, count = sel
        repl = state.apply(pair)
        left, right = state.merges[-1]
        record = TrainStep(
            k,
            left,
            right,
            count,
            dev_tokens=dict(zip(langs, reference_totals)) if dev_tokens else None,
            replacements=dict(zip(langs, repl)),
            **fields,
        )
        log.append(record)
        if on_step is not None:
            on_step(state, record)
    log.token_totals = dict(zip(langs, reference_totals))
    return state.to_model(), log


def check_merge_budget(num_merges: int) -> None:
    """The one rule for a merge budget, in every training mode: at least 0."""
    if num_merges < 0:
        raise ConfigError(f"merge budget must be >= 0, got {num_merges}")


def train_classical(
    corpus: LabeledCorpus, num_merges: int, on_step=None
) -> tuple[TokenizerModel, TrainLog]:
    """Greedy global BPE: repeatedly merge the highest-count adjacent pair."""
    check_merge_budget(num_merges)
    state = TrainerState(corpus)
    return run_merges(state, state.train.token_totals, num_merges, num_merges, on_step=on_step)
