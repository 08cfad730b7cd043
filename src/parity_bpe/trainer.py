"""Greedy merge learning over a tokenized corpus.

The trainer keeps every distinct pre-token of the training text and, for
parity training, of the dev text once, as a str of token codes, in one store
with one index keyed by pair codes (``_WordStore``). A merge is one
``TrainerState.apply``: one ``_kernels.merge_and_deltas`` call, which visits
the words listed under the pair, skips those that no longer hold it and
rewrites the others with C-level str operations, then one pass over the
pair-count deltas it returns. Pair counts come from the training text only
and are kept incrementally, from the pairs beside each replacement, in one
table per language: a merge touches the tables of the languages its words
occur in. The summed table of global selection is derived from them on its
first use and kept from then on.

Selection uses lazily-invalidated max-heaps of (count, left bytes, right
bytes) entries, so ties break on the smallest byte spans. A heap is built
on its first selection with the counts of at least ``MIN_PAIR_COUNT``, then
pushed only counts that grew; an entry above a shrunk count is re-pushed at
the live count when it reaches the top, as in Hugging Face ``tokenizers``'
BPE trainer, so the picks are those of an exact heap.

``run_merges`` is the one loop that selects, applies and logs merges, for
every training mode: global steps first, then steps chosen by a picker.
Classical training is all global steps; ``parity`` supplies the min-max
picker. Once the state is built, the training functions hold no reference
to their corpora, so a caller that hands over its only one frees the
pre-token multisets for the merge loop; a ``LogWriter`` given as ``on_step``
writes each log record as it is made, in place of the log keeping it.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import MISSING, dataclass, field, fields
from operator import sub
from pathlib import Path

from . import _kernels
from .corpus import LabeledCorpus, NormUnit, check_int, reference_unit_totals
from .errors import ConfigError, CorpusError, InternalError
from .tokenizer import TokenizerModel, escape_token, unescape_token

# Pairs occurring once are never merged; they cannot compress held-out text.
MIN_PAIR_COUNT = 2
# A merge's id is at most 255 plus the merges before it (1,113,600 merges).
MAX_MERGES = _kernels.MAX_TOKEN_ID - 255


@dataclass
class TrainStep:
    """One learned merge and the statistics that justified it.

    Its log record is its fields by name, ``left`` and ``right`` escaped
    (``escape_token``), without an optional field while it holds its default.
    """

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
        rec = vars(self).copy()
        for name, default in _OPTIONAL:
            if rec[name] == default:
                del rec[name]
        rec["left"], rec["right"] = escape_token(self.left), escape_token(self.right)
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "TrainStep":
        """The step of a record; a key that is not a field is ignored."""
        kwargs = {name: value for name, value in rec.items() if name in _NAMES}
        kwargs["left"], kwargs["right"] = unescape_token(rec["left"]), unescape_token(rec["right"])
        return cls(**kwargs)


# The record rule's tables, made once: the field names, and each optional
# field with the default that a record leaves it out at.
_NAMES = frozenset(f.name for f in fields(TrainStep))
_OPTIONAL = tuple(
    (f.name, f.default_factory() if f.default is MISSING else f.default)
    for f in fields(TrainStep)
    if f.default is not MISSING or f.default_factory is not MISSING
)


class TrainLog(list):
    """A run's ``TrainStep``s, one per merge in merge order, and how the run ended.

    ``stop_reason`` says why a run made fewer merges than its budget, and is
    None when it made them all; ``stopped_early`` follows from it.
    ``unit_totals`` and ``token_totals`` hold the per-language length, in
    the run's compression unit (bytes for classical and no-dev training),
    and the token totals after the last merge of the reference corpus: the
    training corpus for classical and no-dev training, the dev corpus for
    parity training. They give the final compression rates. ``run_merges``
    sets them; they are not written to the JSONL file, so a log read back
    has None.
    """

    stop_reason: str | None = None
    unit_totals: dict[str, int] | None = None
    token_totals: dict[str, int] | None = None

    @property
    def stopped_early(self) -> bool:
        return self.stop_reason is not None

    def to_jsonl(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            write = LogWriter(fh).write
            for step in self:
                write(step)

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "TrainLog":
        with open(path, "r", encoding="utf-8") as fh:
            return cls(TrainStep.from_record(json.loads(line)) for line in fh if line.strip())


class LogWriter:
    """Writes ``TrainStep`` records to an open text file, one JSON line each.

    A line is ``json.dumps`` of ``to_record``, keys sorted: the one rendering
    of a record, which ``TrainLog.to_jsonl`` uses too. Given as a training
    run's ``on_step``, it writes each record as the merge is made and the
    run's log stays empty (it keeps its stop reason and totals), so the
    memory a run holds does not grow with its log.
    """

    def __init__(self, fh):
        self.fh = fh

    def write(self, step: TrainStep) -> None:
        self.fh.write(json.dumps(step.to_record(), sort_keys=True) + "\n")

    def __call__(self, state: "TrainerState", step: TrainStep) -> None:
        self.write(step)


class _WordStore:
    """Each distinct training or dev pre-token once, in byte order, with one pair index.

    ``words[word_id]`` is the word as a str of token codes (``_kernels``).
    ``counts[word_id]`` is a tuple of ``(lang_index, count)`` training
    entries, one per language the word occurs in, and ``dev_counts[word_id]``
    the dev entries (None without a dev set); either may be empty, and equal
    tuples are one shared object, so per-word loops run once per entry.
    ``index[key]`` names every word holding the pair whose code str is
    ``key``: a bare word id while it names one word, as for most pairs, and a
    list of ids once it names two. Ids are added when a merge gives a word a
    pair and never removed, so a slot may name a word that has lost the
    pair, in a later merge or in the same one, or name a word twice: a visit
    to a word without the pair changes nothing. ``lang_counts[lang_index]``
    maps each pair key to its positive count in that language, weighted by
    training multiplicity; a dev-only word adds to no table. ``total_counts``
    is the summed table, None until the global heap is first built and kept
    up from then on. The counts are ints, which the cyclic garbage collector
    never tracks. ``token_totals`` and ``dev_totals`` are the per-language
    token totals of the two texts. ``TrainerState.apply`` updates the store.
    """

    def __init__(self, n_langs: int, with_dev: bool):
        self.n_langs = n_langs
        self.words: list[str] = []
        self.counts: list[tuple[tuple[int, int], ...]] = []
        self.dev_counts: list[tuple[tuple[int, int], ...]] | None = [] if with_dev else None
        self.index: dict[str, int | list[int]] = {}
        self.lang_counts: list[dict[str, int]] = [{} for _ in range(n_langs)]
        self.total_counts: dict[str, int] | None = None
        self.token_totals = [0] * n_langs
        self.dev_totals: list[int] | None = [0] * n_langs if with_dev else None

    @property
    def pair_counts(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Each pair's counts as a tuple of one count per language, built on access.

        A read-only view for code that reads the counts densely; the trainer
        reads ``lang_counts`` and ``total_counts``.
        """
        dense: dict = {}
        for li, table in enumerate(self.lang_counts):
            for key, count in table.items():
                dense.setdefault(key, [0] * self.n_langs)[li] = count
        return {_kernels.token_ids(key): tuple(vec) for key, vec in dense.items()}


def _add_counts(acc: dict, counts: dict) -> None:
    """Add each count of ``counts`` to ``acc``, key by key."""
    get = acc.get
    for key, count in counts.items():
        acc[key] = get(key, 0) + count


def _entries_by_word(multisets: list[dict[bytes, int]], shared: dict) -> dict:
    """Each word's ``(lang_index, count)`` entries, one shared tuple per distinct value."""
    by_word: dict[bytes, tuple[tuple[int, int], ...]] = {}
    get = by_word.get
    for li, multiset in enumerate(multisets):
        for word, count in multiset.items():
            entries = get(word, ()) + ((li, count),)
            by_word[word] = shared.setdefault(entries, entries)
    return by_word


class TrainerState:
    """Mutable training state: vocabulary, the word store, selection heaps."""

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
        train_sets = [corpus.per_language[l] for l in self.langs]
        if not any(train_sets):
            raise CorpusError("empty corpus: no pre-tokens")
        dev_sets = None
        if dev_words is not None:
            dev_sets = [dev_words[l] for l in self.langs]
        # The one word store, training and dev words alike; the benchmark's
        # tracer reads its pair counts under this name.
        self.train = _WordStore(n_langs, with_dev=dev_sets is not None)
        self._fill_store(train_sets, dev_sets)

        # Each heap is built on its first selection: classical training never
        # reads a language heap, and parity training without a hybrid prelude
        # never reads the global one.
        self.global_heap: list = []
        self.lang_heaps: list[list] = [[] for _ in range(n_langs)]
        self._built_langs: list[int] = []

    def _fill_store(self, train_sets: list[dict], dev_sets: list[dict] | None) -> None:
        """Add each training or dev word once, in sorted byte order, with its pairs."""
        store = self.train
        shared: dict = {}  # one object per distinct entry tuple
        train = _entries_by_word(train_sets, shared)
        dev = None
        if dev_sets is not None:
            dev = _entries_by_word(dev_sets, shared)
            for word in dev:
                train.setdefault(word, ())
        words, counts, dev_counts, index = store.words, store.counts, store.dev_counts, store.index
        index_get = index.get
        tables = store.lang_counts
        token_totals, dev_totals = store.token_totals, store.dev_totals
        codes = _kernels.BYTE_CODES
        for wid, word in enumerate(sorted(train)):
            text = word.decode("latin-1").translate(codes)
            n = len(text)
            entries = train[word]
            words.append(text)
            counts.append(entries)
            for li, c in entries:
                token_totals[li] += n * c
            if dev is not None:
                dev_entries = dev.get(word, ())
                dev_counts.append(dev_entries)
                for li, c in dev_entries:
                    dev_totals[li] += n * c
            for i in range(n - 1):
                pair = text[i : i + 2]
                slot = index_get(pair)
                if slot is None:
                    index[pair] = wid
                elif type(slot) is int:
                    if slot != wid:
                        index[pair] = [slot, wid]
                elif slot[-1] != wid:
                    slot.append(wid)
                for li, c in entries:
                    table = tables[li]
                    table[pair] = table.get(pair, 0) + c

    def _build_heap(self, heap: list, table: dict) -> None:
        """Fill an empty heap with one entry per pair of ``table`` that selection could pick."""
        vocab = self.vocab
        least, offset = MIN_PAIR_COUNT, _kernels.CODE_OFFSET
        for key, count in table.items():
            if count >= least:
                heap.append((-count, vocab[ord(key[0]) - offset], vocab[ord(key[1]) - offset]))
        heapq.heapify(heap)

    def _select(self, heap, table: dict):
        """Pop until an entry matches its pair's live count in ``table``; that is the argmax.

        Every selectable pair has an entry at or above its live count: each
        growth is pushed, a shrunk count keeps its higher entry, and a popped
        entry above a selectable live count is re-pushed at it. So no entry
        below its live count reaches the top, and as keys are unique per pair,
        an entry at its live count outranks every other pair's live key. The
        pair's ids are the first ids of its byte spans, those its words hold.
        """
        get = table.get
        first_id = self.first_id
        while heap:
            negc, lb, rb = heapq.heappop(heap)
            pair = first_id[lb], first_id[rb]
            current = get(_kernels.token_codes(pair), 0)
            if current == -negc:
                return pair, current
            if MIN_PAIR_COUNT <= current < -negc:
                heapq.heappush(heap, (-current, lb, rb))
        return None

    def select_global(self):
        """Best pair by summed count across languages, or None if exhausted."""
        store = self.train
        if store.total_counts is None:
            store.total_counts = total = {}
            for table in store.lang_counts:
                _add_counts(total, table)
            self._build_heap(self.global_heap, total)
        return self._select(self.global_heap, store.total_counts)

    def select_for_lang(self, lang: str):
        """Best pair within one language's shard, or None if exhausted."""
        li = self.lang_index[lang]
        table = self.train.lang_counts[li]
        if li not in self._built_langs:
            self._build_heap(self.lang_heaps[li], table)
            self._built_langs.append(li)
        return self._select(self.lang_heaps[li], table)

    def apply(self, pair: tuple[int, int]) -> list[int]:
        """Record the merge of an id pair, replace it in every word, update counts and heaps.

        No (a, b) is left afterwards, and none can form again, so the index
        slot and counts of its key go first. The kernel returns one delta
        table per language; each updates its language's counts and built
        heap, and once the global heap is built, their sum updates the summed
        table and heap. Returns the per-language training replacements.
        """
        a, b = pair
        vocab = self.vocab
        left, right = vocab[a], vocab[b]
        byte_pair = (left, right)
        if byte_pair in self._merged_pairs:
            raise InternalError(f"pair merged twice: {escape_token(left)!r}+{escape_token(right)!r}")
        self._merged_pairs.add(byte_pair)
        result = left + right
        canonical = self.first_id.setdefault(result, len(vocab))
        vocab.append(result)
        self.merges.append(byte_pair)

        store = self.train
        key = _kernels.token_codes(pair)
        listed = store.index.pop(key, ())
        if type(listed) is int:
            listed = (listed,)
        for table in store.lang_counts:
            table.pop(key, None)
        total = store.total_counts
        if total is not None:
            total.pop(key, None)
        changed, _, repl, dev_repl = _kernels.merge_and_deltas(store, listed, a, b, canonical)
        # in place: run_merges holds these lists as its reference totals
        store.token_totals[:] = map(sub, store.token_totals, repl)
        if store.dev_totals is not None:
            store.dev_totals[:] = map(sub, store.dev_totals, dev_repl)

        built = self._built_langs
        summed = None
        for li, deltas in enumerate(changed):
            if not deltas:
                continue
            self._add_deltas(store.lang_counts[li], deltas,
                             self.lang_heaps[li] if li in built else None)
            if summed is None:
                summed = deltas  # applied, so the sum can build up in it
            elif total is not None:
                _add_counts(summed, deltas)
        if total is not None and summed:
            self._add_deltas(total, summed, self.global_heap)
        return repl

    def _add_deltas(self, table: dict, deltas: dict, heap: list | None) -> None:
        """Add count deltas to a count table, pushing each selectable count that grew."""
        vocab = self.vocab
        least, offset = MIN_PAIR_COUNT, _kernels.CODE_OFFSET
        push = heapq.heappush
        get = table.get
        for key, d in deltas.items():
            if not d:
                continue
            count = get(key, 0) + d
            if count:
                table[key] = count
            else:
                del table[key]
            if d > 0 and heap is not None and count >= least:
                push(heap, (-count, vocab[ord(key[0]) - offset], vocab[ord(key[1]) - offset]))

    def to_model(self) -> TokenizerModel:
        return TokenizerModel(list(self.merges))


def run_merges(
    state: TrainerState,
    unit_totals: dict[str, int],
    reference_totals: list[int],
    num_merges: int,
    global_merges: int,
    pick=None,
    on_step=None,
) -> tuple[TokenizerModel, TrainLog]:
    """Learn up to ``num_merges`` merges: ``global_merges`` global steps, then picked ones.

    ``pick(state)`` returns ``(selection, fields)``: the ``(pair, count)`` to
    merge, or None when no language has a pair left, and the ``TrainStep``
    fields that explain the choice. ``reference_totals`` is the live
    per-language token-total list the merges shrink; it becomes the log's
    ``token_totals``, and each record's ``dev_tokens`` when there is a picker.
    ``unit_totals`` is the reference corpus's length, the log's
    ``unit_totals``. ``on_step(state, record)`` sees each record once it is
    made; the log keeps the record unless ``on_step`` is a ``LogWriter``.
    """
    langs = state.langs
    dev_tokens = pick is not None
    keep_steps = not isinstance(on_step, LogWriter)
    log = TrainLog()
    for k in range(1, num_merges + 1):
        if k <= global_merges:
            sel, step_fields = state.select_global(), {"mode": "global"}
            exhausted = "no pair"
        else:
            sel, step_fields = pick(state)
            exhausted = "no language has a pair"
        if sel is None:
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
            **step_fields,
        )
        if keep_steps:
            log.append(record)
        if on_step is not None:
            on_step(state, record)
    log.unit_totals = unit_totals
    log.token_totals = dict(zip(langs, reference_totals))
    return state.to_model(), log


def check_merge_budget(num_merges: int) -> None:
    """The one rule for a merge budget, in every training mode: an int in [0,
    ``MAX_MERGES``], so that every id has a code point (``_kernels.CODE_OFFSET``)."""
    check_int(num_merges, "merge budget")
    if num_merges < 0:
        raise ConfigError(f"merge budget must be >= 0, got {num_merges}")
    if num_merges > MAX_MERGES:
        raise ConfigError(f"merge budget must be at most {MAX_MERGES}, got {num_merges}")


def train_classical(
    corpus: LabeledCorpus, num_merges: int, on_step=None
) -> tuple[TokenizerModel, TrainLog]:
    """Greedy global BPE: repeatedly merge the highest-count adjacent pair."""
    check_merge_budget(num_merges)
    unit_totals = reference_unit_totals(corpus, NormUnit.BYTES)
    state = TrainerState(corpus)
    del corpus  # not needed past the build (see the module docstring)
    return run_merges(state, unit_totals, state.train.token_totals, num_merges, num_merges,
                      on_step=on_step)
