"""Min-max merge learning: drive each merge from the worst-compressed language.

At every parity step the language with the lowest compression rate on the
reference corpus is selected, and the best pair inside that language's
training shard is merged. An optional moving window of the last W parity
picks ranks a language that already holds ``floor(alpha * W / L)`` of them
after every other, and picking it anyway is logged as a fallback. A language
whose shard has no pair left is skipped for the next in rank. This module
supplies that choice, as a picker for ``trainer.run_merges``: the loop
shared with classical training, which also runs the hybrid prelude's global
steps and applies and logs every merge.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .corpus import (
    LabeledCorpus,
    NormUnit,
    ParallelDevCorpus,
    check_int,
    pretokenize,
    reference_unit_totals,
)
from .errors import ConfigError, CorpusError, DataError
from .tokenizer import TokenizerModel
from .trainer import TrainerState, TrainLog, check_merge_budget, run_merges


@dataclass
class ParityConfig:
    """Knobs for min-max training, each with its rules in ``validate``.

    ``global_merges`` is the hybrid prelude length (0 for pure parity
    training; ``hybrid`` sets it from a share of the budget). ``window_size``
    W and ``alpha`` bound how often one language is picked: a language
    already holding ``floor(alpha * W / L)`` of the last W parity picks (L
    languages, ``alpha`` read as the decimal it prints as) ranks after every
    other; W 0 disables the bound. ``unit`` measures the compression rates.
    """

    total_merges: int
    global_merges: int = 0
    window_size: int = 100
    alpha: float = 2.0
    unit: NormUnit = NormUnit.LINES

    @classmethod
    def hybrid(cls, total_merges: int, split: float, **fields) -> "ParityConfig":
        """A config whose global merges are ``split`` (in [0, 1]) of ``total_merges``:
        the floor of the exact product with the decimal ``split`` prints as, so
        0.29 of 100 is 29 (the float product 28.999... would give 28)."""
        if isinstance(split, bool) or not isinstance(split, numbers.Real) or not 0 <= split <= 1:
            raise ConfigError(f"hybrid split must be in [0, 1], got {split!r}")  # nan too
        check_merge_budget(total_merges)
        return cls(total_merges, int(Fraction(str(split)) * total_merges), **fields)

    def validate(self, no_dev: bool = False) -> None:
        """Raise ``ConfigError`` for the first field of a bad type or value. ``no_dev``
        (``train_no_dev``, which measures the training corpus) requires bytes."""
        total, window, alpha = self.total_merges, self.window_size, self.alpha
        check_merge_budget(total)
        check_int(self.global_merges, "global merges")
        if not 0 <= self.global_merges <= total:
            raise ConfigError(f"global merges must be in [0, {total}], got {self.global_merges}")
        check_int(window, "window size")
        if not 0 <= window <= sys.maxsize:
            raise ConfigError(f"window size must be in [0, {sys.maxsize}], got {window}")
        if isinstance(alpha, bool) or not isinstance(alpha, numbers.Real):
            raise ConfigError(f"alpha must be a real number, got {alpha!r}")
        if not abs(alpha) <= sys.float_info.max:  # nan, inf or an int too large for a float
            raise ConfigError(f"alpha must be finite, got {alpha!r}")
        if not alpha > 0:
            raise ConfigError(f"alpha must be > 0, got {alpha!r}")
        if not isinstance(self.unit, NormUnit):
            raise ConfigError(f"unit must be a NormUnit, got {self.unit!r}")
        if no_dev and self.unit is not NormUnit.BYTES:
            raise ConfigError(f"no-dev training needs --unit bytes, got {self.unit.value}")


@dataclass
class CRTable:
    """Per-language compression bookkeeping in ratio-of-sums form.

    ``cr(lang)`` is the fixed unit total divided by the current token total;
    token totals shrink as merges are appended.
    """

    unit: NormUnit
    langs: tuple[str, ...]
    unit_totals: dict[str, int]
    token_totals: dict[str, int]

    def __post_init__(self):
        for lang in self.langs:
            if self.unit_totals.get(lang, 0) <= 0:
                raise DataError(f"zero {NormUnit(self.unit).value} total for language {lang!r}")
            if self.token_totals.get(lang, 0) <= 0:
                raise DataError(f"zero token total for language {lang!r}")

    def cr(self, lang: str) -> float:
        return self.unit_totals[lang] / self.token_totals[lang]

    def snapshot(self) -> dict[str, float]:
        return {lang: self.cr(lang) for lang in self.langs}


def compute_cr(
    dev: ParallelDevCorpus | LabeledCorpus, model: TokenizerModel, unit: NormUnit
) -> CRTable:
    """Compression-rate table of ``model`` over a reference corpus."""
    unit = NormUnit(unit)
    if isinstance(dev, ParallelDevCorpus):
        token_totals = {
            lang: sum(model.token_count(line) for line in dev.lines[lang])
            for lang in dev.languages
        }
    else:
        token_totals = {
            lang: sum(
                model.token_count(word) * count for word, count in dev.per_language[lang].items()
            )
            for lang in dev.languages
        }
    return CRTable(unit, tuple(dev.languages), reference_unit_totals(dev, unit), token_totals)


def _run_minmax(
    state: TrainerState,
    config: ParityConfig,
    unit_totals: dict[str, int],
    token_totals: list[int],
    on_step,
) -> tuple[TokenizerModel, TrainLog]:
    """Min-max training over a live reference token-total vector.

    Each parity step takes the first language in (over quota, CR, code)
    order whose shard has a pair to merge.
    """
    langs = state.langs
    # CRTable rejects a zero unit or token total, which the picker divides by.
    CRTable(config.unit, tuple(langs), unit_totals, dict(zip(langs, token_totals)))
    units = [unit_totals[lang] for lang in langs]
    window = config.window_size
    # Occupancies are integers, so one more pick passes alpha * W / L exactly
    # when the occupancy reaches this floor; str() keeps a decimal alpha exact.
    limit = math.floor(Fraction(str(config.alpha)) * window / len(langs)) if window else math.inf
    recent: deque[str] = deque()  # the last W parity picks
    occupancy: Counter = Counter()

    def pick(state: TrainerState):
        snapshot = {lang: u / t for lang, u, t in zip(langs, units, token_totals)}
        skipped: list[str] = []
        ranked = sorted((occupancy[lang] >= limit, snapshot[lang], lang) for lang in langs)
        for over, _, lang in ranked:
            sel = state.select_for_lang(lang)
            if sel is not None:
                recent.append(lang)
                occupancy[lang] += 1
                if len(recent) > window:
                    occupancy[recent.popleft()] -= 1
                return sel, dict(mode="parity", lang=lang, fallback=over,
                                 skipped=skipped, cr_snapshot=snapshot)
            skipped.append(lang)
        return None, None

    return run_merges(state, unit_totals, token_totals, config.total_merges,
                      config.global_merges, pick, on_step=on_step)


def train_parity(
    train: LabeledCorpus,
    dev: ParallelDevCorpus,
    config: ParityConfig,
    on_step=None,
) -> tuple[TokenizerModel, TrainLog]:
    """Min-max training with compression rates measured on a parallel dev set."""
    config.validate()
    missing = [lang for lang in train.languages if lang not in dev.languages]
    if missing:
        raise CorpusError(f"dev corpus missing languages: {missing}")

    # The log's totals cover the training languages; a dev-only one is not measured.
    dev = ParallelDevCorpus(train.languages, dev.lines)
    dev_words = {
        lang: Counter(chain.from_iterable(map(pretokenize, dev.lines[lang])))
        for lang in dev.languages
    }
    unit_totals = reference_unit_totals(dev, config.unit)
    state = TrainerState(train, dev_words=dev_words)
    del train, dev, dev_words  # not needed past the build (see trainer's docstring)
    return _run_minmax(state, config, unit_totals, state.train.dev_totals, on_step)


def train_no_dev(
    train: LabeledCorpus, config: ParityConfig, on_step=None
) -> tuple[TokenizerModel, TrainLog]:
    """Min-max training with byte-unit compression rates on the training corpus."""
    config.validate(no_dev=True)
    unit_totals = reference_unit_totals(train, NormUnit.BYTES)
    state = TrainerState(train)
    del train  # not needed past the build (see trainer's docstring)
    return _run_minmax(state, config, unit_totals, state.train.token_totals, on_step)
