"""Corpus loading, labeling, pre-tokenization, and length accounting.

All text is handled as raw bytes. Pre-tokenization splits before every
ASCII-whitespace run and attaches the run to the following pre-token
(leading-space convention), so concatenating the pre-tokens of any input
restores it byte for byte. No Unicode normalization is applied.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .errors import CorpusError

# A pre-token is a whitespace run glued to the following non-whitespace run;
# a trailing whitespace run with nothing after it stands alone.
_PRETOKEN_RE = re.compile(rb"\s*\S+|\s+")


class NormUnit(str, Enum):
    """Normalization unit used as the denominator basis of compression rates."""

    BYTES = "bytes"
    CHARS = "chars"
    WORDS = "words"
    LINES = "lines"


def pretokenize(text: bytes) -> list[bytes]:
    """Split ``text`` into pre-tokens; their concatenation equals ``text``."""
    if not text:
        return []
    return _PRETOKEN_RE.findall(text)


def char_count(text: bytes) -> tuple[int, bool]:
    """Count Unicode scalar values of the UTF-8 decoding.

    Invalid UTF-8 degrades to the byte count; the second element reports
    whether that fallback happened.
    """
    try:
        return len(text.decode("utf-8")), False
    except UnicodeDecodeError:
        return len(text), True


def unit_length(text: bytes, unit: NormUnit) -> int:
    """Length of ``text`` in the given normalization unit."""
    unit = NormUnit(unit)
    if unit is NormUnit.BYTES:
        return len(text)
    if unit is NormUnit.CHARS:
        return char_count(text)[0]
    if unit is NormUnit.WORDS:
        return len(pretokenize(text))
    return len(text.splitlines())


@dataclass
class LabeledCorpus:
    """Language-labeled training text aggregated as pre-token multisets.

    ``per_language`` maps a language code to a Counter of pre-token bytes;
    ``unit_totals[lang][unit]`` holds the corpus length of that language in
    each normalization unit. ``char_fallback`` lists languages whose char
    totals fell back to byte counting on invalid UTF-8. Instances are
    treated as immutable after construction.
    """

    languages: tuple[str, ...]
    per_language: dict[str, Counter]
    unit_totals: dict[str, dict[NormUnit, int]]
    char_fallback: frozenset[str] = frozenset()

    @classmethod
    def from_multisets(cls, multisets: dict[str, dict[bytes, int]]) -> "LabeledCorpus":
        """Build a corpus directly from per-language pre-token multisets.

        Intended for programmatic construction; record/line totals are not
        available here, so the lines total is the number of word types.
        """
        if not multisets:
            raise CorpusError("empty corpus: no languages")
        languages = tuple(sorted(multisets))
        per_language: dict[str, Counter] = {}
        unit_totals: dict[str, dict[NormUnit, int]] = {}
        fallback = set()
        for lang in languages:
            words = Counter()
            for w, c in multisets[lang].items():
                if not w or c <= 0:
                    raise CorpusError(f"invalid multiset entry for {lang!r}: {w!r}:{c}")
                words[bytes(w)] += c
            if not words:
                raise CorpusError(f"empty language partition: {lang!r}")
            per_language[lang] = words
            nbytes = sum(len(w) * c for w, c in words.items())
            nchars = 0
            for w, c in words.items():
                n, fb = char_count(w)
                nchars += n * c
                if fb:
                    fallback.add(lang)
            unit_totals[lang] = {
                NormUnit.BYTES: nbytes,
                NormUnit.CHARS: nchars,
                NormUnit.WORDS: sum(words.values()),
                NormUnit.LINES: len(words),
            }
        return cls(languages, per_language, unit_totals, frozenset(fallback))


@dataclass
class ParallelDevCorpus:
    """Line-aligned multilingual corpus; line i is content-aligned across languages."""

    languages: tuple[str, ...]
    lines: dict[str, list[bytes]]
    n_lines: int = field(init=False)

    def __post_init__(self):
        counts = {lang: len(self.lines[lang]) for lang in self.languages}
        distinct = set(counts.values())
        if len(distinct) > 1:
            detail = ", ".join(f"{lang}:{n}" for lang, n in sorted(counts.items()))
            raise CorpusError(f"line-count mismatch across languages ({detail})")
        self.n_lines = distinct.pop() if distinct else 0


def load_labeled_corpus(
    manifest: str | Path, limit_per_language: int | None = None
) -> LabeledCorpus:
    """Load a labeled training corpus from a JSON manifest.

    The manifest lists ``{"languages": [{"lang": ..., "path": ...}, ...]}``
    with paths relative to the manifest. Each referenced file is JSONL with
    ``text`` and ``lang`` fields per record.
    """
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
    totals = {
        lang: {NormUnit.BYTES: 0, NormUnit.CHARS: 0, NormUnit.WORDS: 0, NormUnit.LINES: 0}
        for lang in known
    }
    n_records = {lang: 0 for lang in known}

    for lang, path in declared:
        if not path.exists():
            raise CorpusError(f"missing corpus file for {lang!r}: {path}")
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
                t[NormUnit.LINES] += 1

    for lang in known:
        if not per_language[lang]:
            raise CorpusError(f"empty language partition: {lang!r}")

    return LabeledCorpus(tuple(sorted(known)), per_language, totals)


def load_parallel_dev(directory: str | Path, languages: list[str]) -> ParallelDevCorpus:
    """Load one aligned ``<lang>.txt`` file per language from ``directory``."""
    directory = Path(directory)
    if not languages:
        raise CorpusError("no languages requested for the parallel dev corpus")
    lines: dict[str, list[bytes]] = {}
    for lang in languages:
        path = directory / f"{lang}.txt"
        if not path.exists():
            raise CorpusError(f"missing dev file for {lang!r}: {path}")
        records = []
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, 1):
                record = raw.rstrip(b"\r\n")
                if not record:
                    raise CorpusError(f"{path}:{lineno}: empty line after trimming")
                records.append(record)
        lines[lang] = records
    return ParallelDevCorpus(tuple(sorted(languages)), lines)
