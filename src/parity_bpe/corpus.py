r"""Corpus loading, labeling, pre-tokenization, and length accounting.

All text is handled as raw bytes. Pre-tokenization splits before every
ASCII-whitespace run and attaches the run to the following pre-token
(leading-space convention), so concatenating the pre-tokens of any input
restores it byte for byte. No Unicode normalization is applied.

A labeled training file is read once. Its bytes are split on ``\n`` and
each line, stripped of ASCII whitespace by ``bytes.strip``, is decoded
(UTF-8, surrogates passed through, as ``json.loads`` decodes bytes) and
parsed in place by ``JSONDecoder.raw_decode``. A line that this rejects,
because it is not UTF-8 or its value does not fill it, is parsed again on
its own by ``json.loads`` of its bytes: that either returns what the
per-line loader reads there (a line led by a UTF-8 byte-order mark, say)
or raises that loader's error, as a ``CorpusError`` with ``path:lineno``.
Pre-tokens are counted with one ``Counter`` per language.

Every loader reads each file once and records the :func:`digest` of the
bytes it read, so a recorded digest names the data that was loaded even if
the file changes later.
"""

from __future__ import annotations

import io
import json
import os
import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from pathlib import Path

from .errors import ConfigError, CorpusError

# A pre-token is a whitespace run glued to the following non-whitespace run;
# a trailing whitespace run with nothing after it stands alone.
_PRETOKEN_RE = re.compile(rb"\s*\S+|\s+")
_DECODER = json.JSONDecoder()


def digest(data: bytes) -> str:
    """The digest an input is recorded under: the first 16 hex digits of its sha256.

    ``hashlib`` is imported on the first call, not with the package: it maps
    OpenSSL's libcrypto (about 3.7 MB of peak RSS), which ``encode`` and
    ``decode`` never need.
    """
    import hashlib

    return hashlib.sha256(data).hexdigest()[:16]


def check_int(value, name: str) -> None:
    """Raise ``ConfigError`` unless ``value`` is an ``int`` and not a ``bool``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def check_limit_per_language(limit, name: str = "limit_per_language") -> None:
    """The one rule for a per-language record limit: None (no limit), or an
    ``int`` that is not a ``bool`` and is at least 1. ``name`` is the limit's
    name in the ``ConfigError`` raised otherwise."""
    if limit is not None:
        check_int(limit, name)
        if limit < 1:
            raise ConfigError(f"{name} must be >= 1, got {limit}")


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


def line_count(text: bytes) -> int:
    r"""Count the lines of ``text``: they end at ``\n`` only, as every line
    reader in the package splits. They are the pieces of ``text.split(b"\n")``
    but the empty one after a final ``\n``, so a dev record is one line and
    empty text has none."""
    return text.count(b"\n") + (not text.endswith(b"\n")) if text else 0


# The one rule for a length in each unit.
_LENGTHS = {
    NormUnit.BYTES: len,
    NormUnit.CHARS: lambda text: char_count(text)[0],
    NormUnit.WORDS: lambda text: len(pretokenize(text)),
    NormUnit.LINES: line_count,
}


def unit_length(text: bytes, unit: NormUnit) -> int:
    """Length of ``text`` in the given normalization unit."""
    return _LENGTHS[NormUnit(unit)](text)


@dataclass
class LabeledCorpus:
    """Language-labeled training text aggregated as pre-token multisets.

    ``per_language`` maps a language code to a Counter of pre-token bytes;
    ``digests[lang]`` is the :func:`digest` of the file the manifest names
    for that language, as it was read (empty for a corpus not read from
    files). Its lengths are derived by :func:`reference_unit_totals`.
    Instances are treated as immutable after construction.
    """

    languages: tuple[str, ...]
    per_language: dict[str, Counter]
    digests: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_multisets(cls, multisets: dict[str, dict[bytes, int]]) -> "LabeledCorpus":
        """Build a corpus directly from per-language pre-token multisets."""
        if not multisets:
            raise CorpusError("empty corpus: no languages")
        languages = tuple(sorted(multisets))
        per_language: dict[str, Counter] = {}
        for lang in languages:
            words = Counter()
            for w, c in multisets[lang].items():
                if not w or c <= 0:
                    raise CorpusError(f"invalid multiset entry for {lang!r}: {w!r}:{c}")
                words[bytes(w)] += c
            if not words:
                raise CorpusError(f"empty language partition: {lang!r}")
            per_language[lang] = words
        return cls(languages, per_language)


@dataclass
class ParallelDevCorpus:
    """Line-aligned multilingual corpus; line i is content-aligned across languages.

    ``digests[lang]`` is the :func:`digest` of that language's file as it
    was read (empty for a corpus not read from files).
    """

    languages: tuple[str, ...]
    lines: dict[str, list[bytes]]
    digests: dict[str, str] = field(default_factory=dict)
    n_lines: int = field(init=False)

    def __post_init__(self):
        counts = {lang: len(self.lines[lang]) for lang in self.languages}
        distinct = set(counts.values())
        if len(distinct) > 1:
            detail = ", ".join(f"{lang}:{n}" for lang, n in sorted(counts.items()))
            raise CorpusError(f"line-count mismatch across languages ({detail})")
        self.n_lines = distinct.pop() if distinct else 0


def reference_unit_totals(
    reference: ParallelDevCorpus | LabeledCorpus, unit: NormUnit
) -> dict[str, int]:
    """Length of each language of a reference corpus in ``unit``.

    A labeled corpus keeps only its pre-token counts. Pre-tokens split at
    ASCII whitespace, so its bytes, chars and words add up across them; it
    keeps no record boundaries, so asking it for lines raises ``ConfigError``.
    """
    unit = NormUnit(unit)
    length = _LENGTHS[unit]
    if isinstance(reference, ParallelDevCorpus):
        return {lang: sum(map(length, reference.lines[lang])) for lang in reference.languages}
    if unit is NormUnit.LINES:
        raise ConfigError("a labeled corpus has no line totals: use bytes, chars or words")
    return {
        lang: sum(length(w) * c for w, c in reference.per_language[lang].items())
        for lang in reference.languages
    }


@dataclass(frozen=True)
class Manifest:
    """A corpus manifest as read: its path, its ``(lang, path)`` entries in
    file order, and the :func:`digest` of its bytes.

    It is path-like (``os.fspath`` gives its path), so it stands wherever the
    manifest's path does, and :func:`load_labeled_corpus` takes it in place of
    reading the file again.
    """

    path: Path
    entries: tuple[tuple[str, Path], ...]
    digest: str

    def __fspath__(self) -> str:
        return os.fspath(self.path)


def read_manifest(manifest: str | Path) -> Manifest:
    """Read a corpus manifest once.

    The manifest is ``{"languages": [{"lang": ..., "path": ...}, ...]}``
    with paths relative to the manifest and no language listed twice.
    """
    manifest = Path(manifest)
    try:
        data = manifest.read_bytes()
    except FileNotFoundError:
        raise CorpusError(f"manifest not found: {manifest}") from None
    try:
        spec = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON or too deep
        raise CorpusError(f"malformed manifest {manifest}: {exc}") from None
    if not isinstance(spec, dict):
        raise CorpusError(f"manifest {manifest} must be a JSON object")

    entries = spec.get("languages")
    if not isinstance(entries, list) or not entries:
        raise CorpusError(f"manifest {manifest} lists no languages")
    declared: list[tuple[str, Path]] = []
    seen = set()
    for entry in entries:
        if not isinstance(entry, dict):
            raise CorpusError(f"manifest {manifest}: bad language entry {entry!r}")
        lang, path = entry.get("lang"), entry.get("path")
        if not lang or not isinstance(lang, str) or not path or not isinstance(path, str):
            raise CorpusError(f"manifest {manifest}: bad language entry {entry!r}")
        if lang in seen:
            raise CorpusError(f"manifest {manifest}: duplicate language {lang!r}")
        seen.add(lang)
        declared.append((lang, manifest.parent / path))
    return Manifest(manifest, tuple(declared), digest(data))


def load_labeled_corpus(
    manifest: str | Path | Manifest, limit_per_language: int | None = None
) -> LabeledCorpus:
    """Load a labeled training corpus from a JSON manifest (see :func:`read_manifest`).

    ``manifest`` is the manifest's path, or the :class:`Manifest` already
    read from it. Each file the manifest names is JSONL with ``text`` and
    ``lang`` fields per record. A file that several entries name, however
    spelled (by ``os.path.realpath``), is read and counted once, and each of
    those languages records its digest. ``limit_per_language`` keeps at
    most that many records per language; :func:`check_limit_per_language`
    checks it before the manifest is read.
    """
    check_limit_per_language(limit_per_language)
    if not isinstance(manifest, Manifest):
        manifest = read_manifest(manifest)
    declared = manifest.entries
    known = {lang for lang, _ in declared}
    per_language: dict[str, Counter] = {lang: Counter() for lang in known}
    n_records = {lang: 0 for lang in known}
    digests = {}
    read: dict[str, str] = {}  # the digest of each file read, by real path

    for lang, path in declared:
        if not path.exists():
            raise CorpusError(f"missing corpus file for {lang!r}: {path}")
        real = os.path.realpath(path)
        if real in read:  # named by an earlier entry: its records are counted
            digests[lang] = read[real]
            continue
        kept, digests[lang] = _read_records(path, known, n_records, limit_per_language)
        read[real] = digests[lang]
        for rec_lang, texts in kept.items():
            per_language[rec_lang].update(chain.from_iterable(map(_PRETOKEN_RE.findall, texts)))
            n_records[rec_lang] += len(texts)

    for lang, _ in declared:  # manifest order: the first empty one is named
        if not per_language[lang]:
            raise CorpusError(f"empty language partition: {lang!r}")

    return LabeledCorpus(tuple(sorted(known)), per_language, digests)


def _read_records(
    path: Path, known: set[str], n_records: dict[str, int], limit: int | None
) -> tuple[dict[str, list[bytes]], str]:
    """The records one file adds, as UTF-8 texts per language, and the
    file's :func:`digest`.

    The file is read once and raises at its first bad line. ``n_records``
    counts what earlier files kept; it is read, not changed.
    """
    kept: dict[str, list[bytes]] = {lang: [] for lang in known}
    data = path.read_bytes()
    read_digest, lines = digest(data), data.split(b"\n")
    del data  # the lines hold its text; the whole file need not stay beside them
    for lineno, raw in enumerate(lines, 1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            try:  # in place; what this rejects, json.loads of the bytes decides
                line = raw.decode("utf-8", "surrogatepass")
                record, end = _DECODER.raw_decode(line)
                if end != len(line):
                    raise ValueError
            except ValueError:
                record = json.loads(raw)
            text, rec_lang = record["text"], record["lang"]
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise CorpusError(f"{path}:{lineno}: malformed record ({exc})") from None
        if not isinstance(text, str) or not isinstance(rec_lang, str):
            raise CorpusError(f"{path}:{lineno}: text and lang must be strings")
        if rec_lang not in known:
            raise CorpusError(f"{path}:{lineno}: unknown language {rec_lang!r} not in manifest")
        texts = kept[rec_lang]
        if limit is not None and n_records[rec_lang] + len(texts) >= limit:
            continue
        try:
            texts.append(text.encode("utf-8"))
        except UnicodeEncodeError as exc:
            raise CorpusError(f"{path}:{lineno}: invalid text ({exc})") from None
    return kept, read_digest


def load_parallel_dev(directory: str | Path, languages: list[str]) -> ParallelDevCorpus:
    """Load one aligned ``<lang>.txt`` file per language from ``directory``."""
    directory = Path(directory)
    if not languages:
        raise CorpusError("no languages requested for the parallel dev corpus")
    lines: dict[str, list[bytes]] = {}
    digests: dict[str, str] = {}
    for lang in languages:
        path = directory / f"{lang}.txt"
        if not path.exists():
            raise CorpusError(f"missing dev file for {lang!r}: {path}")
        data = path.read_bytes()
        records = []
        for lineno, raw in enumerate(io.BytesIO(data), 1):  # the lines a binary file yields
            record = raw.rstrip(b"\r\n")
            if not record:
                raise CorpusError(f"{path}:{lineno}: empty line after trimming")
            records.append(record)
        lines[lang] = records
        digests[lang] = digest(data)
    return ParallelDevCorpus(tuple(sorted(languages)), lines, digests)
