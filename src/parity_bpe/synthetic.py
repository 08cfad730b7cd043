"""Deterministic synthetic multilingual corpus generator.

Each language gets a disjoint byte alphabet and a Zipf-distributed word
inventory. Training files are independent per language; dev files are
line-aligned renderings of shared message index sequences, so line i is the
same "content" expressed in every language's inventory.

The output is a pure function of (spec, seed), across versions too: the same
spec and seed give byte-identical files and stats. Each language's training
lines draw from ``random.Random(f"{seed}/{code}/train")`` and the dev
messages from ``random.Random(f"{seed}/dev")``. A line draws one
``randint(low, high)`` for its word count ``n``, then ``n`` ``random()``
values, each scaled by the total Zipf weight and bisected into the
cumulative weights to pick a word. A language draws training lines until
their text bytes reach its proportion of ``total_train_bytes``.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, fields
from itertools import islice, product, repeat, starmap
from pathlib import Path

from .corpus import check_int
from .errors import ConfigError, DataError

# Pool of ASCII characters carved into disjoint per-language alphabets.
_ALPHABET_POOL = (
    "abcdefghijklmnopqrstuvwxyz"
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    "0123456789"
    "!#$%&'()*+,-./:;<=>?@"
)
_ALPHABET_SIZE = 13
# Ceilings far above any desk-scale corpus: a spec above one is rejected
# before the word inventory, the dev messages or the training files are built.
MAX_VOCAB_SIZE = 10**6
MAX_DEV_LINES = 10**6
MAX_TRAIN_BYTES = 10**10
MAX_WORDS_PER_LINE = 10**4  # a line draws its words in one list


@dataclass
class SyntheticLanguage:
    code: str
    alphabet: str


@dataclass
class SyntheticSpec:
    """Mixture description consumed by :func:`generate_synthetic`."""

    languages: list[SyntheticLanguage]
    proportions: list[float]
    dev_lines: int = 100
    total_train_bytes: int = 600_000
    vocab_size: int = 400
    zipf_exponent: float = 1.1
    words_per_line: tuple[int, int] = (6, 12)

    @classmethod
    def default(cls, codes: list[str], proportions: list[float], **kwargs) -> "SyntheticSpec":
        """Assign disjoint ASCII alphabets to ``codes`` automatically; ``kwargs``
        set the other fields, which keep their defaults when not given."""
        if len(codes) * _ALPHABET_SIZE > len(_ALPHABET_POOL):
            raise ConfigError(
                f"at most {len(_ALPHABET_POOL) // _ALPHABET_SIZE} languages "
                "supported with auto-assigned alphabets"
            )
        langs = [
            SyntheticLanguage(code, _ALPHABET_POOL[i * _ALPHABET_SIZE : (i + 1) * _ALPHABET_SIZE])
            for i, code in enumerate(codes)
        ]
        return cls(langs, proportions, **kwargs)

    def validate(self) -> list[float]:
        """Raise ``ConfigError`` for a spec that cannot be generated, library
        and JSON specs alike: the integer fields take an ``int`` and the real
        ones an ``int`` or ``float``, never a ``bool``.

        Returns the cumulative Zipf weights of the word inventory, the table
        every line's draws bisect.
        """
        if not all(isinstance(v, (list, tuple)) for v in (self.languages, self.proportions)):
            raise ConfigError("languages and proportions must be lists")
        if not all(isinstance(l, SyntheticLanguage) and isinstance(l.alphabet, str)
                   for l in self.languages):
            raise ConfigError(
                "a language is a SyntheticLanguage with a string alphabet (in a JSON spec, "
                "a code or an object with string 'code' and 'alphabet')"
            )
        pair = self.words_per_line
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
            raise ConfigError("words_per_line must be a (low, high) pair with 1 <= low <= high")
        for name, value in [("dev_lines", self.dev_lines), ("vocab_size", self.vocab_size),
                            ("words_per_line low", pair[0]), ("words_per_line high", pair[1])]:
            check_int(value, name)
        numbers = (self.total_train_bytes, self.zipf_exponent, *self.proportions)
        if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in numbers):
            raise ConfigError("total_train_bytes, zipf_exponent and proportions must be numbers")
        try:  # an int too large for a float overflows where generation meets one
            for v in (self.total_train_bytes, *self.proportions):
                float(v)
        except OverflowError:
            raise ConfigError("total_train_bytes and proportions must fit in a float") from None
        if not self.languages:
            raise ConfigError("synthetic spec lists no languages")
        if len(self.proportions) != len(self.languages):
            raise ConfigError("one proportion required per language")
        if not all(p > 0 for p in self.proportions):  # also rejects nan
            raise ConfigError("proportions must be positive")
        if abs(sum(self.proportions) - 1.0) > 1e-9:
            raise ConfigError(f"proportions must sum to 1 (got {sum(self.proportions)!r})")
        codes = [l.code for l in self.languages]
        for code in codes:  # each names train/<code>.jsonl and dev/<code>.txt
            if not isinstance(code, str) or code in ("", ".", "..") or "/" in code or "\0" in code:
                raise ConfigError(
                    f"language code {code!r} cannot name a file: it must be a non-empty "
                    "string other than '.' and '..', without '/' or NUL"
                )
        if len(set(codes)) != len(codes):
            raise ConfigError("duplicate language codes")
        byte_sets = []
        for lang in self.languages:
            if not lang.alphabet:
                raise ConfigError(f"empty alphabet for {lang.code!r}")
            bs = set(lang.alphabet.encode("utf-8"))
            if 0x20 in bs or any(b in bs for b in b"\t\n\r\x0b\x0c"):
                raise ConfigError(f"alphabet for {lang.code!r} contains whitespace")
            byte_sets.append((lang.code, bs))
        for i, (code_a, a) in enumerate(byte_sets):
            for code_b, b in byte_sets[i + 1 :]:
                if a & b:
                    raise ConfigError(
                        f"overlapping alphabets: {code_a!r} and {code_b!r} share bytes"
                    )
        # not > 0 also rejects a nan total, which would write no training text
        if self.dev_lines < 0 or self.vocab_size < 2 or not self.total_train_bytes > 0:
            raise ConfigError("dev_lines, vocab_size, and total_train_bytes must be positive")
        for name, value, ceiling in [
            ("dev_lines", self.dev_lines, MAX_DEV_LINES),
            ("vocab_size", self.vocab_size, MAX_VOCAB_SIZE),
            ("total_train_bytes", self.total_train_bytes, MAX_TRAIN_BYTES),
        ]:
            if value > ceiling:
                raise ConfigError(f"{name} must be at most {ceiling}")
        if not 1 <= pair[0] <= pair[1]:
            raise ConfigError("words_per_line must be a (low, high) pair with 1 <= low <= high")
        if pair[1] > MAX_WORDS_PER_LINE:
            raise ConfigError(f"words_per_line must be at most {MAX_WORDS_PER_LINE}")
        exponent = self.zipf_exponent
        cum = None
        try:  # json.loads reads NaN and Infinity; a huge exponent overflows a weight
            if math.isfinite(exponent):
                cum = _zipf_cumweights(self.vocab_size, exponent)
        except (OverflowError, ZeroDivisionError):
            pass
        if cum is None or not math.isfinite(cum[-1]):
            raise ConfigError(
                f"zipf_exponent must be finite and give {self.vocab_size} finite Zipf "
                f"weights, got {exponent!r}"
            )
        return cum

    @classmethod
    def from_json(cls, path: str | Path) -> "SyntheticSpec":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise DataError(f"cannot read synthetic spec {path}: {exc.strerror or exc}") from None
        except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON or too deep
            raise DataError(f"malformed synthetic spec {path}: {exc}") from None
        if not isinstance(data, dict) or "proportions" not in data:
            raise ConfigError(f"synthetic spec {path} must be a JSON object with 'proportions'")
        unknown = data.keys() - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"synthetic spec {path}: unknown config keys: {sorted(unknown)}")
        langs, proportions = data.get("languages", []), data["proportions"]
        if isinstance(langs, list) and all(isinstance(l, str) for l in langs):
            spec = cls.default(langs, proportions)
        else:  # an object is a language; validate rejects any other value
            if isinstance(langs, list):
                langs = [SyntheticLanguage(l.get("code"), l.get("alphabet"))
                         if isinstance(l, dict) else l for l in langs]
            spec = cls(langs, proportions)
        for key in data.keys() - {"languages", "proportions"}:
            setattr(spec, key, data[key])  # validate checks each value
        return spec


def _word_inventory(alphabet: str, size: int) -> list[str]:
    """Enumerate ``size`` words over ``alphabet``, shortest first."""
    words = []
    length = 2
    while len(words) < size:
        needed = size - len(words)
        words.extend(map("".join, islice(product(alphabet, repeat=length), needed)))
        length += 1
    return words


def _zipf_cumweights(n: int, exponent: float) -> list[float]:
    acc, out = 0.0, []
    for i in range(n):
        acc += 1.0 / (i + 1) ** exponent
        out.append(acc)
    return out


class _MessageSampler:
    """Samples word-index sequences from a Zipf distribution."""

    def __init__(self, rng: random.Random, cum: list[float], words_per_line: tuple[int, int]):
        self._rng = rng
        self._cum = cum
        self._total = cum[-1]
        self._lo, self._hi = words_per_line

    def line_indices(self) -> list[int]:
        """One ``randint`` for the length ``n``, then ``n`` ``random()`` draws."""
        rng = self._rng
        n = rng.randint(self._lo, self._hi)
        # bisect_right(cum, random() * total) per word, in C iterators
        draws = map(self._total.__mul__, starmap(rng.random, repeat((), n)))
        return list(map(bisect_right, repeat(self._cum, n), draws))


def generate_synthetic(spec: SyntheticSpec, seed: int, out_dir: str | Path) -> dict:
    """Write a labeled training corpus plus an aligned dev corpus.

    Emits ``train/<lang>.jsonl``, ``dev/<lang>.txt``, ``synth_stats.json``
    and, last, ``manifest.json`` under ``out_dir``, after removing the stats
    and manifest of an earlier run: a run that fails leaves no manifest. Pure
    function of (spec, seed), across versions too: repeated runs produce
    byte-identical files. Returns the stats dict.
    """
    cum = spec.validate()
    out_dir = Path(out_dir)
    manifest_path, stats_path = out_dir / "manifest.json", out_dir / "synth_stats.json"
    manifest_path.unlink(missing_ok=True)
    stats_path.unlink(missing_ok=True)
    (out_dir / "train").mkdir(parents=True, exist_ok=True)
    (out_dir / "dev").mkdir(parents=True, exist_ok=True)

    inventories = {
        lang.code: _word_inventory(lang.alphabet, spec.vocab_size) for lang in spec.languages
    }
    stats: dict = {"seed": seed, "languages": {}, "dev_lines": spec.dev_lines}

    manifest = {"languages": []}
    for lang, proportion in zip(spec.languages, spec.proportions):
        target = proportion * spec.total_train_bytes
        sampler = _MessageSampler(
            random.Random(f"{seed}/{lang.code}/train"), cum, spec.words_per_line
        )
        word = inventories[lang.code].__getitem__
        # json.dumps of the dict {"text": text, "lang": code}, with its
        # default separators and ASCII escapes, but only the text escaped per line
        tail = ', "lang": ' + json.dumps(lang.code) + "}\n"
        path = out_dir / "train" / f"{lang.code}.jsonl"
        emitted_bytes = 0
        emitted_lines = 0
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            while emitted_bytes < target:
                text = " ".join(map(word, sampler.line_indices()))
                fh.write('{"text": ' + json.dumps(text) + tail)
                emitted_bytes += len(text.encode("utf-8"))
                emitted_lines += 1
        manifest["languages"].append({"lang": lang.code, "path": f"train/{lang.code}.jsonl"})
        stats["languages"][lang.code] = {
            "proportion": proportion,
            "train_text_bytes": emitted_bytes,
            "train_lines": emitted_lines,
        }

    dev_sampler = _MessageSampler(random.Random(f"{seed}/dev"), cum, spec.words_per_line)
    messages = [dev_sampler.line_indices() for _ in range(spec.dev_lines)]
    for lang in spec.languages:
        word = inventories[lang.code].__getitem__
        path = out_dir / "dev" / f"{lang.code}.txt"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for indices in messages:
                fh.write(" ".join(map(word, indices)) + "\n")

    stats_path.write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return stats
