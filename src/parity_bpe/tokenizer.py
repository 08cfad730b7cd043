"""The tokenizer triple: vocabulary, deterministic encode, concatenative decode.

A model is fully determined by its ordered merge list. The vocabulary is the
256 singleton bytes plus each merge's concatenated result; encoding applies
merges by ascending rank inside each pre-token and never crosses pre-token
boundaries. Decoding is byte concatenation, so round-trips are lossless for
arbitrary byte input.

The text of a token id in either output format is defined once, by
``TokenizerModel._id_text``: ``text_cache`` renders encode output from it and
``text_spans`` maps it back to bytes for decode.

A byte is *inert* when no vocabulary token of two or more bytes holds it.
Every merge result is such a token, so no merge joins an inert byte to a
neighbour, and a pre-token's tokens are those of its *runs* in order: its
inert bytes one by one, and the maximal inert-free stretches between them.
``run_splitter`` splits a line into runs.
"""

from __future__ import annotations

import re
from functools import partial
from pathlib import Path
from sys import getsizeof

from . import _kernels
from .corpus import digest, pretokenize
from .errors import ModelFormatError

MODEL_HEADER = "parity-bpe v1"
# Bytes a word cache's keys and values (``sys.getsizeof``) may hold before it
# starts over: above the distinct pre-tokens of a few MB of text, so only a
# long stream of new or long words ever clears it. The id cache is keyed on
# pre-tokens, which random bytes keep new; its values are id lists.
# ``encode``'s text cache is keyed on runs, and random bytes are mostly inert
# single-byte runs, so there only long lines of active bytes fill it; its
# values are ASCII bytes. A cache holds at most this plus its table.
WORD_CACHE_BYTES = 1 << 24

_PRINTABLE = frozenset(range(0x21, 0x7F)) - {0x5C}  # visible ASCII minus backslash
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
# The bytes ``\s`` matches in a bytes pattern, before which ``pretokenize``
# splits; ``tests/test_tokenizer.py::TestRuns`` checks that the two agree.
_WHITESPACE = frozenset(b" \t\n\r\x0b\x0c")


def escape_token(token: bytes) -> str:
    """Escape a byte span for the text model format (\\xHH for non-printables)."""
    return "".join(chr(b) if b in _PRINTABLE else f"\\x{b:02x}" for b in token)


def unescape_token(text: str) -> bytes:
    """Inverse of :func:`escape_token`; raises on malformed escapes."""
    out = bytearray()
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\\":
            digits = text[i + 2 : i + 4]
            # exactly two hex digits: int() alone takes "+1", " 1" and "1 "
            if (text[i + 1 : i + 2] != "x" or len(digits) != 2
                    or not _HEX_DIGITS.issuperset(digits)):
                raise ModelFormatError(f"malformed escape in token {text!r}")
            out.append(int(digits, 16))
            i += 4
        else:
            code = ord(ch)
            if code not in _PRINTABLE:
                raise ModelFormatError(f"unescaped byte {code:#x} in token {text!r}")
            out.append(code)
            i += 1
    return bytes(out)


def _byte_class(values) -> bytes:
    """A regex class of the byte values ``values``, consecutive ones as ranges.

    The class of no value matches nothing.
    """
    if not values:
        return rb"[^\x00-\xff]"
    ranges = []
    for b in sorted(values):
        if ranges and ranges[-1][1] == b - 1:
            ranges[-1][1] = b
        else:
            ranges.append([b, b])
    return b"[" + b"".join(b"\\x%02x-\\x%02x" % (lo, hi) for lo, hi in ranges) + b"]"


def _kernel_encode(table: dict, word: bytes) -> list[int]:
    return _kernels.encode_ids(word, table)


class _WordCache(dict):
    """Pre-token -> ``compute(pre-token)``, computed on first lookup.

    ``held`` is the summed ``sys.getsizeof`` of the keys and values stored.
    A miss computes its value first. An entry larger than
    :data:`WORD_CACHE_BYTES` on its own is returned and neither stored nor
    allowed to clear the cache; otherwise, if storing it would take ``held``
    past the budget, the cache is cleared before the store. So the keys and
    values never hold more than the budget; the dict's own table, not
    counted, adds at most about 55 bytes per entry.
    """

    __slots__ = ("_compute", "held")

    def __init__(self, compute):
        super().__init__()
        self._compute = compute
        self.held = 0

    def __missing__(self, word: bytes):
        value = self._compute(word)
        # A bytes key has no GC header, so its __sizeof__ is its getsizeof,
        # without getsizeof's argument parsing (about 0.1 us a miss).
        size = word.__sizeof__() + getsizeof(value)
        if self.held + size > WORD_CACHE_BYTES:
            if size > WORD_CACHE_BYTES:
                return value
            self.clear()
            self.held = 0
        self[word] = value
        self.held += size
        return value


class TokenizerModel:
    """Immutable byte-level BPE model built from an ordered merge list.

    Token ids follow model order: ids 0-255 are the singleton bytes, id
    256+k is the result of merge k. When two merges produce identical bytes
    the earliest id is the canonical one and is the only id emitted by
    ``encode_ids``. :attr:`file_digest` names the file :meth:`load` read
    the model from.
    """

    def __init__(self, merges: list[tuple[bytes, bytes]]):
        vocab = [bytes([i]) for i in range(256)]
        first_id = {span: i for i, span in enumerate(vocab)}
        table: dict[tuple[int, int], tuple[int, int]] = {}
        seen: set[tuple[bytes, bytes]] = set()
        for k, (left, right) in enumerate(merges):
            for operand in (left, right):
                if not operand:
                    raise ModelFormatError(f"merge {k}: empty operand")
                if operand not in first_id:
                    raise ModelFormatError(
                        f"merge {k}: operand not producible: {escape_token(operand)!r}"
                    )
            pair = (left, right)
            if pair in seen:
                raise ModelFormatError(
                    f"merge {k}: duplicate pair "
                    f"{escape_token(left)!r} + {escape_token(right)!r}"
                )
            result = left + right
            vocab.append(result)
            first_id.setdefault(result, 256 + k)
            seen.add(pair)
            table[(first_id[left], first_id[right])] = (k, first_id[result])

        self.merges: tuple[tuple[bytes, bytes], ...] = tuple(merges)
        self.id_to_bytes: tuple[bytes, ...] = tuple(vocab)
        self.vocabulary: frozenset[bytes] = frozenset(vocab)
        self._table = table
        # a partial, not a bound method: no reference cycle through the model
        self._word_cache = _WordCache(partial(_kernel_encode, table))
        self._run_findall = None
        self._file_bytes: bytes | None = None

    @property
    def file_digest(self) -> str | None:
        """The ``corpus.digest`` of the bytes :meth:`load` parsed, or None for a
        model built in memory. It is computed when read, from the bytes kept at
        load, so it names them even if the file changes later, and a command
        that never reads it (``encode``, ``decode``) never loads ``hashlib``."""
        return None if self._file_bytes is None else digest(self._file_bytes)

    @property
    def vocab_size(self) -> int:
        """Number of distinct byte spans in the vocabulary."""
        return len(self.vocabulary)

    def encode_ids(self, text: bytes) -> list[int]:
        """Tokenize ``text`` into canonical token ids: :meth:`pretoken_ids` of
        its pre-tokens, with the loop inline, as this is the per-line call."""
        out: list[int] = []
        cache = self._word_cache
        for word in pretokenize(text):
            out.extend(cache[word])
        return out

    def pretoken_ids(self, words) -> list[int]:
        """The canonical token ids of the pre-tokens ``words``, in order.

        Each pre-token's ids come from the model's id cache, so a caller that
        has already pre-tokenized a text gets its :meth:`encode_ids` without
        pre-tokenizing it again.
        """
        out: list[int] = []
        cache = self._word_cache
        for word in words:
            out.extend(cache[word])
        return out

    def encode(self, text: bytes) -> list[bytes]:
        """Tokenize ``text`` into token byte spans."""
        vocab = self.id_to_bytes
        return [vocab[i] for i in self.encode_ids(text)]

    def token_count(self, text: bytes) -> int:
        """Length of ``encode(text)`` without building the token list."""
        cache = self._word_cache
        return sum(len(cache[word]) for word in pretokenize(text))

    def run_splitter(self):
        """The compiled ``findall`` that splits a line into its runs, in order.

        A run is an inert byte, or a maximal stretch of active bytes inside
        one pre-token: ``[inert]|[active ws]*[active non-ws]+|[active ws]+``,
        where whitespace is what :func:`corpus.pretokenize` takes it to be.
        Runs concatenate to the line, never cross a pre-token boundary, and
        their token ids concatenate to the line's :meth:`encode_ids`. With no
        inert byte the runs are the pre-tokens. Built on the first call.
        """
        if self._run_findall is None:
            active = set(b"".join(self.id_to_bytes[256:]))
            inert = set(range(256)) - active
            space, word = _byte_class(active & _WHITESPACE), _byte_class(active - _WHITESPACE)
            pattern = b"%s|%s*%s+|%s+" % (_byte_class(inert), space, word, space)
            self._run_findall = re.compile(pattern).findall
        return self._run_findall

    def _id_text(self, fmt: str) -> list[bytes]:
        """Each id's output text as ASCII bytes: its decimal id for ``"ids"``,
        else its escaped span."""
        if fmt == "ids":
            return [b"%d" % i for i in range(len(self.id_to_bytes))]
        return [escape_token(span).encode("ascii") for span in self.id_to_bytes]

    def text_cache(self, fmt: str) -> _WordCache:
        """A new cache from a word to its tokens as ``encode`` output text.

        A word is a pre-token or a run (see :meth:`run_splitter`): ``encode``
        looks up runs, which random bytes repeat far more often than
        pre-tokens. ``fmt`` is ``"ids"`` (decimal ids) or ``"tokens"``
        (escaped spans); a value is the word's tokens joined by single
        spaces, as ASCII bytes, ready for a binary output (an ASCII ``bytes``
        is 16 bytes smaller than the same ``str``). Each id's text is the one
        :meth:`text_spans` maps back to its span. The cache is filled straight
        from the kernel, not from the id cache, so a word is held once, as text.
        """
        id_text = self._id_text(fmt)
        table = self._table

        def render(word: bytes) -> bytes:
            return b" ".join(map(id_text.__getitem__, _kernel_encode(table, word)))

        return _WordCache(render)

    def text_spans(self, fmt: str) -> dict[bytes, bytes]:
        """Each id's output text in ``fmt`` mapped to its span.

        This is the inverse of :meth:`text_cache`'s per-id text, so a field
        that ``encode`` writes decodes with one lookup; each span is what
        :meth:`decode_ids` gives for the id. Other spellings that
        ``decode_ids`` or ``decode`` accept (``007``, ``\\x41``) are not keys.
        """
        return dict(zip(self._id_text(fmt), self.id_to_bytes))

    def decode(self, tokens) -> bytes:
        """Concatenate token byte spans; every token must be in the vocabulary."""
        spans = []
        for token in tokens:
            if not isinstance(token, (bytes, bytearray)):
                raise ModelFormatError(f"token must be bytes, got {type(token).__name__}")
            if bytes(token) not in self.vocabulary:
                raise ModelFormatError(f"token not in vocabulary: {escape_token(token)!r}")
            spans.append(bytes(token))
        return b"".join(spans)

    def decode_ids(self, ids) -> bytes:
        """Concatenate token ids; ids must be valid model-order ids."""
        vocab = self.id_to_bytes
        spans = []
        for i in ids:
            if not 0 <= i < len(vocab):
                raise ModelFormatError(f"unknown token id: {i}")
            spans.append(vocab[i])
        return b"".join(spans)

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(MODEL_HEADER + "\n")
            fh.write("merges:\n")
            for left, right in self.merges:
                fh.write(f"{escape_token(left)}\t{escape_token(right)}\n")

    @classmethod
    def load(cls, path: str | Path) -> "TokenizerModel":
        path = Path(path)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise ModelFormatError(f"model file not found: {path}") from None
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"{path}: not a text model file ({exc})") from None
        # line breaks as a text-mode read gives them
        text = text.replace("\r\n", "\n").replace("\r", "\n")
        if text.endswith("\n"):
            text = text[:-1]
        lines = text.split("\n")
        if not lines or lines[0] != MODEL_HEADER:
            found = lines[0] if lines else ""
            raise ModelFormatError(
                f"{path}: unsupported model version {found!r} (expected {MODEL_HEADER!r})"
            )
        if len(lines) < 2 or lines[1] != "merges:":
            raise ModelFormatError(f"{path}: missing 'merges:' section")
        merges = []
        # Operand texts repeat (a 2000-merge model holds about 170 distinct
        # texts among its 4,000), so each distinct text is unescaped once. A
        # malformed one is never stored, so it raises at its first line.
        spans: dict[str, bytes] = {}
        for lineno, line in enumerate(lines[2:], start=3):
            parts = line.split("\t")
            if len(parts) != 2:
                raise ModelFormatError(f"{path}:{lineno}: malformed merge line {line!r}")
            for part in parts:
                if part not in spans:
                    try:
                        spans[part] = unescape_token(part)
                    except ModelFormatError as exc:
                        raise ModelFormatError(f"{path}:{lineno}: {exc}") from None
            merges.append((spans[parts[0]], spans[parts[1]]))
        try:
            model = cls(merges)
        except ModelFormatError as exc:
            raise ModelFormatError(f"{path}: {exc}") from None
        model._file_bytes = data
        return model

