"""Output checks behind ``failed_ops_ratio``.

Each checked item counts once as attempted and, when wrong, once as failed:
every CLI call must exit 0, every line must decode byte-identical to its
input, a seeded sample of encoded lines must equal an independent
merge-replay encoding, and repeated ``train`` runs must write byte-identical
models and logs. The replay encoder reads the model file itself and shares
no code with the package.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

# Same convention as the package (README, "Notes on conventions"), written
# out again: a whitespace run is glued to the following non-whitespace run.
_PRETOKEN = re.compile(rb"\s*\S+|\s+")


class Checks:
    """Counts of checked items, failures, and the first few failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self._digests: dict[str, str] = {}

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def record(self, ok: bool, note: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)
        return ok

    def cli(self, rc: int, argv: list[str]) -> None:
        self.record(rc == 0, f"exit {rc}: parity-bpe {' '.join(argv)}")

    def roundtrip(self, original: Path, decoded: Path) -> None:
        """Every input line must come back byte-identical."""
        want = original.read_bytes().split(b"\n")
        got = decoded.read_bytes().split(b"\n")
        for i, line in enumerate(want[:-1]):
            ok = i < len(got) - 1 and got[i] == line
            self.record(ok, f"{decoded.name}: line {i + 1} does not round-trip")
        self.record(
            len(got) == len(want), f"{decoded.name}: {len(got) - 1} lines, want {len(want) - 1}"
        )

    def replay(self, model: Path, lines: list[bytes], ids_file: Path, sample: list[int]) -> None:
        """Sampled encoded lines must equal the merge-replay encoding."""
        replayer = ReplayEncoder(model)
        encoded = ids_file.read_bytes().split(b"\n")
        for i in sample:
            try:
                got = [replayer.vocab[int(t)] for t in encoded[i].split()]
            except (IndexError, ValueError):
                got = None
            want = replayer.encode(lines[i])
            self.record(got == want, f"{ids_file.name}: line {i + 1} differs from replay")

    def same_output(self, kind: str, *paths: Path) -> None:
        """Repeated runs of one ``train`` command must write identical files."""
        h = hashlib.sha256()
        for path in paths:
            h.update(path.read_bytes())
        digest = h.hexdigest()
        if kind not in self._digests:
            self._digests[kind] = digest
            return
        same = self._digests[kind] == digest
        self.record(same, f"{kind}: model or log differs from the first run")


def _unescape(text: str) -> bytes:
    out = bytearray()
    i = 0
    while i < len(text):
        if text[i] == "\\":
            out.append(int(text[i + 2 : i + 4], 16))
            i += 4
        else:
            out.append(ord(text[i]))
            i += 1
    return bytes(out)


class ReplayEncoder:
    """Encode by replaying the merge list in training order inside each pre-token."""

    def __init__(self, model: Path):
        lines = model.read_text(encoding="ascii").rstrip("\n").split("\n")
        if lines[:2] != ["parity-bpe v1", "merges:"]:
            raise ValueError(f"{model}: not a v1 model file")
        self.merges = [tuple(_unescape(part) for part in line.split("\t")) for line in lines[2:]]
        self.vocab = [bytes([b]) for b in range(256)]
        self.vocab += [left + right for left, right in self.merges]
        self._words: dict[bytes, list[bytes]] = {}

    def _word(self, word: bytes) -> list[bytes]:
        tokens = [bytes([b]) for b in word]
        present = set(tokens)
        for left, right in self.merges:
            if left not in present or right not in present:
                continue
            out = []
            i = 0
            while i < len(tokens):
                if i + 1 < len(tokens) and tokens[i] == left and tokens[i + 1] == right:
                    out.append(left + right)
                    i += 2
                else:
                    out.append(tokens[i])
                    i += 1
            tokens = out
            present = set(tokens)
        return tokens

    def encode(self, line: bytes) -> list[bytes]:
        out: list[bytes] = []
        for word in _PRETOKEN.findall(line):
            tokens = self._words.get(word)
            if tokens is None:
                tokens = self._words[word] = self._word(word)
            out.extend(tokens)
        return out
