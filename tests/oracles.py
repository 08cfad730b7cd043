"""Independent reference implementations used to check the library.

Everything here is deliberately naive and self-contained: sequential merge
replay and a per-merge rescan for encoding, from-scratch sliding-window pair
recounts, a bitwise UTF-8 scalar counter, and a pairwise-difference Gini.
None of it shares code with the package paths it verifies.
"""

from collections import Counter

from parity_bpe import pretokenize


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


def rescan_encode_ids(ids, table: dict) -> list:
    """Kernel-level encoder: rescan for the lowest-ranked pair, apply it
    leftmost-first and non-overlapping everywhere, repeat.

    ``table`` maps an adjacent id pair to ``(rank, merged_id)``.
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
