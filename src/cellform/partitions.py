"""Set partitions as restricted-growth strings.

A restricted-growth string (RGS) over n items is a label sequence with
a[0] = 0 and a[i] <= 1 + max(a[:i]); each set partition has exactly one.
Enumeration is lexicographic, starting from the single-cell partition.
"""

from __future__ import annotations


def iter_set_partitions(n: int):
    """Yield every RGS over n items in lexicographic order (0-based labels)."""
    if n < 1:
        raise ValueError("need at least one item")
    a = [0] * n
    b = [1] * n  # b[i] = 1 + max(a[:i]), the growth cap at position i
    while True:
        yield list(a)
        i = n - 1
        while i > 0 and a[i] >= b[i]:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        cap = max(b[i], a[i] + 1)
        for t in range(i + 1, n):
            a[t] = 0
            b[t] = cap

