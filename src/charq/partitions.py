"""Partitions and strict partitions with length bounds."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence


def _clean_parts(parts: Sequence[int]) -> tuple[int, ...]:
    """Integer parts, trailing zeros stripped; ValueError on a part that
    is not an integer (2.0 and True pass as 2 and 1)."""
    parts = tuple(parts)
    out = tuple(int(p) for p in parts)
    if out != parts:
        raise ValueError(f"parts {parts} must be integers")
    while out and out[-1] == 0:
        out = out[:-1]
    return out


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive parts, at most ``n_bound`` of them.
    Trailing zeros in the input are stripped."""

    parts: tuple[int, ...]
    n_bound: int

    def __init__(self, parts: Sequence[int], n_bound: int):
        parts = _clean_parts(parts)
        self._check_parts(parts)
        if n_bound < 1:
            raise ValueError("n_bound must be positive")
        if len(parts) > n_bound:
            raise ValueError(f"partition {parts} longer than bound {n_bound}")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "n_bound", n_bound)

    @staticmethod
    def _check_parts(parts: tuple[int, ...]) -> None:
        if any(p < 0 for p in parts):
            raise ValueError("parts must be nonnegative")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts {parts} are not weakly decreasing")

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def first(self) -> int:
        return self.parts[0] if self.parts else 0


class StrictPartition(Partition):
    """Strictly decreasing positive parts, at most ``n_bound`` of them."""

    @staticmethod
    def _check_parts(parts: tuple[int, ...]) -> None:
        if any(p <= 0 for p in parts):
            raise ValueError("strict partitions have positive parts")
        if any(parts[i] <= parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts {parts} are not strictly decreasing")


def as_parts(shape) -> tuple[int, ...]:
    """Accept a (Strict)Partition or a bare part sequence; return the
    cleaned parts tuple."""
    if isinstance(shape, Partition):
        return shape.parts
    return _clean_parts(shape)


def is_strict(parts: Sequence[int]) -> bool:
    parts = _clean_parts(parts)
    return all(parts[i] > parts[i + 1] for i in range(len(parts) - 1))


def enumerate_partitions(max_part: int, n_bound: int, strict: bool = False) -> Iterator:
    """All partitions with parts <= max_part and length <= n_bound, each
    exactly once, in ascending lexicographic order of the part tuples.
    Yields Partition or StrictPartition according to ``strict``."""
    if max_part < 0:
        raise ValueError("max_part must be >= 0")
    cls = StrictPartition if strict else Partition

    def gen(bound: int, slots: int):
        yield ()
        if slots == 0:
            return
        for p in range(1, bound + 1):
            sub_bound = p - 1 if strict else p
            for rest in gen(sub_bound, slots - 1):
                yield (p,) + rest

    for parts in gen(max_part, n_bound):
        yield cls(parts, n_bound)
