"""Concrete submodular function families and instance generators.

All four families are ``SetSystemOracle`` subclasses (defined in core):
the function value is a ratio of integers determined by the union of
per-element "hit" sets, so coverage checks are exact integer comparisons
rather than float thresholds. Each family sets its item weights and
denominator, computes its own numerator and says what each element hits:
coverage as its (element, item position) arrays, gmsc as its sorted
members and a singleton as one cell, all placed into an Instance's
matrix by one fancy-index assignment (core.seal_incidences), and a
decision-table row as its block of its table's incidences, which the table
builds for all its rows at once from one comparison of its codes.
The base class derives the rest from that block (the element masks,
min_nonzero_marginal). JSON params live in instance_io.
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from subrank.core import Agent, Instance, SetSystemOracle, block_masks


@dataclass(frozen=True, eq=False)
class CoverageFunction(SetSystemOracle):
    """Weighted coverage: value(S) = weight of items hit by S over total.

    items: tuple of (item_id, integer weight >= 1). The hits are two intp
    arrays of one length, a pair per (element, item) hit: elements holds
    element ids >= 1 and positions the item's index in items. A repeated
    pair counts once, and an element in no pair hits nothing. An empty item
    list is the constant-1 function (vacuously covered). Equality is
    identity.
    """

    items: tuple
    elements: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "item_weights", tuple(w for _, w in self.items))
        total = sum(self.item_weights)
        object.__setattr__(self, "denominator", total if total else 1)

    def _hit_pairs(self) -> tuple:
        return self.elements, self.positions

    def numerator(self, mask: int) -> int:
        if not self.items:
            return 1
        num = 0
        pos = 0
        while mask:
            if mask & 1:
                num += self.item_weights[pos]
            mask >>= 1
            pos += 1
        return num


def coverage_function(items: Sequence[tuple], covers: Dict[int, Iterable[int]]) -> CoverageFunction:
    """Coverage from (item id, weight) pairs and {element: item ids it hits}.

    Raises KeyError on an item id that items does not list.
    """
    items = tuple((int(i), int(w)) for i, w in items)
    index = {item_id: pos for pos, (item_id, _) in enumerate(items)}
    pairs = [(int(e), index[i]) for e, ids in covers.items() for i in ids]
    elements, positions = np.array(pairs, np.intp).reshape(-1, 2).T
    return CoverageFunction(items=items, elements=elements, positions=positions)


@dataclass(frozen=True)
class OdtTable:
    """Hypothesis rows x test columns with discrete entries.

    Row j is identifiable when every other row differs from it in some
    column; duplicated rows make the corresponding function top out below 1.
    codes holds one integer per entry (rows x columns), equal exactly where
    the entries are equal under ==, so 1, 1.0 and True share a code and
    "1" does not. Entries must be hashable.

    Every row's incidence (columns x rows, marking the rows that differ
    from it at each column) is built for all rows in one pass on first use
    and kept on the table; see row_incidence.
    """

    rows: tuple  # tuple of tuples, all the same length
    codes: np.ndarray = field(init=False, repr=False, compare=False)
    # (hits, masks, identifiable) once built; see _incidences
    _built: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.rows) < 2:
            raise ValueError("table needs at least 2 rows")
        widths = {len(r) for r in self.rows}
        if len(widths) != 1:
            raise ValueError("rows have unequal lengths")
        index: dict = {}
        try:
            # NaN differs from everything, itself included, so each gets a fresh key
            codes = [[index.setdefault(v if v == v else object(), len(index)) for v in r]
                     for r in self.rows]
        except TypeError as exc:
            raise ValueError(f"table entries must be hashable: {exc}") from None
        object.__setattr__(self, "codes", np.array(codes, dtype=np.intp))

    @property
    def m(self) -> int:
        return len(self.rows)

    def row_incidence(self, row: int) -> tuple:
        """(incidence, element masks) of 1-based row: a read-only view and a list.

        Raises ValueError when another row duplicates this one.
        """
        hits, masks, identifiable = self._incidences()
        if not identifiable[row - 1]:
            raise ValueError(f"row not identifiable: row {row} duplicates another row")
        m = self.m
        return hits[:, (row - 1) * m:row * m], masks[row - 1]

    def _incidences(self) -> tuple:
        """(incidences of all rows side by side, their element masks, identifiable flags).

        One uint8 matrix, columns x (m blocks of m items) side by side;
        block j marks the rows whose code differs from row j's at each
        column. It is one comparison of all the codes, whose boolean result
        the matrix views as bytes. Read as columns * m rows of one block,
        the matrix gives every row's masks from one core.block_masks call.
        Built on the first call and kept.
        """
        if self._built is None:
            by_column = np.ascontiguousarray(self.codes.T)
            cols, m = by_column.shape
            differs = by_column[:, :, None] != by_column[:, None, :]  # [column, row j, row i]
            # row j differs from itself nowhere, so m - 1 other rows must differ somewhere
            identifiable = differs.any(axis=0).sum(axis=1) == m - 1
            hits = differs.view(np.uint8).reshape(cols, m * m)
            hits.flags.writeable = False  # and so is every block viewing it
            # entry c * m + j is row j's mask at element c + 1
            flat = block_masks(hits.reshape(cols * m, m), [m])[0]
            built = (hits, [flat[j::m] for j in range(m)], identifiable.tolist())
            object.__setattr__(self, "_built", built)
        return self._built


@dataclass(frozen=True)
class OdtFunction(SetSystemOracle):
    """Fraction of the other hypotheses ruled out by the chosen tests.

    For row j, element (column) e rules out the rows whose entry at e
    differs from row j's; value(S) is the count of distinct ruled-out rows
    over m - 1. Its incidence and masks are its row's block of the table's
    (OdtTable.row_incidence).
    """

    table: OdtTable
    row: int  # 1-based

    def __post_init__(self):
        m = self.table.m
        if not 1 <= self.row <= m:
            raise ValueError(f"row {self.row} outside 1..{m}")
        hits, masks = self.table.row_incidence(self.row)
        object.__setattr__(self, "item_weights", (1,) * m)
        object.__setattr__(self, "denominator", m - 1)
        self._seal(hits, masks)

    def numerator(self, mask: int) -> int:
        return mask.bit_count()


def odt_function(table: OdtTable, row: int) -> OdtFunction:
    return OdtFunction(table=table, row=row)


@dataclass(frozen=True)
class GmscSet:
    """A subset of the ground set with a coverage requirement K."""

    members: frozenset
    K: int

    def __post_init__(self):
        if not self.members:
            raise ValueError("set has no members")
        for e in self.members:
            if isinstance(e, bool) or not isinstance(e, numbers.Integral):
                raise ValueError(f"set member {e!r} is not an integer")
        if not 1 <= self.K <= len(self.members):
            raise ValueError(f"K={self.K} outside 1..{len(self.members)}")


@dataclass(frozen=True)
class GmscFunction(SetSystemOracle):
    """value(S) = min(|S intersect members|, K) / K."""

    gmsc_set: GmscSet

    def __post_init__(self):
        object.__setattr__(self, "item_weights", (1,) * len(self.gmsc_set.members))
        object.__setattr__(self, "denominator", self.gmsc_set.K)

    def _hit_pairs(self) -> tuple:
        members = np.array(sorted(self.gmsc_set.members), np.intp)
        return members, np.arange(members.size)

    def numerator(self, mask: int) -> int:
        return min(mask.bit_count(), self.gmsc_set.K)


def gmsc_function(gmsc_set: GmscSet) -> GmscFunction:
    return GmscFunction(gmsc_set=gmsc_set)


@dataclass(frozen=True)
class SingletonFunction(SetSystemOracle):
    """0/1 indicator of one element's presence."""

    element: int

    def __post_init__(self):
        object.__setattr__(self, "item_weights", (1,))

    def _hit_pairs(self) -> tuple:
        return np.array([self.element], np.intp), np.zeros(1, np.intp)

    def numerator(self, mask: int) -> int:
        return mask & 1


def singleton_function(element: int) -> SingletonFunction:
    return SingletonFunction(element=element)


def hard_family(k: int, delta: float = 0.01) -> Instance:
    """The k-agent singleton instance where plain normalized greedy stalls.

    Requires k a perfect square >= 4 and 0 < delta < 0.5. Ground set has
    k + sqrt(k) elements. Agents 1..k-1 each hold {e_i} with weight
    1 + delta and {e_k} with weight sqrt(k) - 1 - delta; agent k holds the
    last sqrt(k) singletons at weight 1. Every agent totals sqrt(k).
    """
    root = math.isqrt(k)
    if root * root != k or k < 4:
        raise ValueError(f"k={k} is not a perfect square >= 4")
    if not 0 < delta < 0.5:
        raise ValueError(f"delta={delta} outside (0, 0.5)")
    n = k + root
    agents = []
    for i in range(1, k):
        agents.append(
            Agent(
                id=i,
                functions=(
                    (singleton_function(i), 1.0 + delta),
                    (singleton_function(k), root - 1.0 - delta),
                ),
            )
        )
    last = tuple((singleton_function(k + j), 1.0) for j in range(1, root + 1))
    agents.append(Agent(id=k, functions=last))
    return Instance(n=n, agents=tuple(agents))


def random_coverage_instance(n: int, k: int, m: int, seed: int) -> Instance:
    """Seeded coverage-family instance for brute-force cross-checks.

    Each agent gets m coverage functions. Item weights are small integers
    and every item is covered by at least one element, so f(U) = 1 holds by
    construction. Intended for n <= 20.
    """
    rng = random.Random(seed)
    agents = []
    for i in range(1, k + 1):
        funcs = []
        for _ in range(m):
            n_items = rng.randint(1, 3)
            items = tuple((item_id, rng.randint(1, 5)) for item_id in range(1, n_items + 1))
            elements: list = []  # a (element, item position) pair per hit
            positions: list = []
            for pos in range(n_items):
                hitters = rng.sample(range(1, n + 1), rng.randint(1, max(1, n // 2)))
                elements += hitters
                positions += [pos] * len(hitters)
            weight = float(rng.randint(1, 5))
            oracle = CoverageFunction(items, np.array(elements, np.intp),
                                      np.array(positions, np.intp))
            funcs.append((oracle, weight))
        agents.append(Agent(id=i, functions=tuple(funcs)))
    return Instance(n=n, agents=tuple(agents))
