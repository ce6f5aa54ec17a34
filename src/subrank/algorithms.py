"""Ranking algorithms: random, greedy, normalized greedy, balanced
adaptive greedy, and an exact branch-and-bound oracle.

Greedy, normalized greedy (NG) and balanced adaptive greedy (BAG) share one
pick kernel, ``_pick``: a candidate scores the sum of weight * gain /
residual over the uncovered functions in play, with residual 1 - f(S) for
NG and BAG and exactly 1 for greedy; BAG scores only a frozen set of
lagging agents. Ties go to the smallest element index. This is the
normalized greedy of Azar & Gamzu, "Ranking with submodular valuations"
(SODA 2011).

The kernel keeps one tracker per distinct oracle, shared by every
(agent, weight) pair that holds it, the run's prefix of picks, and the
elements not yet picked, in ascending order. Every oracle's numerator is
a weighted coverage count capped at its denominator, and the cap cannot
bind in a one-element step of an uncovered function, so each gain is the
live weight of the items a candidate hits: an element x item incidence
matrix times the live item weights, summed per oracle. These integer
sums are exact in float64 (Instance caps the denominator at 2**53). The
gains depend only on the kernel state, not on which states a pick
scores, so the kernel computes the remaining x trackers gain matrix once
per state, on the first ask after a pick, then that matrix over each
tracker's denominator; every _pick at that state (BAG's frozen sets, the
ratios of a tuning grid) reads the second, and brute force's child
bounds the first.

The kernel counts gains on one of two paths, chosen once per instance by
one property of its input: whether every item of every oracle weighs 1
(oracles without items do not count). That holds for decision-table rows,
gmsc sets, singletons and unit-weight coverage. On that word path each
tracker's items are bits of 64-bit words of its own, a fill is a popcount
of each candidate's words AND the live words summed per tracker, and
adding a pick is one popcount and one AND-NOT. Weighted items keep the float
path: hits times the live item weights, reduced per tracker, and once
most items are dead the fill reads only the live items' columns. Every
gain is an exact integer on both paths, so they give the same bits.
Neither path replaces the other. On unit items one popcount does the work
of 64 float multiply-adds: the fills of one odt-sweep rotation take
~2.1 ms on words against ~6.1 ms on floats. Weighted items would need one
bit plane per weight bit, and a prototype of that made the NG fills of
file-solve's weighted coverage files slower (5.3 -> 8.3 ms with three
planes for weights 1-5). A candidate's terms are summed with a
sequential accumulate in state order, which reproduces a scalar ``+=``
loop bit for bit; a matrix product would reorder the sum and could flip
near-ties. Lazy (Minoux) evaluation is not used: a normalized gain can
grow as the prefix grows.

When many states share each tracker (K agents holding the same M
decision-table oracles), a pick first screens its candidates with one
product per tracker (_contenders): per sums weight / residual over each
tracker's states, and approx = scaled @ per. Every term is >= 0, so
approx is within a relative slack of each row's sequential score, for any
summation order and with or without FMA (the bound is derived in _pick).
Only the rows whose approx + slack reaches the largest approx - slack
are summed exactly, in ascending order; the product only screens and
never gives a score, so the element, the score's bits and the
smallest-index tie-break are those of summing every row. The screen is
skipped, and every row summed, when there are fewer than
_SCREEN_STATES_PER_TRACKER uncovered states per tracker, when a weight
is below _SCREEN_MIN_WEIGHT (a term could be subnormal, where a relative
bound fails) and when approx + slack is not finite in some row.

The kernel also records each tracker's cover time as a pick covers it,
so greedy, NG and every BAG run report their own permutations: each ends
in one Run record. Every run grows the kernel's prefix through _advance
and keeps none of its own; BAG's runs and brute force read their depth
from it, and snapshots carry it. A cover time is the first prefix at
which a function reaches its threshold, so once no tracker is uncovered
the order of the rest changes no cost, and every run ends by one rule,
in one function (_ended): once no tracker is uncovered, or a BAG run
stops, the remaining elements follow in ascending order, and the cover
times of that tail come from replaying it through _advance on a
snapshot, up to the pick that covers the last tracker. Greedy and NG
stop picking there, so their replay is empty. After the root, only
_advance sets a cover time, and it returns the trackers it covers. The
states (agent, function pairs) come from the instance's state table; the
kernel knows agents only by their position in it, never by id, and lays
them out once in an agent grid, a row per agent of a 0.0 head cell, the
agent's states in function order, then padding; each cell keeps its
tracker and weight (tracker 0 and 0.0 on head and padding cells). Any
per-agent sum of weight * cover time is one gather of tracker times over
the grid, one product and one sequential accumulate along each row
(_Kernel.costs): a Run's report, bit for bit core.cover_report, which
stays the reference evaluator, and brute force's bounds. The root state,
gain matrices included, is built once per instance and kept on it
(Instance._kernel_root); greedy, NG, every BAG run and brute force start
from copies of it.

Brute force bounds all children of an expanded node in one batch from
that matrix, summing w * (known or least possible cover time) per agent
over the grid, adding the submodular bound ceil(residual / best gain)
when every weight is an integer, and advances the kernel only into the
children that survive.

BAG runs through one engine, _bag_runs, that takes a list of ratios and
runs them in lockstep: a ratio changes only the round and pass control,
so ratios that share a prefix of picks and freeze the same lagging set
share one _pick call (and one lagging set per baseline). Agent ids matter
only there: a frozen set names agents by id, and _bag_runs keeps its own
index of the states in agent id order (_frozen_states). A single BAG
run is the one-ratio case, and ratio tuning runs the whole grid at once
and scores each run by its report (Run.report). All algorithms are
deterministic given their inputs (and seed, where one exists).
"""

from __future__ import annotations

import copy
import functools
import itertools
import json
import random
from dataclasses import dataclass, field
from operator import add
from typing import Callable, Optional, Sequence

import numpy as np

from subrank.core import (NEVER_COVERED, CoverReport, Instance, bit_windows, per_agent,
                          sequential_sum)

# Cells per numpy pass when scoring candidates: candidate rows are taken in
# chunks so a pick's float temporaries stay near this size.
_CHUNK_CELLS = 1 << 14
# A float-path gain fill (weighted items only; unit-weight items take the
# word path) reads only the live items' columns once remaining rows x dead
# items reaches this many cells; below it, gathering the live columns costs
# more than multiplying the dead ones by 0. On file-solve input set 31's 108
# ranker runs (1,545 float-path fills, 218 of them past this threshold), the
# rankers took 110 ms with this branch and 133 ms without it (min of 12
# alternations, 2 cores, identical outputs).
_LIVE_FILL_CELLS = 1 << 12
# A pick screens its candidates (_contenders) once its uncovered states
# number at least this many per tracker; with fewer, summing every row
# exactly costs about as much as the screen.
_SCREEN_STATES_PER_TRACKER = 2
# The smallest weight for which no nonzero term of a screened pick is
# subnormal: a nonzero scaled gain is at least 2**-53 and a residual at
# most 1, so every product and quotient stays at least 2**-1021.
_SCREEN_MIN_WEIGHT = 2.0**-968


def _unit_items(oracles: Sequence) -> bool:
    """Whether every item of every oracle weighs 1; an oracle without items passes."""
    return all(f.item_weights.count(1) == len(f.item_weights) for f in oracles)


class _Kernel:
    """Selection state of one run: trackers, items, states, the prefix and remaining elements.

    Trackers are the instance's distinct oracles (Instance.oracles); num,
    den and covered hold each one's numerator, denominator and coverage,
    and time its cover time: the number of picks after which it became
    covered, 0 when covered at the root and -1 while uncovered. Items are
    the oracles' bit positions, stacked in tracker order: hits is the
    element x item incidence (row e - 1 for element e), the first n rows
    of the instance's matrix without a copy (Instance.hits), and owner
    each item's tracker, whose items start at column starts[j].

    live holds the items not yet hit by a pick, in one of two forms. When
    every item weighs 1 (_unit_items), the word path: tracker j's items
    are the low bits, in column order, of its own max(1, ceil(width / 64))
    little-endian 64-bit words from word heads[j] on; words is hits read
    that way, a word per window of core.bit_windows (read-only, like
    hits) and live one such row of the live items. Otherwise, the float
    path: live is the weight of each item column, 0.0 once dead.

    States are the instance's: fn (Instance.state_oracle) maps each to its
    tracker, weight (Instance.state_weight) is its weight, and agent i's
    states are offsets[i]:offsets[i + 1] (Instance.state_offsets). The
    kernel holds no agent ids. For per-agent sums (costs), the grid has
    a row per agent, width cells wide: a head cell, then the agent's
    states in order, then padding. cell_fn and cell_w hold each cell's
    tracker and weight, tracker 0 and weight 0.0 on head and padding
    cells. No run changes any of these.

    chosen is the prefix, the tuple of picks so far, so len(chosen) is the
    depth; remaining lists the unpicked elements in ascending order, gains()
    their gain matrix and scaled() that matrix over each tracker's
    denominator, each computed once per state. _advance changes num, live
    and time in place, rebinds covered, chosen, remaining and the matrices,
    and returns the mask of the trackers it covers; save copies exactly the
    three it writes in place (live is 1.6 KB of words against 80 KB of
    floats on odt K=10, M=100) and carries the other five by reference, so
    snapshots share covered until _advance rebinds it, and chosen, a tuple,
    is never written. On the word path a fill is popcounts(words[rows] &
    live) and _advance adds popcounts(words[e - 1] & live) and clears those
    bits. On the float path a fill sums hits * live over each tracker's run
    of item columns, and from _LIVE_FILL_CELLS remaining rows x dead items
    on it reads only the live columns.

    A run starts from start(inst): a copy of the root kept on the instance,
    so the instance's runs build the root and its gain matrix once.
    """

    def __init__(self, inst: Instance):
        oracles = inst.oracles
        self.fn, self.weight = inst.state_oracle, inst.state_weight
        self.offsets = inst.state_offsets
        counts = np.diff(self.offsets)
        self.agents = counts.size
        self.width = 1 + int(counts.max(initial=0))
        agent_of = np.repeat(np.arange(self.agents), counts)  # of each state
        # the grid: each state's cell, then each cell's tracker and weight
        cells = agent_of * self.width + 1 + np.arange(agent_of.size) - self.offsets[agent_of]
        self.cell_fn = np.zeros(self.agents * self.width, dtype=np.intp)
        self.cell_fn[cells] = self.fn
        self.cell_w = np.zeros(self.cell_fn.size)
        self.cell_w[cells] = self.weight
        # The instance's matrix, where an oracle without items has one dead
        # column so reduceat's segments stay nonempty.
        self.hits = inst.hits[:inst.n]
        self.starts = inst.starts
        widths = np.diff(self.starts, append=self.hits.shape[1])
        self.owner = np.repeat(np.arange(len(oracles), dtype=np.intp), widths)  # of each item
        self.words = None
        if _unit_items(oracles):
            count = (widths + 63) // 64
            self.heads = np.cumsum(count) - count
            tracker = np.repeat(np.arange(count.size), count)  # of each word
            # each word's first column and width; offset counts from its tracker's first item
            offset = (np.arange(tracker.size) - self.heads[tracker]) * 64
            windows = (self.starts[tracker] + offset, np.minimum(widths[tracker] - offset, 64))
            self.words = bit_windows(self.hits, *windows)
            self.words.flags.writeable = False
            # the live items: each word's window, none for an item-less tracker's dead column
            items = np.array([bool(f.item_weights) for f in oracles], bool)[tracker]
            self.live = np.where(items, ~np.uint64(0) >> (64 - windows[1]).astype(np.uint64),
                                 np.uint64(0))
        else:
            self.live = np.fromiter(itertools.chain.from_iterable(
                f.item_weights or (0,) for f in oracles), dtype=float)
        self.den = np.array([f.denominator for f in oracles], dtype=float)
        self.num = np.array([f.numerator(0) for f in oracles], dtype=float)
        self.covered = np.array([f.mask_covers(0) for f in oracles], dtype=bool)
        self.time = np.where(self.covered, 0, -1)
        self.remaining = list(range(1, inst.n + 1))
        self.chosen: tuple = ()
        self._gains: Optional[np.ndarray] = None
        self._scaled: Optional[np.ndarray] = None

    @classmethod
    def start(cls, inst: Instance) -> "_Kernel":
        """A kernel at the root of inst, copied from the root the instance keeps.

        The first call builds the root and fills its gain matrix; the root's
        arrays are read-only, every copy gets its own num, live and time,
        and shares covered until its first _advance rebinds it.
        """
        root = inst._kernel_root
        if root is None:
            root = cls(inst)
            for array in (root.num, root.covered, root.live, root.time, root.gains(),
                          root.scaled()):
                array.flags.writeable = False
            object.__setattr__(inst, "_kernel_root", root)
        kernel = copy.copy(root)
        kernel.restore(root.save())
        return kernel

    def gains(self) -> np.ndarray:
        """Numerator gains, remaining elements x trackers (exact for uncovered ones)."""
        if self._gains is None:
            self._gains = self._fill_gains()
        return self._gains

    def scaled(self) -> np.ndarray:
        """gains() over each tracker's denominator, computed once per state."""
        if self._scaled is None:
            self._scaled = self.gains() / self.den
        return self._scaled

    def _fill_gains(self) -> np.ndarray:
        rows = np.array(self.remaining, dtype=np.intp) - 1
        out = np.zeros((rows.size, self.den.size))
        if self.words is not None:
            step = max(1, _CHUNK_CELLS // max(1, self.live.size))
            for lo in range(0, rows.size, step):
                out[lo:lo + step] = self.popcounts(self.words[rows[lo:lo + step]] & self.live)
            return out
        # every item column, each tracker's run from its start ...
        items, live, heads, trackers = slice(None), self.live, self.starts, slice(None)
        if rows.size * (live.size - np.count_nonzero(live)) >= _LIVE_FILL_CELLS:
            # ... or only the live ones, each tracker's run from its first
            # live column; a tracker without live items keeps its 0.0
            items = live.nonzero()[0]
            owner = self.owner[items]
            first = np.empty(owner.size, dtype=bool)
            first[:1] = True
            np.not_equal(owner[1:], owner[:-1], out=first[1:])
            heads = first.nonzero()[0]
            live, trackers = live[items], owner[heads]
        # rows in chunks, so the product's temporaries stay near _CHUNK_CELLS
        step = max(1, _CHUNK_CELLS // max(1, live.size))
        for lo in range(0, rows.size, step):
            block = self.hits[rows[lo:lo + step]][:, items] * live
            out[lo:lo + step, trackers] = np.add.reduceat(block, heads, axis=1)
        return out

    def popcounts(self, words: np.ndarray) -> np.ndarray:
        """Word path: the set bits of words (..., all words) per tracker, as floats."""
        return np.add.reduceat(np.bitwise_count(words), self.heads, axis=-1, dtype=float)

    def costs(self, times: np.ndarray) -> np.ndarray:
        """Each agent's w * time summed over its functions, per row of times (..., trackers).

        Reads the grid: a sequential accumulate along each agent's row, so
        with times >= 0 (head and padding cells then hold 0.0) it gives the
        bits of core.sequential_sum over the agent's terms in function order.
        """
        # with no tracker, every cell is a head or padding cell and holds 0.0
        terms = times[..., self.cell_fn] * self.cell_w if self.den.size else self.cell_w
        rows = terms.reshape(*terms.shape[:-1], self.agents, self.width)
        return np.cumsum(rows, axis=-1)[..., -1]

    def report(self, times: np.ndarray) -> CoverReport:
        """cover_report of a permutation whose trackers have these cover times, bit for bit.

        Each agent's cost is weight * time summed over its functions in
        order from 0.0 (costs), as cover_report adds it. Reads only the
        states and the grid, which no run changes. Raises ValueError as
        cover_report does: NEVER_COVERED for a time of -1, and when there is
        no agent.
        """
        if (times < 0).any():
            raise ValueError(NEVER_COVERED)
        cover_times = per_agent(self.offsets, times[self.fn].tolist())
        return CoverReport.from_costs(cover_times, self.costs(times).tolist())

    def save(self) -> tuple:
        return (self.num.copy(), self.covered, self.live.copy(), self.time.copy(),
                self.remaining, self.chosen, self._gains, self._scaled)

    def restore(self, saved: tuple) -> None:
        (self.num, self.covered, self.live, self.time, self.remaining, self.chosen,
         self._gains, self._scaled) = saved


def _contenders(scaled: np.ndarray, fn: np.ndarray, weight: np.ndarray,
                residual: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """The ascending rows of scaled whose sequential score can reach the maximum.

    fn, weight and residual (None for greedy) are a pick's uncovered
    states. approx = scaled @ per, with per each tracker's summed weight /
    residual, is within slack = approx * (N + M + 1) * 2**-51 of each
    row's sequential score (see _pick), so a row whose approx + slack is
    below the largest approx - slack scores strictly less than the row
    with that lower bound; that row always stays, so the result is never
    empty. None, to sum every row, with fewer than
    _SCREEN_STATES_PER_TRACKER states per tracker, with a weight below
    _SCREEN_MIN_WEIGHT (this also catches weights <= 0) and with an
    approx + slack that is not finite.
    """
    trackers = scaled.shape[1]
    if fn.size < _SCREEN_STATES_PER_TRACKER * trackers or weight.min() < _SCREEN_MIN_WEIGHT:
        return None
    # an overflow here only sends the pick to the full sums, so it is not reported
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = weight if residual is None else weight / residual
        approx = scaled @ np.bincount(fn, weights=ratio, minlength=trackers)
        slack = approx * ((fn.size + trackers + 1) * 2.0**-51)
        high = approx + slack
    if not np.isfinite(high).all():
        return None
    return np.flatnonzero(high >= (approx - slack).max())


def _pick(kernel: _Kernel, states: np.ndarray, normalized: bool) -> tuple:
    """(element, score) maximizing the summed weighted gain over uncovered states.

    Each uncovered state of states, in the given order, adds
    ((gain / den) * weight) / residual, with residual 1 - value when
    normalized; greedy's residual is 1.0, so its division is left out.
    gain / den is read from kernel.scaled(). Candidates are kernel.remaining, which is ascending, so the
    first maximum is the smallest-index one. When _contenders screens the
    candidates, only the rows it keeps are summed; every row it drops
    scores strictly below the maximum, so the element and the score's bits
    are those of summing every row.

    The screen's bound. Let u = 2**-53 and g(n) = n*u / (1 - n*u). For one
    candidate, take the floats s_j (its scaled gain for state j's
    tracker), w_j and r_j (1.0 for greedy) of the N uncovered states, and
    T = sum_j s_j * w_j / r_j in exact arithmetic; every term is >= 0.
    - A sequential score term takes at most two roundings (product,
      quotient), then N - 1 additions: score = sum_j t_j * (1 + e_j) with
      t_j = s_j * w_j / r_j and |e_j| <= g(N + 1).
    - approx rounds w_j / r_j once, adds it to its tracker's per in at
      most N - 1 additions, and then goes through one product and at most
      M - 1 additions of the M-tracker dot product. That holds for any
      order or tree of additions, and an FMA only drops a rounding, so
      approx = sum_j t_j * (1 + e'_j) with |e'_j| <= g(N + M).
    - All t_j >= 0, so |score - T| <= g(N + 1) * T and |approx - T| <=
      g(N + M) * T, hence |approx - score| <= 2 g(N + M) T <= 2 g(N + M) /
      (1 - g(N + M)) * approx = 2x / (1 - 2x) * approx with x = (N + M) u.
    - (N + M + 1) * 2**-51 is exact, so slack = 4 (N + M + 1) u * approx
      up to one rounding. For x <= 1/4 it exceeds 2x / (1 - 2x) * approx
      by at least (2x - 8x**2 + 4u) * approx, which covers that rounding
      and those of approx + slack and approx - slack. So fl(approx +
      slack) >= score >= fl(approx - slack) in every row, for any N + M
      up to 2**49.
    The model of one relative rounding per operation fails on underflow
    and overflow, hence the fallbacks. A nonzero s_j is at least 2**-53
    (integer gains over denominators <= 2**53) and r_j <= 1, so with
    every weight at least 2**-968 each nonzero product, quotient and sum
    is at least 2**-1021, a normal number. A finite approx + slack bounds
    every partial sum of that row's score, so nothing overflows either.
    """
    remaining = kernel.remaining
    uncovered = states[~kernel.covered[kernel.fn[states]]]
    if not uncovered.size:
        return remaining[0], 0.0
    fn = kernel.fn[uncovered]
    weight = kernel.weight[uncovered]
    residual = 1.0 - kernel.num[fn] / kernel.den[fn] if normalized else None
    scaled = kernel.scaled()
    rows = _contenders(scaled, fn, weight, residual)
    if rows is not None:
        scaled = scaled[rows]
    step = max(1, _CHUNK_CELLS // fn.size)
    scores = np.empty(len(scaled))
    for lo in range(0, scores.size, step):
        terms = scaled[lo:lo + step, fn]
        terms *= weight
        if normalized:
            terms /= residual
        # a sequential accumulate, so the sum matches a scalar += loop bit for bit
        scores[lo:lo + step] = np.cumsum(terms, axis=1, out=terms)[:, -1]
    best = int(np.argmax(scores))  # first maximum
    score = float(scores[best])
    if rows is not None:
        best = int(rows[best])
    return remaining[best], score


def _advance(kernel: _Kernel, e: int) -> np.ndarray:
    """Pick e: add it to every tracker and the prefix; return the mask of the trackers it covers.

    The trackers e covers get the prefix's new length as their time. A
    covered tracker's numerator may grow past its denominator here; only
    uncovered trackers' values are read.
    """
    if kernel.words is None:
        hit = kernel.hits[e - 1]
        kernel.num += np.add.reduceat(hit * kernel.live, kernel.starts)
        kernel.live[hit != 0] = 0.0
    else:
        hit = kernel.words[e - 1]
        kernel.num += kernel.popcounts(hit & kernel.live)
        kernel.live &= ~hit
    was_covered = kernel.covered
    kernel.covered = kernel.num >= kernel.den
    remaining = kernel.remaining.copy()
    remaining.remove(e)
    kernel.remaining = remaining
    kernel.chosen += (e,)
    kernel._gains = kernel._scaled = None
    newly = kernel.covered > was_covered
    kernel.time[newly] = len(kernel.chosen)
    return newly


def _ended(kernel: _Kernel) -> tuple:
    """(permutation, score) of a run that stops at kernel's state, after its prefix.

    The remaining elements follow in ascending order. score builds the
    run's report, once, from the cover times of a replay of that tail
    through _advance on a snapshot, up to the pick that covers the last
    tracker; the kernel is left as it was.
    """
    saved, chosen, tail = kernel.save(), kernel.chosen, kernel.remaining
    for e in tail:
        if kernel.covered.all():
            break
        _advance(kernel, e)
    # the replay's times; restoring gives the kernel the saved copy
    score = functools.cache(functools.partial(kernel.report, kernel.time))
    kernel.restore(saved)
    return (*chosen, *tail), score


def random_order(inst: Instance, seed: int) -> tuple:
    """Uniform seeded shuffle of the ground set."""
    order = list(range(1, inst.n + 1))
    random.Random(seed).shuffle(order)
    return tuple(order)


@dataclass
class Run:
    """One ranker run: its permutation, how it scores, and what BAG did when.

    report is cover_report(inst, permutation), bit for bit, from score: a
    kernel's recorded cover times for greedy, NG and BAG, cover_report
    itself for a random order. It is built when read, so it raises
    ValueError only where cover_report does (some f(U) < 1, or no agent),
    and a run on such an instance still ends. A BAG run also lists its
    picks and passes; agents holds each agent's (id, starting remaining
    weight) in agent order, the order of every pick's remaining_weights.
    """

    permutation: tuple = ()
    score: Optional[Callable[[], CoverReport]] = field(default=None, repr=False, compare=False)
    picks: list = field(default_factory=list)
    passes: list = field(default_factory=list)
    agents: tuple = ()

    @property
    def report(self) -> CoverReport:
        return self.score()

    def pick_lines(self) -> list:
        """One JSON line per pick; each remaining weight has its agent's starting type."""
        lines = []
        for rec in self.picks:
            doc = {
                "t": rec.t,
                "element": rec.element,
                "p": rec.round_index,
                "q": rec.pass_index,
                "score": rec.score,
                "remaining_weights": {a: type(start)(w) for (a, start), w
                                      in zip(self.agents, rec.remaining_weights)},
            }
            lines.append(json.dumps(doc, sort_keys=True))
        return lines


def _greedy_run(inst: Instance, normalized: bool) -> Run:
    """The Run of repeated _pick over every function of every agent.

    Picks stop once no tracker is uncovered, and the run ends there
    (_ended): the remaining elements follow in ascending order, as _pick
    would give them then.
    """
    kernel = _Kernel.start(inst)
    states = np.arange(kernel.fn.size)
    while kernel.remaining and not kernel.covered.all():
        _advance(kernel, _pick(kernel, states, normalized)[0])
    return Run(*_ended(kernel))


def greedy(inst: Instance) -> tuple:
    """Pick the element with maximum total weighted marginal gain each step."""
    return _greedy_run(inst, normalized=False).permutation


def normalized_greedy(inst: Instance) -> tuple:
    """Greedy on gains renormalized by each function's residual to coverage.

    All functions of all agents are stacked into one pool; covered functions
    contribute nothing.
    """
    return _greedy_run(inst, normalized=True).permutation


@dataclass(frozen=True)
class BagConfig:
    """Knobs of balanced adaptive greedy.

    ratio is the geometric decay of the per-round weight baseline;
    drop_fraction is how far the lagging-agent set must shrink, relative to
    its frozen snapshot, before the snapshot is retaken.
    """

    ratio: float = 2.0 / 3.0
    drop_fraction: float = 3.0 / 4.0

    def __post_init__(self):
        if not 0 < self.ratio < 1:
            raise ValueError(f"ratio {self.ratio} outside (0, 1)")
        if not 0 < self.drop_fraction <= 1:
            raise ValueError(f"drop_fraction {self.drop_fraction} outside (0, 1]")


@dataclass
class PickRecord:
    """One BAG pick; remaining_weights are every agent's after it, in Run.agents order."""

    t: int
    element: int
    round_index: int  # outer iteration
    pass_index: int  # inner iteration within the round
    score: float
    active_after: tuple  # lagging agents recomputed after this pick
    remaining_weights: tuple


@dataclass
class PassRecord:
    round_index: int
    pass_index: int
    frozen_agents: tuple
    baseline: float
    prev_baseline: float
    start_t: int
    end_t: int = 0  # filled when the pass closes


def write_trace_jsonl(run: Run, path: str) -> None:
    with open(path, "w") as fh:
        for line in run.pick_lines():
            fh.write(line + "\n")


def _frozen_states(ids: np.ndarray, rank: np.ndarray, by_id: np.ndarray,
                   frozen: tuple) -> np.ndarray:
    """The states of the frozen agents, in agent id order then function order.

    ids are the agent ids in ascending order, rank holds each state's
    agent's index in ids, and by_id = np.argsort(rank, kind="stable").
    """
    member = np.zeros(ids.size, dtype=bool)
    member[np.searchsorted(ids, frozen)] = True
    return by_id[member[rank[by_id]]]


class _BagRun:
    """Round and pass control of one ratio's run, and its Run.

    Between picks the run only reads lagging sets of the shared remaining
    weights, so runs of different ratios can follow one prefix of picks
    together.
    """

    def __init__(self, ratio: float, drop_fraction: float, total: float, agents: tuple):
        self.ratio = ratio
        self.drop_fraction = drop_fraction
        self.total = total
        self.run = Run(agents=agents)  # its permutation and score are set when it ends
        self.p = 0
        self.b = 0.0
        self.active: tuple = ()  # lagging agents after the last pick
        self.open: Optional[PassRecord] = None

    def baseline(self, power: int) -> float:
        return (self.ratio ** power) * self.total

    @staticmethod
    def lagging(ids: np.ndarray, rem_weight: np.ndarray, b: float) -> tuple:
        """The agents whose remaining weight exceeds b, ascending; both arrays in id order."""
        return tuple(ids[rem_weight > b].tolist())

    def request(self, lagging: Callable[[float], tuple], depth: int,
                more: bool) -> Optional[tuple]:
        """Frozen agents of this run's next pick after depth picks; None when it ends.

        lagging(b) gives the agents lagging behind baseline b at this node,
        and more says whether elements remain. A pass keeps its frozen set
        while the lagging set after the last pick is at least drop_fraction
        of it; the next pass freezes that lagging set, and once it is empty
        the next round lowers the baseline. The run ends when no element
        remains or no agent lags behind the new baseline.
        """
        rec = self.open
        if rec is not None:
            if more and len(self.active) >= self.drop_fraction * len(rec.frozen_agents):
                return rec.frozen_agents
            rec.end_t = depth
            if more and self.active:
                return self._open_pass(rec.pass_index + 1, self.active, depth)
        if not more:
            return None
        self.p += 1
        self.b = self.baseline(self.p)
        active = lagging(self.b)
        return self._open_pass(1, active, depth) if active else None

    def _open_pass(self, q: int, frozen: tuple, depth: int) -> tuple:
        self.open = PassRecord(
            round_index=self.p,
            pass_index=q,
            frozen_agents=frozen,
            baseline=self.b,
            prev_baseline=self.baseline(self.p - 1),
            start_t=depth + 1,
        )
        self.run.passes.append(self.open)
        return frozen

    def record(self, t: int, e: int, score: float, active: tuple, weights: tuple) -> None:
        """Append pick t; active is the lagging set at self.b after it."""
        self.active = active
        self.run.picks.append(
            PickRecord(
                t=t,
                element=e,
                round_index=self.p,
                pass_index=self.open.pass_index,
                score=score,
                active_after=self.active,
                remaining_weights=weights,
            )
        )


def _bag_runs(inst: Instance, ratios: Sequence[float], drop_fraction: float) -> list:
    """The Run of balanced adaptive greedy for each ratio, in one pass.

    A ratio steers its run only through its round and pass control, and the
    kernel state and remaining weights depend only on the prefix of picks.
    So runs that share a prefix and ask for a pick with the same frozen set
    get the same pick, bit for bit, from one _pick call. The runs walk a
    tree of prefixes depth first on an explicit stack; a node with more
    than one child snapshots its state for each later child (as
    brute_force_opt does), and every run's output equals that of its run
    alone.

    A run that stops ends through _ended, and the runs ending at one node
    share one call, so one replay of the tail and one report built when
    first read. Likewise the picks into a node and the round starts at it
    find each baseline's lagging set once, and share one snapshot of the
    remaining weights.

    Only this engine knows agent ids: remaining weights and frozen sets are
    kept in agent id order, and each state holds its agent's rank in it.
    """
    kernel = _Kernel.start(inst)
    # each agent's Python weights of its uncovered states, added from 0 in
    # function order, so an agent's int weights stay an int
    opens = iter((~kernel.covered[kernel.fn]).tolist())
    start = {a.id: functools.reduce(add, (w for _, w in a.functions if next(opens)), 0)
             for a in inst.agents}
    ids = np.array(sorted(start), dtype=np.int64)
    rem_weight = np.array([start[a] for a in ids.tolist()], dtype=float)
    # each agent's rank in ids; a pick records the weights in agent order (Run.agents)
    listed = np.searchsorted(ids, list(start))
    rank = np.repeat(listed, np.diff(kernel.offsets))  # of each state's agent
    # frozen agents -> their states in agent id order
    frozen_states = functools.cache(functools.partial(
        _frozen_states, ids, rank, np.argsort(rank, kind="stable")))
    agents = tuple(start.items())
    # baseline -> lagging agents at this node; rebuilt whenever rem_weight changes
    lagging = functools.cache(functools.partial(_BagRun.lagging, ids, rem_weight))
    runs = [_BagRun(r, drop_fraction, inst.W, agents) for r in ratios]
    # (kernel snapshot, remaining weights, element, [(run, score)])
    stack: list = []
    group = runs
    while True:
        requests: dict = {}  # frozen agents -> the runs asking
        ended = None  # (permutation, score) of the runs ending at this node
        for run in group:
            frozen = run.request(lagging, len(kernel.chosen), bool(kernel.remaining))
            if frozen is None:
                ended = ended or _ended(kernel)
                run.run.permutation, run.run.score = ended
            else:
                requests.setdefault(frozen, []).append(run)
        children: dict = {}  # element -> [(run, score)]
        for frozen, asking in requests.items():
            e, score = _pick(kernel, frozen_states(frozen), True)
            children.setdefault(e, []).extend((run, score) for run in asking)
        if children:
            (e, picked), *others = children.items()
            for other in others:
                stack.append((kernel.save(), rem_weight.copy(), *other))
        elif stack:
            saved, rem_weight, e, picked = stack.pop()
            kernel.restore(saved)
        else:
            break
        newly = _advance(kernel, e)[kernel.fn]  # the states e covers
        # unbuffered, so an agent's states subtract one by one in state order
        np.subtract.at(rem_weight, rank[newly], kernel.weight[newly])
        lagging = functools.cache(functools.partial(_BagRun.lagging, ids, rem_weight))
        weights = tuple(rem_weight[listed].tolist())
        for run, score in picked:
            run.record(len(kernel.chosen), e, score, lagging(run.b), weights)
        group = [run for run, _ in picked]
    return [run.run for run in runs]


def balanced_adaptive_greedy(inst: Instance, cfg: Optional[BagConfig] = None) -> tuple:
    """Normalized greedy restricted to a frozen snapshot of lagging agents.

    Rounds p = 1, 2, ... target the baseline ratio^p * W on every agent's
    uncovered weight. Within a round, the lagging set is frozen; picks
    maximize the renormalized gain summed over the frozen agents only, and
    the snapshot is retaken once the live lagging set shrinks below
    drop_fraction of it. Elements left over once every agent meets the
    current baseline are appended in index order. The run also ends once
    every element is placed, which leaves agents lagging only when one of
    their functions never reaches 1. This is the one-ratio case of the
    engine that runs a whole ratio grid in lockstep (_bag_runs).

    Returns (permutation, run): the Run, whose report is the permutation's
    cover_report taken from the run's kernel.
    """
    cfg = cfg or BagConfig()
    run = _bag_runs(inst, (cfg.ratio,), cfg.drop_fraction)[0]
    return run.permutation, run


@dataclass(frozen=True)
class BruteForceResult:
    permutation: tuple
    value: float
    optimal: bool
    nodes: int


def brute_force_opt(inst: Instance, node_limit: int = 2_000_000) -> BruteForceResult:
    """Exact minimum of the max weighted cover time, by branch and bound.

    Depth-first search over permutation prefixes in ascending element
    order, seeded with the normalized greedy incumbent (valued by its
    run's own report), which only a strictly better leaf replaces: with
    any valid bound it returns the first optimal leaf in that order, or
    the NG order when nothing beats it. Elements with zero gain for every
    uncovered function wait for the tail, which never hurts by
    submodularity.

    An expanded node bounds all its children in one batch from its gain
    matrix. A child covers a function when num + gain >= den. Below the
    child every function has a cover time that is known (the kernel's time
    for one covered at the node, depth + 1 for one the child covers) or at
    least depth + 2. The bound is the max over agents of w * that time
    summed over the agent's functions in function order, as cover_report
    adds its costs; rounding is monotone, so it never exceeds the
    objective of a leaf below the child. The sums read the kernel's agent
    grid (_Kernel.costs), so a batch's terms are one gather of the
    children's times and one product. A leaf child has every time known,
    so the same sum is its objective bit for bit; it is closed at once,
    and only children whose bound is below the incumbent advance the
    kernel. When every weight is an integer and n * sum(weights) < 2**53,
    so every sum is an exact integer, an uncovered function's time is at
    least depth + 1 + need with need = ceil(residual / the largest gain any
    remaining element has for the function at the node), as live-weight
    gains only shrink; and a function no remaining element advances makes
    every child a dead end. With fractional weights the rounding of that
    term could pick another tied leaf, so it is left out.

    The search reads each node's depth and a leaf's prefix from the
    kernel. When the root covers every function, the root's bound and the
    incumbent are both sums of w * 0, so nothing is expanded and the NG
    order, ascending then, is returned.

    nodes counts the root and every child entered, those closed or pruned
    on arrival included. Past node_limit the best incumbent is returned
    flagged non-optimal, and with node_limit < 1 no child is entered.
    Deterministic; intended for n <= 10.
    """
    ng = _greedy_run(inst, normalized=True)
    perm, value = ng.permutation, ng.report.minmax  # the incumbent
    kernel = _Kernel.start(inst)
    weights = kernel.weight.tolist()
    exact = (all(w >= 0 and w.is_integer() for w in weights)
             and inst.n * sequential_sum(weights) < 2**53)
    nodes, limit_hit = 1, node_limit < 1

    def expand() -> None:
        nonlocal perm, value, nodes, limit_hit
        depth = len(kernel.chosen)
        gains = kernel.gains()
        covered = kernel.covered
        uncovered = ~covered
        # zero gain now means zero gain forever; such elements wait for the tail
        # (gains are never negative, so any() finds the positive ones)
        rows = gains[:, uncovered].any(axis=1).nonzero()[0]
        num = kernel.num + gains[rows]
        after = num >= kernel.den  # holds on every covered tracker, whose num >= den
        later = depth + 2
        if exact:
            best = gains.max(axis=0)
            # where after fails the residual is an integer >= 1, so need >= 1
            later = depth + 1 + np.ceil((kernel.den - num) / np.maximum(best, 1.0))
        times = np.where(after, np.where(covered, kernel.time, depth + 1), later)
        bounds = kernel.costs(times).max(axis=-1).tolist()
        dead = exact and not best[uncovered].all()  # a function nothing can advance
        leaves = after.all(axis=1).tolist()
        remaining = kernel.remaining
        for i, e in enumerate([remaining[r] for r in rows.tolist()]):
            nodes += 1
            if nodes > node_limit:
                limit_hit = True
                return
            if leaves[i]:
                if bounds[i] < value:
                    perm = (*kernel.chosen, e, *(x for x in remaining if x != e))
                    value = bounds[i]
            elif not dead and bounds[i] < value:
                saved = kernel.save()
                _advance(kernel, e)
                expand()
                kernel.restore(saved)
                if limit_hit:
                    return

    if not limit_hit and kernel.costs(np.where(kernel.covered, 0, 1)).max() < value:
        expand()
    return BruteForceResult(permutation=perm, value=value, optimal=not limit_hit, nodes=nodes)
