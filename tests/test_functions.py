"""Function families, the hard instance, and generators."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subrank.core import Agent, Instance, block_masks, objective, validate
from subrank.functions import (
    GmscSet,
    OdtTable,
    coverage_function,
    gmsc_function,
    hard_family,
    odt_function,
    random_coverage_instance,
    singleton_function,
)
from subrank.algorithms import _Kernel, normalized_greedy
from subrank.instance_io import instance_to_doc
from subrank.verify import random_family_oracles


class TestOdtFunction:
    def test_two_rows_one_distinguishing_column(self):
        table = OdtTable(rows=((0, 0), (0, 1)))
        f = odt_function(table, 1)
        assert f.evaluate({2}) == 1.0  # column 2 rules out the only other row
        assert f.evaluate({1}) == 0.0

    def test_three_rows_half(self):
        table = OdtTable(rows=((0, 0), (0, 1), (1, 1)))
        f = odt_function(table, 1)
        assert f.evaluate({1}) == pytest.approx(0.5)  # rules out row 3 only

    def test_epsilon_for_ten_hypotheses(self):
        rows = tuple((i,) * 3 for i in range(10))
        f = odt_function(OdtTable(rows=rows), 4)
        assert f.min_nonzero_marginal == pytest.approx(1.0 / 9.0)

    def test_duplicate_row_not_identifiable(self):
        table = OdtTable(rows=((0, 1), (0, 1), (1, 0)))
        with pytest.raises(ValueError, match="row not identifiable"):
            odt_function(table, 1)
        # the unique row is still fine
        odt_function(table, 3)

    def test_matches_set_cover_view(self):
        rng = random.Random(5)
        for _ in range(25):
            m, n = rng.randint(2, 5), rng.randint(2, 5)
            rows = None
            while rows is None or len(set(rows)) < m:
                rows = tuple(tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(m))
            j = rng.randint(1, m)
            f = odt_function(OdtTable(rows=rows), j)
            for r in range(n + 1):
                for cols in itertools.combinations(range(1, n + 1), r):
                    fully_identified = all(
                        any(rows[j - 1][c - 1] != other[c - 1] for c in cols)
                        for idx, other in enumerate(rows, start=1)
                        if idx != j
                    )
                    assert f.covers(cols) == fully_identified


def block_of(f, n):
    """f's block of the matrix of an instance over 1..n that holds only f: n rows."""
    inst = Instance(n=n, agents=(Agent(id=1, functions=((f, 1.0),)),))
    return inst.hits[:n, :len(f.item_weights)]


def reference_odt_masks(rows, row):
    """The row x column loop OdtFunction was built with before its one comparison."""
    mine = rows[row - 1]
    if any(j != row and r == mine for j, r in enumerate(rows, start=1)):
        raise ValueError(f"row not identifiable: row {row} duplicates another row")
    masks = {}
    for col in range(len(mine)):
        bits = 0
        for other, r in enumerate(rows):
            if other != row - 1 and r[col] != mine[col]:
                bits |= 1 << other
        masks[col + 1] = bits
    return masks


# Repeated values that are equal across types (1, 1.0, True) beside ones that
# are not ("1", None), so rows can be duplicates under == without being identical.
ODT_ENTRIES = st.sampled_from([0, 1, 2, 0.0, 1.0, 2.5, True, False, "1", "a", None])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_vectorised_odt_build_matches_row_loop(data):
    cols = data.draw(st.integers(0, 4))
    rows = data.draw(st.lists(st.lists(ODT_ENTRIES, min_size=cols, max_size=cols).map(tuple),
                              min_size=2, max_size=6))
    if data.draw(st.booleans()):  # an exact copy of some row
        rows.insert(data.draw(st.integers(0, len(rows))), data.draw(st.sampled_from(rows)))
    m = len(rows)
    table = OdtTable(rows=tuple(rows))
    for row in range(1, m + 1):
        try:
            masks = reference_odt_masks(rows, row)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{exc}$"):
                odt_function(table, row)
            continue
        f = odt_function(table, row)
        assert [f.element_mask(e) for e in range(cols + 3)] == [
            masks.get(e, 0) for e in range(cols + 3)
        ]
        for n in range(cols + 3):  # below, at and above the table width
            hits = block_of(f, n)
            assert hits.dtype.name == "uint8" and hits.shape == (n, m)
            assert hits.tolist() == [
                [(masks.get(e, 0) >> b) & 1 for b in range(m)] for e in range(1, n + 1)
            ]
        assert f.denominator == m - 1 and f.item_weights == (1,) * m


@pytest.mark.parametrize("duplicates", [False, True])
@pytest.mark.parametrize("m", [2, 7, 8, 9, 64, 65, 100])
def test_table_incidences_match_per_row_comparison(m, duplicates):
    """The table's one-pass incidences, masks and identifiable flags equal a per-row build.

    The reference compares the codes with one row at a time, transposes
    and takes block_masks, as each row's oracle did on its own. Entries mix
    1, 1.0 and True (equal), "1" (not equal to them) and NaN (equal to
    nothing); with duplicates, some rows repeat another under == only.
    """
    rng = random.Random(m)
    nan = float("nan")
    cols = 6
    rows = [tuple(rng.choice((0, 1, 2, 3, 4, 5, 6)) for _ in range(cols)) for _ in range(m)]
    rows[0] = (1, 1.0, True, "1", "1", 0)
    rows[-1] = (2, 2, 2, nan, nan, 2)  # NaN differs even from itself
    dup = set()
    if duplicates:
        rows[m // 2] = (True, 1, 1.0, "1", "1", False)  # == rows[0], not identical
        dup = {0, m // 2}
    dup |= {j for j, r in enumerate(rows) if nan not in r
            and any(k != j and r == other for k, other in enumerate(rows))}
    table = OdtTable(rows=tuple(rows))
    hits, masks, identifiable = table._incidences()
    assert hits.shape == (cols, m * m) and not hits.flags.writeable  # blocks side by side
    codes = table.codes
    for row in range(1, m + 1):
        differs = codes != codes[row - 1]
        ref_hits = np.ascontiguousarray(differs.T, dtype=np.uint8)
        lo = (row - 1) * m
        assert np.array_equal(hits[:, lo:lo + m], ref_hits)
        assert masks[row - 1] == block_masks(ref_hits, [m])[0]
        assert identifiable[row - 1] == (np.count_nonzero(differs.any(axis=1)) == m - 1)
        assert identifiable[row - 1] == (row - 1 not in dup)
        if row - 1 in dup:
            with pytest.raises(ValueError, match=f"^row not identifiable: row {row} "):
                odt_function(table, row)
            continue
        f = odt_function(table, row)
        assert np.array_equal(f._hits, ref_hits) and not f._hits.flags.writeable
        assert [f.element_mask(e) for e in range(1, cols + 1)] == masks[row - 1]
    assert table._incidences()[0] is hits  # built once, then kept


def test_row_range_is_checked_before_identifiability():
    table = OdtTable(rows=((0, 1), (0, 1)))
    for row in (0, 3):
        with pytest.raises(ValueError, match=f"^row {row} outside 1..2$"):
            odt_function(table, row)
    with pytest.raises(ValueError, match="^row not identifiable: row 1 "):
        odt_function(table, 1)


def test_nan_entry_differs_from_every_row():
    nan = float("nan")  # one object, as json.load returns for every NaN
    table = OdtTable(rows=((nan, 0), (nan, 0), (0.0, 1)))
    masks = [[odt_function(table, row).element_mask(e) for e in (1, 2)] for row in (1, 2, 3)]
    assert masks == [[0b110, 0b100], [0b101, 0b100], [0b011, 0b011]]


def test_unhashable_entry_rejected():
    with pytest.raises(ValueError, match="table entries must be hashable"):
        OdtTable(rows=(([0],), ([1],)))


@st.composite
def oracles_with_reference_masks(draw, largest):
    """(oracle, {element: mask}) of every family over elements 1..largest.

    The reference masks come from the params alone: bit p of element e's
    mask is set when e hits item position p.
    """
    elements = st.integers(1, largest)
    kind = draw(st.sampled_from(["coverage", "gmsc", "singleton", "odt"]))
    if kind == "coverage":
        n_items = draw(st.sampled_from([0, 1, 2, 3, 8, 9, 64, 65, 130]))
        items = [(10 * j + 7, draw(st.integers(1, 3))) for j in range(n_items)]
        ids = [i for i, _ in items]
        # lists may repeat an id, and items no element names stay unhit
        covers = draw(st.dictionaries(
            elements, st.lists(st.sampled_from(ids), max_size=5) if ids else st.just([]),
            max_size=largest))
        masks: dict = {}
        for e, hit in covers.items():
            for i in hit:
                masks[e] = masks.get(e, 0) | 1 << ids.index(i)
        return coverage_function(items, covers), masks
    if kind == "gmsc":
        members = sorted(draw(st.frozensets(elements, min_size=1)))
        gmsc_set = GmscSet(members=frozenset(members), K=draw(st.integers(1, len(members))))
        return gmsc_function(gmsc_set), {e: 1 << p for p, e in enumerate(members)}
    if kind == "singleton":
        element = draw(elements)
        return singleton_function(element), {element: 1}
    rows = draw(st.lists(st.lists(st.integers(0, 2), min_size=largest, max_size=largest)
                         .map(tuple), min_size=2, max_size=70, unique=True))
    row = draw(st.integers(1, len(rows)))
    return odt_function(OdtTable(rows=tuple(rows)), row), reference_odt_masks(rows, row)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_incidence_and_masks_match_params_for_every_family(data):
    largest = data.draw(st.integers(1, 7))
    drawn = data.draw(st.lists(oracles_with_reference_masks(largest), min_size=1, max_size=5))
    oracles = [f for f, _ in drawn]
    if data.draw(st.booleans()):  # sealed together, as an Instance seals its oracles
        # an instance over a ground set below, at or above the largest element,
        # after the first few oracles were sealed by one with another n
        n = data.draw(st.integers(0, largest + 2))
        early = oracles[:data.draw(st.integers(0, len(oracles)))]
        if early:
            other = data.draw(st.integers(0, largest + 2).filter(lambda size: size != n))
            Instance(n=other, agents=(Agent(id=1, functions=tuple((f, 1.0) for f in early)),))
        fresh = [f._hits is None for f in oracles]
        inst = Instance(n=n, agents=(Agent(id=1, functions=tuple((f, 1.0) for f in oracles)),))
        for (f, masks), start, new in zip(drawn, inst.starts.tolist(), fresh):
            width = len(f.item_weights)
            block = inst.hits[:n, start:start + width]
            assert block.tolist() == [
                [(masks.get(e, 0) >> p) & 1 for p in range(width)] for e in range(1, n + 1)
            ]
            assert (f._hits.base is inst.hits) == new  # a view of it if this instance sealed it
        assert _Kernel(inst).hits.base is inst.hits
        broken = {v.where for v in validate(inst) if v.message.startswith("f(U) != 1")}
        assert broken == {f"agent 1 function {j}" for j, f in enumerate(oracles, start=1)
                          if not f.covers(range(1, n + 1))}
    # instances over ground sets below, at and above the largest element, in any order
    sizes = data.draw(st.permutations(range(largest + 3)))
    for f, masks in drawn:
        width = len(f.item_weights)
        for n in sizes:
            hits = block_of(f, n)
            assert hits.dtype.name == "uint8" and hits.shape == (n, width)
            assert not hits.flags.writeable
            assert hits.tolist() == [
                [(masks.get(e, 0) >> p) & 1 for p in range(width)] for e in range(1, n + 1)
            ]
        assert [f.element_mask(e) for e in range(largest + 5)] == [
            masks.get(e, 0) for e in range(largest + 5)
        ]


@pytest.mark.parametrize("gap", [None, 0, 1])
@pytest.mark.parametrize("rows", [0, 1, 5])
def test_block_masks_match_per_bit_reference_on_any_tiling(rows, gap):
    """Blocks of 0 to 130 items, side by side (gap None) or apart, in three orders.

    Gap columns hold the given bit, so a block's mask must ignore its
    neighbours either way.
    """
    rng = np.random.default_rng(rows)
    widths = [0, 1, 7, 8, 9, 63, 64, 65, 130]
    for order in (widths, widths[::-1], rng.permutation(widths).tolist()):
        spacing = 0 if gap is None else 3
        starts = list(itertools.accumulate((w + spacing for w in order), initial=spacing))
        hits = np.full((rows, starts[-1]), gap or 0, np.uint8)
        for lo, w in zip(starts, order):
            hits[:, lo:lo + w] = rng.integers(0, 2, (rows, w))
        masks = block_masks(hits, order) if gap is None else block_masks(hits, order, starts)
        assert masks == [
            [sum(int(hits[r, lo + p]) << p for p in range(w)) for r in range(rows)]
            for lo, w in zip(starts, order)
        ]


class TestGmscFunction:
    def test_requirement_one(self):
        f = gmsc_function(GmscSet(members=frozenset({2, 5}), K=1))
        assert f.evaluate({5}) == 1.0

    def test_half_requirement(self):
        f = gmsc_function(GmscSet(members=frozenset({1, 2, 3}), K=2))
        assert f.evaluate({1}) == pytest.approx(0.5)

    def test_value_caps_at_one(self):
        f = gmsc_function(GmscSet(members=frozenset({1, 2, 3}), K=2))
        assert f.evaluate({1, 2, 3}) == 1.0

    def test_requirement_bounds_enforced(self):
        with pytest.raises(ValueError):
            GmscSet(members=frozenset({1, 2}), K=3)
        with pytest.raises(ValueError):
            GmscSet(members=frozenset(), K=1)


class TestSingletonFunction:
    def test_values(self):
        f = singleton_function(3)
        assert f.evaluate({3}) == 1.0
        assert f.evaluate(set()) == 0.0
        assert f.evaluate({1, 2, 3, 4}) == 1.0
        assert f.min_nonzero_marginal == 1.0


class TestHardFamily:
    def test_k4_structure(self):
        inst = hard_family(4, 0.01)
        assert inst.n == 6
        for agent in inst.agents[:3]:
            weights = [w for _, w in agent.functions]
            assert weights == [1.01, 0.99]
        assert [w for _, w in inst.agents[3].functions] == [1.0, 1.0]

    @pytest.mark.parametrize("k", [4, 9, 16, 25])
    def test_agent_totals_are_exactly_root_k(self, k):
        inst = hard_family(k, 0.01)
        root = float(math.isqrt(k))
        assert all(a.total_weight() == root for a in inst.agents)

    def test_k9_epsilon_and_weight(self):
        inst = hard_family(9, 0.01)
        assert inst.W == 3.0
        assert inst.epsilon == 1.0

    @pytest.mark.parametrize("delta", [0.001, 0.01, 0.1])
    def test_delta_choice_preserves_greedy_trace(self, delta):
        inst = hard_family(9, delta)
        assert normalized_greedy(inst) == (9, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12)

    def test_non_square_k_rejected(self):
        with pytest.raises(ValueError):
            hard_family(5)

    def test_delta_range_enforced(self):
        with pytest.raises(ValueError):
            hard_family(9, 0.7)


class TestRandomCoverageInstance:
    def test_same_seed_same_instance(self):
        a = random_coverage_instance(5, 2, 2, 1)
        b = random_coverage_instance(5, 2, 2, 1)
        perm = (3, 1, 4, 2, 5)
        assert objective(a, perm) == objective(b, perm)
        for x, y in zip(a.agents, b.agents):
            for (fa, wa), (fb, wb) in zip(x.functions, y.functions):
                assert wa == wb
                assert fa.items == fb.items
                assert np.array_equal(fa._hits, fb._hits)

    def test_validates_clean(self):
        assert validate(random_coverage_instance(5, 2, 2, 1)) == []

    def test_full_ground_set_covers_everything(self):
        inst = random_coverage_instance(6, 3, 2, 7)
        universe = list(range(1, 7))
        for agent in inst.agents:
            for f, _ in agent.functions:
                assert f.covers(universe)


def dict_of_sets_coverage_instance(n, k, m, seed):
    """The generator as it was written before it built its oracles from arrays."""
    rng = random.Random(seed)
    agents = []
    for i in range(1, k + 1):
        funcs = []
        for _ in range(m):
            n_items = rng.randint(1, 3)
            items = [(item_id, rng.randint(1, 5)) for item_id in range(1, n_items + 1)]
            covers = {}
            for item_id, _ in items:
                hitters = rng.sample(range(1, n + 1), rng.randint(1, max(1, n // 2)))
                for e in hitters:
                    covers.setdefault(e, set()).add(item_id)
            weight = float(rng.randint(1, 5))
            funcs.append((coverage_function(items, covers), weight))
        agents.append(Agent(id=i, functions=tuple(funcs)))
    return Instance(n=n, agents=tuple(agents))


# the (n, k, m) coverage sizes of perfbench's file-solve workload
FILE_SOLVE_SIZES = ((40, 20, 10), (50, 25, 10), (60, 30, 10), (8, 4, 3), (8, 5, 2),
                    (9, 4, 3), (9, 6, 2), (10, 4, 3), (10, 6, 2))


@pytest.mark.parametrize("n, k, m", FILE_SOLVE_SIZES)
def test_array_built_generator_matches_dict_of_sets(n, k, m):
    for seed in range(8):
        new = random_coverage_instance(n, k, m, seed)
        old = dict_of_sets_coverage_instance(n, k, m, seed)
        assert instance_to_doc(new) == instance_to_doc(old), seed


def exhaustive_monotone_submodular(f, n):
    """Local characterization over the full subset lattice."""
    universe = list(range(1, n + 1))
    for r in range(n + 1):
        for base in itertools.combinations(universe, r):
            base_set = set(base)
            v = f.evaluate(base_set)
            outside = [e for e in universe if e not in base_set]
            for x in outside:
                vx = f.evaluate(base_set | {x})
                assert vx >= v - 1e-15, f"monotonicity fails at {base_set} + {x}"
                for y in outside:
                    if y <= x:
                        continue
                    vy = f.evaluate(base_set | {y})
                    vxy = f.evaluate(base_set | {x, y})
                    assert vxy - vx <= vy - v + 1e-15, (
                        f"submodularity fails at {base_set} with {x},{y}"
                    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_families_exactly_monotone_submodular(seed):
    rng = random.Random(seed)
    n = 6
    items = [(i, rng.randint(1, 5)) for i in range(1, 4)]
    covers = {e: {i for i, _ in items if rng.random() < 0.5} for e in range(1, n + 1)}
    for i, _ in items:
        covers[rng.randint(1, n)].add(i)
    rows = None
    while rows is None or len(set(rows)) < len(rows):
        rows = tuple(tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(4))
    oracles = [
        coverage_function(items, covers),
        odt_function(OdtTable(rows=rows), 1),
        gmsc_function(GmscSet(members=frozenset({1, 3, 5}), K=2)),
        singleton_function(2),
    ]
    for f in oracles:
        exhaustive_monotone_submodular(f, n)


def test_families_monotone_submodular_at_n10():
    inst = random_coverage_instance(10, 1, 1, 99)
    f = inst.agents[0].functions[0][0]
    exhaustive_monotone_submodular(f, 10)


def test_min_marginal_is_a_true_lower_bound():
    # in every family, every observed strict increase along chains respects
    # the derived bound, which matches each family's closed form
    rng = random.Random(11)
    n = 6
    for _ in range(40):
        oracles = random_family_oracles(rng, n)
        coverage, odt, gmsc, singleton = oracles
        weights = [w for _, w in coverage.items]
        assert coverage.min_nonzero_marginal == min(weights) / sum(weights)
        assert odt.min_nonzero_marginal == 1.0 / (odt.table.m - 1)
        assert gmsc.min_nonzero_marginal == 1.0 / gmsc.gmsc_set.K
        assert singleton.min_nonzero_marginal == 1.0
        for f in oracles:
            order = list(range(1, n + 1))
            rng.shuffle(order)
            prev = f.evaluate(set())
            prefix = set()
            for e in order:
                prefix.add(e)
                now = f.evaluate(prefix)
                if now > prev:
                    assert now - prev >= f.min_nonzero_marginal - 1e-12
                prev = now
