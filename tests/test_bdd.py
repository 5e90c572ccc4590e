"""The BDD engine against truth tables of random functions."""

from __future__ import annotations

from hypothesis import given, strategies as st

from tdlite.bdd import Bdd

LEVELS = 5
ROWS = 1 << LEVELS  # assignments; bit l of a row is the value of level l
MASK = (1 << ROWS) - 1

tables = st.integers(0, MASK)  # bit a of a table is the value at row a
level_sets = st.frozensets(st.integers(0, LEVELS - 1))


def build(b: Bdd, table: int, level: int = 0, row: int = 0) -> int:
    """The BDD of a truth table, by Shannon expansion through `mk` alone."""
    if level == LEVELS:
        return table >> row & 1
    return b.mk(level, build(b, table, level + 1, row),
                build(b, table, level + 1, row | 1 << level))


def value(b: Bdd, f: int, row: int) -> int:
    while f > 1:
        level, lo, hi = b.nodes[f]
        f = hi if row >> level & 1 else lo
    return f


def table_of(b: Bdd, f: int) -> int:
    return sum(value(b, f, row) << row for row in range(ROWS))


def exist_table(table: int, levels: frozenset[int]) -> int:
    free = sum(1 << level for level in levels)
    out = 0
    for row in range(ROWS):
        if any(table >> other & 1 for other in range(ROWS) if other & ~free == row & ~free):
            out |= 1 << row
    return out


@given(tables, tables)
def test_boolean_operations(f, g):
    b = Bdd()
    bf, bg = build(b, f), build(b, g)
    # canonical: each result is the very node its truth table builds
    assert b.and_(bf, bg) == build(b, f & g)
    assert b.or_(bf, bg) == build(b, f | g)
    assert b.not_(bf) == build(b, ~f & MASK)
    assert b.implies(bf, bg) == build(b, ~f & MASK | g)
    assert b.iff_(bf, bg) == build(b, ~(f ^ g) & MASK)


@given(tables, tables)
def test_and_and_or_share_one_cache_entry_for_both_operand_orders(f, g):
    b = Bdd()
    bf, bg = build(b, f), build(b, g)
    for op in (Bdd.and_, Bdd.or_):
        r = op(b, bf, bg)
        entries = len(b.cache)
        assert op(b, bg, bf) == r
        assert len(b.cache) == entries


@given(tables, tables, level_sets)
def test_exist_and_and_exist(f, g, levels):
    b = Bdd()
    bf, bg = build(b, f), build(b, g)
    assert table_of(b, b.and_exist(bf, 1, levels)) == exist_table(f, levels)
    assert table_of(b, b.and_exist(1, bf, levels)) == exist_table(f, levels)
    both = b.and_exist(bf, bg, levels)
    assert both == b.and_exist(b.and_(bf, bg), 1, levels)
    assert table_of(b, both) == exist_table(f & g, levels)


@given(tables, tables, tables, st.integers(0, LEVELS - 1), level_sets)
def test_and_exist_where_a_quantified_low_branch_is_true(f, g, c, k, levels):
    # f and g both true on the rows of c where level k is false, so under
    # some assignments above k the low branch of f ∧ g at k is true
    low = sum(1 << row for row in range(ROWS) if not row >> k & 1 and c >> row & 1)
    b = Bdd()
    bf, bg = build(b, f | low), build(b, g | low)
    levels = levels | {k}
    both = b.and_exist(bf, bg, levels)
    assert both == b.and_exist(b.and_(bf, bg), 1, levels)
    assert table_of(b, both) == exist_table((f | low) & (g | low), levels)


@given(tables, st.lists(st.integers(0, 2 * LEVELS), min_size=LEVELS, max_size=LEVELS,
                        unique=True))
def test_rename_under_a_monotone_map(f, targets):
    targets.sort()
    b = Bdd()
    g = b.renaming(dict(enumerate(targets)))(build(b, f))
    for row in range(ROWS):
        moved = sum(1 << t for level, t in enumerate(targets) if row >> level & 1)
        assert value(b, g, moved) == f >> row & 1


@given(st.dictionaries(st.integers(0, LEVELS - 1), st.booleans()))
def test_cube_is_the_one_path_sat_one_reads(assignment):
    b = Bdd()
    c = b.cube(assignment)
    agrees = sum(1 << row for row in range(ROWS)
                 if all((row >> level & 1) == v for level, v in assignment.items()))
    assert c == build(b, agrees)
    assert b.sat_one(c) == assignment


@given(tables)
def test_sat_one_names_a_satisfying_cube(f):
    b = Bdd()
    bf = build(b, f)
    found = b.sat_one(bf)
    if f == 0:
        assert found is None
    else:
        # every completion of the partial assignment satisfies f
        assert b.and_(b.cube(found), b.not_(bf)) == 0
