"""The factored per-group world-id encoding (ISSUE 8).

``FactoredWorld`` keeps independent choices as independent factor
relations — a world is a point in their product, which is never
materialized unless a consumer genuinely correlates the factors. This
pins the factored ``InlinedRepresentation`` contract:

* validation checks membership per factor and names the offending
  *factor column* deterministically in the dangling-id error;
* ``insert_sub_ids`` enumerates only the touched factors' product,
  never the joint world table;
* ``repair by key`` mints one fresh wild factor per violating key
  group, so the representation is *sum*-sized;
* pairing — the one operation that correlates every world with every
  other — drops to the joint form explicitly (the escape hatch).
"""

import pytest

from repro.backend import InlineBackend
from repro.errors import RepresentationError
from repro.inline.factors import FactoredWorld
from repro.inline.pairing import pair_on_inlined
from repro.inline.representation import InlinedRepresentation
from repro.isql.session import ISQLSession
from repro.relational.pad import PAD
from repro.relational.relation import Relation

FI = Relation(("I",), [(0,), (1,)])
FJ = Relation(("J",), [(0,), (1,), (2,)])


def _rep(table_rows, wild_attrs=()):
    table = Relation(("A", "I", "J"), table_rows)
    return InlinedRepresentation(
        [("R", table)],
        None,
        ("I", "J"),
        factors=FactoredWorld((FI, FJ)),
        wild_attrs=frozenset(wild_attrs),
    )


# -- FactoredWorld basics -----------------------------------------------------------


def test_factored_world_counts_the_product_without_materializing():
    world = FactoredWorld((FI, FJ))
    assert world.count() == 6
    assert world._materialized is None  # counting never built the product


def test_factored_world_materialize_is_cached_and_equals_the_product():
    world = FactoredWorld((FI, FJ))
    joint = world.materialize()
    assert joint is world.materialize()
    assert set(joint.rows) == {(i, j) for (i,) in FI.rows for (j,) in FJ.rows}


def test_factored_world_project_keeps_only_touched_factors():
    world = FactoredWorld((FI, FJ))
    projected = world.project(("J",))
    assert projected.factors == (FJ,)


def test_factored_world_rejects_overlapping_factor_attributes():
    with pytest.raises(RepresentationError):
        FactoredWorld((FI, Relation(("I",), [(9,)])))


# -- validation: dangling ids name the offending factor column ----------------------


def test_dangling_factor_id_names_the_factor_column():
    with pytest.raises(RepresentationError) as info:
        _rep([("x", 0, 1), ("y", 5, 2), ("z", 7, 0)])
    message = str(info.value)
    assert "table 'R'" in message
    assert "(factor column 'I')" in message
    # Deterministic: the smallest dangling sub-id is reported, not an
    # arbitrary set element.
    assert "(5,)" in message and "(7,)" not in message


def test_dangling_id_in_second_factor_names_that_column():
    with pytest.raises(RepresentationError) as info:
        _rep([("x", 0, 9)])
    assert "(factor column 'J')" in str(info.value)


def test_pad_in_non_wild_factor_column_is_dangling():
    with pytest.raises(RepresentationError) as info:
        _rep([("x", PAD, 1)])
    assert "(factor column 'I')" in str(info.value)


def test_pad_in_wild_factor_column_validates():
    rep = _rep([("x", PAD, 1)], wild_attrs=("I",))
    assert rep.wild_attrs == frozenset({"I"})


def test_multi_attribute_factor_phrase_lists_the_columns():
    pair_factor = Relation(("I", "J"), [(0, 0), (1, 1)])
    table = Relation(("A", "I", "J"), [("x", 0, 1)])
    with pytest.raises(RepresentationError) as info:
        InlinedRepresentation(
            [("R", table)],
            None,
            ("I", "J"),
            factors=FactoredWorld((pair_factor,)),
        )
    assert "factor columns ['I', 'J']" in str(info.value)


# -- insert_sub_ids stays off the joint product -------------------------------------


def test_insert_sub_ids_enumerates_the_touched_factor_product():
    rep = _rep([("x", 0, 1)])
    assert sorted(rep.insert_sub_ids("R")) == [
        (i, j) for (i,) in sorted(FI.rows) for (j,) in sorted(FJ.rows)
    ]
    # The enumeration went through the factors, not through a
    # materialized joint world table.
    assert rep._world_table is None


def test_insert_sub_ids_on_wild_table_pads_the_wild_columns():
    rep = _rep([("x", PAD, 1)], wild_attrs=("I",))
    assert set(rep.insert_sub_ids("R")) == {(PAD, 0), (PAD, 1), (PAD, 2)}


# -- repair by key mints per-group factors ------------------------------------------


def _repaired_session():
    session = ISQLSession(backend=InlineBackend())
    session.register(
        "R",
        Relation(
            ("K", "A"),
            [(1, "x"), (1, "y"), (2, "z"), (3, "p"), (3, "q"), (3, "r")],
        ),
    )
    session.run("Clean <- select * from R repair by key K;")
    return session


def test_repair_by_key_mints_one_wild_factor_per_violating_group():
    session = _repaired_session()
    rep = session.backend.representation
    assert rep.factors is not None
    sizes = sorted(len(factor) for factor in rep.factors.factors)
    assert sizes == [2, 3]  # one factor per group, one row per candidate
    assert rep.wild_attrs == frozenset(rep.id_attrs)
    assert session.world_count() == 6  # 2 × 3, counted as a product


def test_repaired_representation_is_sum_sized():
    session = _repaired_session()
    rep = session.backend.representation
    # R (6 rows) + Clean (6 rows) + the 2+3 factor rows — the world
    # tables contribute the *sum* of the factor sizes, not the 6-row
    # joint product (which would also expand Clean per world).
    assert rep.size() == len(rep.tables["R"]) + len(rep.tables["Clean"]) + 5
    assert rep.size() < rep.materialized().size()


def test_materialized_drops_to_the_joint_encoding():
    rep = _repaired_session().backend.representation
    joint = rep.materialized()
    assert joint.factors is None
    assert not joint.wild_attrs
    assert len(joint.world_table) == 6
    # Same worlds, different encoding.
    assert joint.world_fingerprints() == rep.world_fingerprints()


# -- pairing is the explicit escape hatch to the joint form -------------------------


def test_pairing_a_factored_representation_goes_joint():
    rep = _repaired_session().backend.representation
    paired = pair_on_inlined(rep, "Clean", "Clean2")
    assert paired.factors is None
    assert len(paired.world_table) == 36  # every world paired with every world
    assert "Clean2" in paired.tables.names
