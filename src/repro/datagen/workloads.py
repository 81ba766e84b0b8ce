"""Seeded workload generators for the paper's application scenarios.

Each generator is deterministic in its seed and scales with explicit
size parameters, so benchmarks can sweep them. The schemas are the ones
Section 2 of the paper uses:

* ``Flights(Dep, Arr)`` / ``Flights(Fid, Dep, Arr, Dtime, Atime)`` —
  trip planning;
* ``Company_Emp(CID, EID)`` and ``Emp_Skills(EID, Skill)`` — business
  decision support;
* ``Census(SSN, Name, POB, POW)`` — dirty data for repair-by-key;
* ``Lineitem(Product, Quantity, Price, Year)`` — the simplified TPC-H
  relation of the Q17-like what-if query;
* ``Hotels(Name, City, Price)`` — the Example 6.1 extension;
* ``Cand(VID, Color)`` / ``E(U, V)`` — the Proposition 4.2
  3-colorability reduction, promoted to a replayable workload;
* ``Alt(Pick, A)`` — the Remark 4.6 ULDB/TriQL genericity example: two
  different packagings of one world-set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.core.np_hard import coloring_candidates, edge_relation
from repro.relational.relation import Relation

#: The five-row Flights relation of Figure 2 (a).
PAPER_FLIGHTS_ROWS = (
    ("FRA", "BCN"),
    ("FRA", "ATL"),
    ("PAR", "ATL"),
    ("PAR", "BCN"),
    ("PHL", "ATL"),
)


def paper_flights() -> Relation:
    """The exact Flights relation of Figure 2 (a)."""
    return Relation(("Dep", "Arr"), PAPER_FLIGHTS_ROWS)


def paper_company() -> tuple[Relation, Relation]:
    """The exact Company_Emp / Emp_Skills relations of Section 2."""
    company_emp = Relation(
        ("CID", "EID"),
        [("ACME", "e1"), ("ACME", "e2"), ("HAL", "e3"), ("HAL", "e4"), ("HAL", "e5")],
    )
    emp_skills = Relation(
        ("EID", "Skill"),
        [
            ("e1", "Web"),
            ("e2", "Web"),
            ("e3", "Java"),
            ("e3", "Web"),
            ("e4", "SQL"),
            ("e5", "Java"),
        ],
    )
    return company_emp, emp_skills


def flights(
    n_departures: int,
    n_arrivals: int,
    flights_per_departure: int,
    seed: int = 0,
) -> Relation:
    """A random ``Flights(Dep, Arr)`` with a guaranteed common arrival.

    Every departure gets a flight to arrival ``A0`` so that the trip
    planning query ("certain arrivals") has a non-trivial answer, plus
    *flights_per_departure − 1* random destinations.
    """
    rng = random.Random(seed)
    departures = [f"D{i}" for i in range(n_departures)]
    arrivals = [f"A{i}" for i in range(n_arrivals)]
    rows: set[tuple] = set()
    for dep in departures:
        rows.add((dep, "A0"))
        for _ in range(max(flights_per_departure - 1, 0)):
            rows.add((dep, rng.choice(arrivals)))
    return Relation(("Dep", "Arr"), rows)


def hotels(n_cities: int, hotels_per_city: int, seed: int = 0) -> Relation:
    """A random ``Hotels(Name, City, Price)`` over arrival cities A0…"""
    rng = random.Random(seed + 1)
    rows = []
    for city_index in range(n_cities):
        for hotel_index in range(hotels_per_city):
            rows.append(
                (
                    f"H{city_index}.{hotel_index}",
                    f"A{city_index}",
                    50 + rng.randrange(20) * 10,
                )
            )
    return Relation(("Name", "City", "Price"), rows)


def company(
    n_companies: int,
    employees_per_company: int,
    n_skills: int,
    skills_per_employee: int,
    seed: int = 0,
) -> tuple[Relation, Relation]:
    """Random ``Company_Emp`` / ``Emp_Skills`` for the acquisition query."""
    rng = random.Random(seed + 2)
    skills = [f"S{i}" for i in range(n_skills)]
    company_rows = []
    skill_rows: set[tuple] = set()
    employee = 0
    for company_index in range(n_companies):
        for _ in range(employees_per_company):
            eid = f"e{employee}"
            employee += 1
            company_rows.append((f"C{company_index}", eid))
            for _ in range(skills_per_employee):
                skill_rows.add((eid, rng.choice(skills)))
    return Relation(("CID", "EID"), company_rows), Relation(("EID", "Skill"), skill_rows)


def census(
    n_people: int,
    duplicate_rate: float = 0.3,
    seed: int = 0,
    duplicates: int | None = None,
) -> Relation:
    """A dirty ``Census(SSN, Name, POB, POW)`` violating SSN → rest.

    A *duplicate_rate* fraction of people get a second, conflicting
    record under the same SSN (a mistyped city), so repair-by-key on
    SSN produces 2^(duplicates) worlds. Passing *duplicates* instead
    pins the number of conflicting records exactly (the first
    *duplicates* people each get one), which benchmarks use to hit a
    target world count deterministically.
    """
    rng = random.Random(seed + 3)
    cities = [f"City{i}" for i in range(max(n_people // 2, 4))]
    rows = []
    for person in range(n_people):
        ssn = 1000 + person
        name = f"Person{person}"
        pob, pow_ = rng.choice(cities), rng.choice(cities)
        rows.append((ssn, name, pob, pow_))
        conflicted = (
            person < duplicates
            if duplicates is not None
            else rng.random() < duplicate_rate
        )
        if conflicted:
            # The conflicting record must differ, or set semantics would
            # collapse it and the key violation would vanish.
            conflicting = rng.choice([c for c in cities if c != pob])
            rows.append((ssn, name, conflicting, pow_))
    return Relation(("SSN", "Name", "POB", "POW"), rows)


def census_blocks(
    n_blocks: int, people_per_block: int = 3, n_cities: int = 12
) -> Relation:
    """A block-partitioned ``Census(Block, SSN, Name, POB, POW)``.

    Deterministic bulk data for the XXL DML-pipeline scenario: SSNs
    enumerate people, cities cycle with different strides so value
    predicates select stable fractions, and ``choice of Block`` splits
    one world per block — 2¹⁶ blocks at the default three people per
    block yield a ~2·10⁵-row flat table under 2¹⁶ worlds.
    """
    rows = []
    ssn = 0
    for block in range(n_blocks):
        for _ in range(people_per_block):
            rows.append(
                (
                    block,
                    ssn,
                    f"P{ssn}",
                    f"City{ssn % n_cities}",
                    f"City{(ssn // 7) % n_cities}",
                )
            )
            ssn += 1
    return Relation(("Block", "SSN", "Name", "POB", "POW"), rows)


def lineitem(
    years: Sequence[int] = (2002, 2003, 2004, 2005),
    n_products: int = 20,
    n_quantities: int = 4,
    rows_per_year: int = 50,
    seed: int = 0,
) -> Relation:
    """The simplified TPC-H ``Lineitem(Product, Quantity, Price, Year)``.

    Quantities model package sizes (e.g. 100 g, 1 kg); prices are drawn
    so that yearly revenues differ enough for the Q17-like threshold
    query to discriminate.
    """
    rng = random.Random(seed + 4)
    quantities = [100 * (index + 1) for index in range(n_quantities)]
    rows: set[tuple] = set()
    for year in years:
        for _ in range(rows_per_year):
            rows.add(
                (
                    f"P{rng.randrange(n_products)}",
                    rng.choice(quantities),
                    (1 + rng.randrange(400)) * 100,
                    year,
                )
            )
    return Relation(("Product", "Quantity", "Price", "Year"), rows)


@dataclass(frozen=True)
class Scenario:
    """One end-to-end I-SQL workload: data, a script, a final query.

    Scenarios are *backend-agnostic* descriptions — plain relations and
    I-SQL text — so the same scenario can be replayed on the explicit
    and the inline backend (``repro.backend.testing.run_scenario``) and
    the answers compared. ``script`` holds the state-building statements
    (assignments, views, DML); ``query`` is the final select whose
    answer the differential harness and the benchmarks compare.

    The registry lives in two generators: :func:`scenarios` (the
    differential/benchmark suite, replayable on every backend at
    ``"small"`` scale) and :func:`xl_scenarios` (inline-only workloads
    beyond the explicit engine's reach, ``explicit_infeasible=True``).
    Benchmarks assert every registered scenario statement records
    ``route=direct`` unless ``uses_fallback`` opts it out.
    """

    name: str
    relations: tuple[tuple[str, Relation], ...]
    query: str
    script: str = ""
    keys: tuple[tuple[str, tuple[str, ...]], ...] = ()
    #: Rough number of worlds the script builds up (documentation aid).
    approx_worlds: int = 1
    #: True when some statement uses residue constructs outside the
    #: evaluatable fragment, i.e. the inline backend exercises its
    #: explicit fallback. Since the fragment widened to aggregation,
    #: condition subqueries and subquery-keyed world grouping, no
    #: benchmark scenario sets this — tests assert that stays true.
    uses_fallback: bool = False
    #: True when the world count puts the scenario beyond the explicit
    #: backend's reach: benchmarks run it inline-only and record the
    #: explicit side as infeasible rather than timing (or zeroing) it.
    explicit_infeasible: bool = False


ACQUISITION_SCRIPT = """
U <- select * from Company_Emp choice of CID;
V <- select R1.CID, R1.EID
     from Company_Emp R1, (select * from U choice of EID) R2
     where R1.CID = R2.CID and R1.EID != R2.EID;
W <- select certain CID, Skill
     from V, Emp_Skills
     where V.EID = Emp_Skills.EID
     group worlds by CID;
"""

ACQUISITION_SCRIPT_SUBQUERY_GROUPING = """
U <- select * from Company_Emp choice of CID;
V <- select R1.CID, R1.EID
     from Company_Emp R1, (select * from U choice of EID) R2
     where R1.CID = R2.CID and R1.EID != R2.EID;
W <- select certain CID, Skill
     from V, Emp_Skills
     where V.EID = Emp_Skills.EID
     group worlds by (select CID from V);
"""

TPCH_SCRIPT = """
create view YearQuantity as
  select A.Year, sum(A.Price) as Revenue
  from (select * from Lineitem choice of Year) as A
  where Quantity not in (select * from Lineitem choice of Quantity)
  group by A.Year;
"""


#: The Proposition 4.2 reduction as an I-SQL script: guess a total
#: color assignment per world (``repair by key VID``), materialize the
#: monochromatic edges, and close over the worlds where none exist.
THREE_COLORING_SCRIPT = """
Guess <- select * from Cand repair by key VID;
Bad <- select U from E, Guess G1, Guess G2
       where E.U = G1.VID and E.V = G2.VID and G1.Color = G2.Color;
"""

#: Remark 4.6: the world-set {{1}, {2}, {}} built two different ways —
#: three alternatives (one filtered out) vs four (two filtered out, in
#: another order). Generic queries cannot tell the packagings apart.
ULDB_GENERICITY_SCRIPT = """
R1 <- select A from (select * from Alt1 choice of Pick) as T1 where A != 0;
R2 <- select A from (select * from Alt2 choice of Pick) as T2 where A != 0;
"""


def three_coloring_instance(
    n_vertices: int = 4, edge_probability: float = 0.7, seed: int = 9
) -> tuple[Relation, Relation]:
    """``(Cand, E)`` for a seeded random graph (symmetric edge closure)."""
    vertices, edges = random_graph(n_vertices, edge_probability, seed)
    return coloring_candidates(vertices), edge_relation(edges)


def scenarios(scale: str = "small") -> tuple[Scenario, ...]:
    """The differential-testing / benchmarking workload suite.

    *scale* ∈ {"small", "large"}: "small" keeps every scenario cheap
    enough for the explicit backend inside the test suite; "large"
    scales the world counts up for benchmarking (≥ 2¹⁰ worlds on the
    trip scenarios).
    """
    large = scale == "large"
    n_flights = 1024 if large else 12
    n_companies = 6 if large else 3
    n_census = 10 if large else 5
    trip_flights = flights(n_flights, 64 if large else 8, 3, seed=1)
    coloring_cand, coloring_edges = (
        three_coloring_instance(6, 0.5, seed=9)
        if large
        else three_coloring_instance(4, 0.7, seed=9)
    )
    company_emp, emp_skills = company(n_companies, 4, 5, 2, seed=2)
    dirty = census(n_census, duplicate_rate=0.8, seed=4)
    # A repair followed by DML on the repaired (factored, wild-column)
    # relation: pinned duplicates keep the world count feasible for the
    # explicit side while the inline side exercises the per-group id
    # factors through update/delete/insert and the key check.
    repair_dml_dirty = census(12 if large else 8, seed=6, duplicates=6 if large else 3)
    # "large" scales the what-if world space to 2⁷ (16 years × 8
    # quantities) so the asymptotic gap shows: the explicit engine pays
    # one aggregation pass per world while the inline backend aggregates
    # all worlds in one flat pass.
    items = lineitem(
        years=tuple(range(2002, 2018)) if large else (2002, 2003, 2004),
        n_products=8,
        n_quantities=8 if large else 3,
        rows_per_year=24 if large else 10,
        seed=2,
    )
    return (
        Scenario(
            name="trip_certain",
            relations=(("HFlights", trip_flights),),
            query="select certain Arr from HFlights choice of Dep;",
            approx_worlds=n_flights,
        ),
        Scenario(
            name="trip_possible_open",
            relations=(("HFlights", trip_flights),),
            query="select Dep, Arr from HFlights choice of Dep;",
            approx_worlds=n_flights,
        ),
        Scenario(
            name="acquisition",
            relations=(("Company_Emp", company_emp), ("Emp_Skills", emp_skills)),
            script=ACQUISITION_SCRIPT,
            query="select possible CID from W where Skill = 'S0';",
            approx_worlds=n_companies * 4,
        ),
        Scenario(
            name="acquisition_subquery_grouping",
            relations=(("Company_Emp", company_emp), ("Emp_Skills", emp_skills)),
            script=ACQUISITION_SCRIPT_SUBQUERY_GROUPING,
            query="select possible CID from W where Skill = 'S0';",
            approx_worlds=n_companies * 4,
        ),
        Scenario(
            name="census_repair",
            relations=(("Census", dirty),),
            script="Clean <- select * from Census repair by key SSN;",
            query="select certain SSN, Name from Clean;",
            approx_worlds=2**n_census,
        ),
        Scenario(
            name="census_repair_dml",
            relations=(("Census", repair_dml_dirty),),
            keys=(("Clean", ("SSN",)),),
            script=(
                "Clean <- select * from Census repair by key SSN;"
                "update Clean set POW = 'City0' where POW = 'City1';"
                "delete from Clean where POB = 'City2';"
                "insert into Clean values (-1, 'AUDIT', 'City0', 'City0');"
            ),
            query="select certain SSN, POW from Clean;",
            approx_worlds=2**6 if large else 2**3,
        ),
        Scenario(
            name="tpch_what_if",
            relations=(("Lineitem", items),),
            script=TPCH_SCRIPT,
            query=(
                "select possible Year from YearQuantity as Y "
                "where (select sum(Price) from Lineitem "
                "       where Lineitem.Year = Y.Year) - Y.Revenue > 1000;"
            ),
            approx_worlds=2**7 if large else 9,
        ),
        Scenario(
            name="dml_subquery_cleanup",
            relations=(
                (
                    "Bookings",
                    Relation(
                        ("Ref", "City", "Price"),
                        [
                            (1, "BCN", 80),
                            (2, "BCN", 15),
                            (3, "ATL", 55),
                            (4, "ATL", 95),
                            (5, "FRA", 40),
                        ],
                    ),
                ),
                (
                    "Fees",
                    Relation(
                        ("Town", "Fee"), [("BCN", 25), ("ATL", 35), ("FRA", 10)]
                    ),
                ),
            ),
            keys=(("B", ("Ref",)),),
            # DML over the *split* relation B with subqueries in the
            # condition, the set expression, and under OR — the ISSUE 4
            # residue, evaluated per world id on the flat table.
            script=(
                "B <- select * from Bookings choice of City;"
                "update B set Price = (select min(Fee) from Fees "
                "    where Town = City) + 100 "
                "  where City in (select Town from Fees) and Price < 50;"
                "delete from B where exists (select * from Fees "
                "    where Town = City and Fee > 30) or Price > 90;"
            ),
            query="select possible Ref, City, Price from B;",
            approx_worlds=3,
        ),
        Scenario(
            # NP-hard-shaped: 3^|V| guess worlds, a triangle-join check,
            # and a closing query whose non-emptiness decides
            # 3-colorability (possible vertices of violation-free worlds).
            name="three_coloring",
            relations=(("Cand", coloring_cand), ("E", coloring_edges)),
            script=THREE_COLORING_SCRIPT,
            query=(
                "select possible VID from Guess "
                "where not exists (select * from Bad);"
            ),
            approx_worlds=3**6 if large else 3**4,
        ),
        Scenario(
            name="uldb_genericity",
            relations=(
                ("Alt1", Relation(("Pick", "A"), [(1, 1), (2, 2), (3, 0)])),
                ("Alt2", Relation(("Pick", "A"), [(1, 2), (2, 0), (3, 1), (4, 0)])),
            ),
            script=ULDB_GENERICITY_SCRIPT,
            query="select possible A from R1 where A in (select A from R2);",
            approx_worlds=9,
        ),
        Scenario(
            name="dml_key_discard",
            relations=(
                ("Bookings", Relation(("Ref", "City"), [(1, "BCN"), (2, "ATL")])),
            ),
            keys=(("Bookings", ("Ref",)),),
            script=(
                "B <- select * from Bookings choice of City;"
                "insert into Bookings values (1, 'FRA');"
                "insert into Bookings values (3, 'FRA');"
                "update Bookings set City = 'PAR' where Ref = 3;"
                "delete from Bookings where City = 'ATL';"
            ),
            query="select possible Ref, City from Bookings;",
            approx_worlds=2,
        ),
    )


def xl_scenarios() -> tuple[Scenario, ...]:
    """Benchmark scenarios beyond the explicit backend's reach.

    These push the inline representation to the scales the paper's §8
    experiments argue for: world counts (2¹⁶) where one-pass-per-world
    evaluation cannot run at all, and representation sizes (≥10⁵ rows)
    where tuple-at-a-time constant factors dominate. They are
    *inline-only*: the benchmark records the explicit side as
    infeasible, and the kernel differential suite replays them columnar
    vs tuple instead of inline vs explicit.
    """
    trip = flights(2**16, 64, 3, seed=1)  # ~196k rows, 2¹⁶ choices of Dep
    # 13 key violations → 2¹³ repairs of a 24-person table: the repaired
    # relation inlines to 2¹³ × 24 ≈ 197k rows.
    dirty = census(24, seed=4, duplicates=13)
    # 2¹¹ companies × 8 employees: choice of CID × choice of EID builds
    # 2¹⁴ worlds, and the correlated self-join V holds ≈114k rows.
    company_emp, emp_skills = company(2048, 8, 12, 2, seed=2)
    # 2⁹ years × 2⁴ quantities: the Q17-like what-if view splits 2¹³
    # worlds; the aggregation-heavy statement set (choice-of inside a
    # from-subquery, NOT IN over a world-splitting subquery, GROUP BY
    # with sum, a correlated scalar aggregate subquery) runs entirely on
    # the inlined representation — one world per pass is out of reach.
    items_xl = lineitem(
        years=tuple(range(1500, 1500 + 2**9)),
        n_products=32,
        n_quantities=2**4,
        rows_per_year=8,
        seed=2,
    )
    # A DML-heavy what-if at 2¹³ worlds: repair a dirty census, then
    # region-normalize and scrub it with subquery-bearing update/delete
    # statements that run per world id on the flat tables — exactly the
    # statements that decoded 2¹³ explicit worlds before ISSUE 4.
    dml_dirty = census(24, seed=7, duplicates=13)
    dml_cities = max(24 // 2, 4)
    regions = Relation(
        ("City", "Region"),
        [(f"City{i}", f"Reg{i % 4}") for i in range(dml_cities)],
    )
    blocked = Relation(("Town",), [("City1",), ("City3",), ("City5",)])
    return (
        Scenario(
            # The DML batch pipeline's headline: one world per census
            # block (2¹⁶ worlds over a ~2·10⁵-row flat table), then a
            # five-statement subquery-free cleanup script against the
            # split relation — ``ISQLSession.run`` coalesces the whole run
            # into a single backend pass (updates, deletes and an
            # insert that lands one sentinel row in every world), so
            # the scenario measures per-statement pipeline throughput,
            # not per-statement recommit cost. The closing ``certain``
            # finds exactly the world-uniform sentinel.
            name="census_cleanup_dml_xxl",
            relations=(("Census", census_blocks(2**16)),),
            script=(
                "Clean <- select * from Census choice of Block;"
                "update Clean set POW = 'City0' where POW = 'City1';"
                "update Clean set Name = 'REDACTED' where SSN >= 150000;"
                "delete from Clean where POB = 'City2' or POB = 'City3';"
                "delete from Clean where SSN < 9000;"
                "insert into Clean values (-1, -1, 'AUDIT', 'City0', 'City0');"
            ),
            query="select certain SSN, Name from Clean;",
            approx_worlds=2**16,
            explicit_infeasible=True,
        ),
        Scenario(
            name="census_cleanup_dml_xl",
            relations=(
                ("Census", dml_dirty),
                ("Regions", regions),
                ("Blocked", blocked),
            ),
            script=(
                "Clean <- select * from Census repair by key SSN;"
                "update Clean set POW = (select min(Region) from Regions "
                "    where City = POW) "
                "  where POW in (select City from Regions);"
                "delete from Clean where exists (select * from Blocked "
                "    where Town = POB) or SSN > 1020;"
            ),
            query="select certain SSN, POW from Clean;",
            approx_worlds=2**13,
            explicit_infeasible=True,
        ),
        Scenario(
            name="trip_certain_2p16",
            relations=(("HFlights", trip),),
            query="select certain Arr from HFlights choice of Dep;",
            approx_worlds=2**16,
            explicit_infeasible=True,
        ),
        Scenario(
            name="census_repair_xl",
            relations=(("Census", dirty),),
            script="Clean <- select * from Census repair by key SSN;",
            query="select certain SSN, Name from Clean;",
            approx_worlds=2**13,
            explicit_infeasible=True,
        ),
        Scenario(
            name="acquisition_xl",
            relations=(("Company_Emp", company_emp), ("Emp_Skills", emp_skills)),
            script=ACQUISITION_SCRIPT,
            query="select possible CID from W where Skill = 'S0';",
            approx_worlds=2048 * 8,
            explicit_infeasible=True,
        ),
        Scenario(
            name="tpch_what_if_xl",
            relations=(("Lineitem", items_xl),),
            script=TPCH_SCRIPT,
            query=(
                "select possible Year from YearQuantity as Y "
                "where (select sum(Price) from Lineitem "
                "       where Lineitem.Year = Y.Year) - Y.Revenue > 1000;"
            ),
            approx_worlds=2**13,
            explicit_infeasible=True,
        ),
    )


def nightly_scenarios(
    names: Sequence[str] | None = None,
) -> tuple[Scenario, ...]:
    """Scale scenarios for the nightly benchmark job only.

    These sit beyond the PR-time benchmark budget: ``trip_certain_2p20``
    splits 2²⁰ worlds over a ~3·10⁶-row flat table — array-kernel
    territory, where per-row Python passes (the tuple and columnar
    kernels) stop being worth measuring at all. ``census_repair_2p20``
    reaches the same 2²⁰-world count the opposite way: 20 key-violating
    census blocks repaired into 20 independent per-group id factors, so
    the factored representation stays *sum*-sized (~10³ rows over a
    ~4·10³-row table) where the joint product encoding would need 2²⁰
    world-table rows. Both are kept out of :func:`xl_scenarios` so the
    PR-time XL budget asserts (and the 3-way kernel replays) do not pay
    the generation cost.

    *names*, when given, restricts which scenarios are *built* — the
    instances are expensive to generate, and the nightly benchmark
    selects one scenario per test.
    """
    wanted = None if names is None else set(names)

    def want(name: str) -> bool:
        return wanted is None or name in wanted

    out = []
    if want("trip_certain_2p20"):
        out.append(
            Scenario(
                name="trip_certain_2p20",
                relations=(("HFlights", flights(2**20, 64, 3, seed=1)),),
                query="select certain Arr from HFlights choice of Dep;",
                approx_worlds=2**20,
                explicit_infeasible=True,
            )
        )
    if want("census_repair_2p20"):
        out.append(
            Scenario(
                name="census_repair_2p20",
                relations=(("Census", census(4096, seed=5, duplicates=20)),),
                script="Clean <- select * from Census repair by key SSN;",
                query="select certain SSN, Name from Clean;",
                approx_worlds=2**20,
                explicit_infeasible=True,
            )
        )
    return tuple(out)


def random_graph(
    n_vertices: int, edge_probability: float, seed: int = 0
) -> tuple[list[str], list[tuple[str, str]]]:
    """A seeded Erdős–Rényi graph for the 3-colorability reduction."""
    rng = random.Random(seed + 5)
    vertices = [f"v{i}" for i in range(n_vertices)]
    edges = [
        (vertices[i], vertices[j])
        for i in range(n_vertices)
        for j in range(i + 1, n_vertices)
        if rng.random() < edge_probability
    ]
    return vertices, edges
