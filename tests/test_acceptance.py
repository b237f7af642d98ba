"""Release checklist: one test per shipped guarantee.

`pytest -v tests/test_acceptance.py` reads as the checklist, one
pass/fail line per item.  Budgets and tolerances are pinned in the
asserts.  The two timing tests disable the garbage collector around the
measured region and keep the best of several runs, so they measure the
algorithm rather than the allocator; the growth-rate cap (2.5x per
doubling of n) leaves room for cache effects on top of linear work.
"""

from __future__ import annotations

import gc
import itertools
import random
import time
from fractions import Fraction

from flipcheck import flip_and_check

from nicplanar.dual import (
    build_dual,
    check_adjacency_rules,
    check_dual_structure,
    find_flips,
    is_kite_triangle_bipartite,
    quarter_sphere_accounting,
)
from nicplanar.embedding import (
    embed_with_crossings,
    verify_maximal_embedding,
    verify_nic,
)
from nicplanar.generate import (
    gen_densest_intermediate,
    gen_nested_k5,
    gen_optimal,
    gen_rac_counterexample,
    gen_sparsest,
    nested_k5_variant_count,
    np_gadget_embedding,
    np_gadget_transform,
)
from nicplanar.graph import new_graph
from nicplanar.k4 import list_k4
from nicplanar.oracle import brute_k4_catalog, oracle_maximal_nic
from nicplanar.recognize import recognize_optimal

INTERMEDIATE_CASES = [(2, 1), (4, 2), (2, 3), (2, 4)]
# one more repetition of each pattern: the layered shapes (i = 2, 4)
# grow in blocks of four annuli, the local insertions (i = 1, 3) by one
INTERMEDIATE_STEPPED = [(3, 1), (8, 2), (3, 3), (6, 4)]


def complete_graph(n):
    return new_graph(n, list(itertools.combinations(range(n), 2)))


def cycle_graph(n):
    return new_graph(n, [(i, (i + 1) % n) for i in range(n)])


def maximal_family_witnesses():
    """Embeddings from every maximal-family generator, small sizes."""
    out = []
    for k in (2, 3, 5):
        out.append(gen_optimal(k))
    for k in (1, 2, 3):
        out.append(gen_sparsest(k))
    for k, i in INTERMEDIATE_CASES:
        out.append(gen_densest_intermediate(k, i))
    for k, variant in ((2, 0), (2, 1), (3, 0)):
        out.append(gen_nested_k5(k, variant=variant))
    return out


def test_01_optimal_family_round_trips_under_ten_seconds():
    start = time.perf_counter()
    for k in range(2, 101):
        inst = gen_optimal(k)
        g = inst.graph
        assert (g.n, g.m) == (5 * k + 2, 18 * k)
        rec = recognize_optimal(g)
        assert rec.accepted
        assert len(rec.embedding.registry) == 3 * k
        assert verify_nic(rec.embedding).ok
        assert verify_maximal_embedding(rec.embedding).ok
    assert time.perf_counter() - start < 10.0


def test_02_recognition_time_grows_below_2_5x_per_doubling():
    sizes = [2 ** p for p in range(4, 13)]
    graphs = [gen_optimal(k).graph for k in sizes]
    runs = [3 if k <= 512 else 2 for k in sizes]
    timings = [float("inf")] * len(sizes)
    # each round times every size once, so a slow spell of the machine is
    # spread over the sizes instead of falling on the runs of one size
    for round_ in range(max(runs)):
        for i, g in enumerate(graphs):
            if round_ >= runs[i]:
                continue
            gc.collect()
            gc.disable()
            begin = time.perf_counter()
            rec = recognize_optimal(g)
            timings[i] = min(timings[i], time.perf_counter() - begin)
            gc.enable()
            assert rec.accepted
            del rec  # freed here, not inside the next size's timed call
    for smaller, larger in zip(timings, timings[1:]):
        assert larger <= 2.5 * smaller
    assert timings[-1] < 5.0  # n = 20482


def test_03_density_sandwich_holds_exactly_on_every_family():
    for inst in maximal_family_witnesses():
        g = inst.graph
        assert 16 * (g.n - 2) <= 5 * g.m <= 18 * (g.n - 2)
    for k in range(2, 31):
        g = gen_optimal(k).graph
        assert g.n == 5 * k + 2
        assert 5 * g.m == 18 * (g.n - 2)
        assert g.m == 18 * k
    for k in range(1, 13):
        g = gen_sparsest(k).graph
        assert g.n == 5 * k + 2
        assert 5 * g.m == 16 * (g.n - 2)
        assert g.m == 16 * k


def test_04_intermediate_densities_hit_the_exact_floor():
    for k, i in INTERMEDIATE_CASES + INTERMEDIATE_STEPPED:
        inst = gen_densest_intermediate(k, i)
        g = inst.graph
        assert g.m == 18 * (g.n - 2) // 5
        assert 5 * g.m != 18 * (g.n - 2)  # genuinely off the grid
        assert verify_nic(inst.embedding).ok


def test_05_duals_are_simple_planar_triconnected_and_rule_clean():
    for inst in maximal_family_witnesses():
        dual = build_dual(inst.embedding)
        assert check_dual_structure(dual) == ()
        assert check_adjacency_rules(dual).ok
    for k in (2, 3, 5):
        dual = build_dual(gen_optimal(k).embedding)
        assert is_kite_triangle_bipartite(dual)
        assert dual.census() == {
            "kite": 3 * k, "tetrahedron": 0, "triangle": 4 * k}


def test_06_sphere_accounting_is_exact_rational():
    for inst in maximal_family_witnesses():
        emb = inst.embedding
        account = quarter_sphere_accounting(build_dual(emb))
        for row in account.quarters:
            for quarter in row:
                assert quarter.planar_edges >= Fraction(1, 2)
                whole_tetra = (quarter.triangle_fraction == 0
                               and quarter.tetrahedron_fraction == 1)
                assert quarter.planar_edges <= 3 or whole_tetra
        planar_edges = emb.base.m - 2 * len(emb.registry)
        assert account.grand_total == Fraction(planar_edges)
        if inst.kind == "optimal":
            assert set(account.totals) == {Fraction(4)}
        if inst.kind == "sparsest":
            assert set(account.totals) == {Fraction(14)}


def test_07_optimal_kite_set_is_unique_and_matches_recognition():
    start = time.perf_counter()
    g = gen_optimal(2).graph
    rec = recognize_optimal(g)
    res = oracle_maximal_nic(g, optimal=True)
    assert res.feasible
    assert len(res.kite_sets) == 1
    assert res.kite_sets[0] == tuple(sorted(rec.kites))
    assert time.perf_counter() - start < 60.0


def _random_triangulation(n, rng):
    """Maximal planar graph grown by repeated face splits."""
    edges = {(0, 1), (0, 2), (1, 2)}
    faces = [(0, 1, 2), (0, 1, 2)]  # both sides of the starting triangle
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges |= {tuple(sorted((v, u))) for u in (a, b, c)}
        faces += [(a, b, v), (b, c, v), (a, c, v)]
    return new_graph(n, sorted(edges))


def test_08_negative_suite_rejects_everything_with_a_reason():
    suite = [complete_graph(5), complete_graph(6)]
    suite += [cycle_graph(n) for n in (5, 9, 12, 47, 96)]

    rng = random.Random(7)
    for n in range(5, 51, 3):
        suite.append(_random_triangulation(n, rng))

    all_edges = list(itertools.combinations(range(7), 2))
    complements = list(itertools.combinations(range(len(all_edges)), 3))
    rng = random.Random(1330)
    for picks in rng.sample(complements, 1024):
        dropped = set(picks)
        suite.append(new_graph(
            7, [e for j, e in enumerate(all_edges) if j not in dropped]))

    for k in (2, 3):
        base = gen_optimal(k).graph
        edge_set = set(base.edges)
        rng = random.Random(20260817 + k)
        for _ in range(10):
            drop = rng.choice(sorted(edge_set))
            candidates = [
                (u, v) for u in range(base.n) for v in range(u + 1, base.n)
                if (u, v) not in edge_set]
            add = rng.choice(candidates)
            rewired = (edge_set - {drop}) | {add}
            suite.append(new_graph(base.n, sorted(rewired)))

    assert len(suite) > 1000
    for g in suite:
        rec = recognize_optimal(g)
        assert not rec.accepted
        assert rec.reason is not None
        assert rec.embedding is None


def test_09_k4_listing_agrees_with_brute_force_within_budget():
    small = [complete_graph(n) for n in (4, 5, 6, 7)]
    small += [cycle_graph(8), gen_optimal(2).graph,
              gen_sparsest(1).graph, gen_sparsest(2).graph]
    small.append(new_graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2),
                               (1, 3), (1, 5), (2, 3), (2, 4), (2, 5),
                               (3, 4), (3, 5), (4, 5)]))
    for g in small:
        assert g.n <= 12
        assert set(list_k4(g).quads) == set(brute_k4_catalog(g))

    maximal = [inst.graph for inst in maximal_family_witnesses()]
    maximal += [gen_optimal(k).graph for k in (10, 20)]
    for g in maximal:
        catalog = list_k4(g)
        assert catalog.steps <= 256 * g.n
        assert len(catalog.quads) <= 27 * g.n

    rac = gen_rac_counterexample().graph
    assert list_k4(rac).steps <= 256 * rac.n


def test_10_nested_k5_has_eight_distinct_embedding_variants():
    assert nested_k5_variant_count(4) == 8
    registries = set()
    for variant in range(8):
        inst = gen_nested_k5(4, variant=variant)
        assert inst.graph.n == 48
        assert verify_nic(inst.embedding).ok
        registries.add(inst.embedding.registry)
    assert len(registries) == 8


def test_11_every_admissible_kite_flip_round_trips():
    fixture = embed_with_crossings(
        new_graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3),
                      (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5),
                      (4, 5)]),
        [((2, 3), (4, 5))])
    sites = find_flips(fixture)
    assert len(sites) == 3
    for site in sites:
        flip_and_check(fixture, site)

    for k, expected in ((2, 6), (3, 12)):
        emb = gen_nested_k5(k).embedding
        sites = find_flips(emb)
        assert len(sites) == expected
        for site in sites:
            flip_and_check(emb, site)

    # the sparsest family offers no admissible site: every
    # triangle-triangle contact runs through a tetrahedron node
    for k in (1, 2, 3):
        assert find_flips(gen_sparsest(k).embedding) == ()


def test_12_gadget_expansion_moves_crossings_onto_designated_edges():
    base = complete_graph(5)
    expanded, designated = np_gadget_transform(base)
    assert (expanded.n, expanded.m) == (65, 110)
    assert set(designated) == set(base.edges)

    emb = np_gadget_embedding(base, [((0, 1), (2, 3))])
    assert verify_nic(emb).ok
    assert (emb.base.n, tuple(emb.base.edges)) == (
        expanded.n, tuple(expanded.edges))
    (entry,) = emb.registry
    assert set(entry.pair) == {designated[(0, 1)], designated[(2, 3)]}
