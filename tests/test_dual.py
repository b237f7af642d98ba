from __future__ import annotations

import time
from fractions import Fraction
from types import SimpleNamespace

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicplanar.dual import (
    KITE,
    TETRAHEDRON,
    TRIANGLE,
    DualLink,
    DualNode,
    GeneralizedDual,
    LevelMap,
    build_dual,
    check_adjacency_rules,
    check_dual_structure,
    compute_levels,
    find_flips,
    is_kite_triangle_bipartite,
    kite_flip,
    quarter_sphere_accounting,
)
from nicplanar.embedding import (
    Face,
    embed_with_crossings,
    trace_faces,
    verify_maximal_embedding,
    verify_nic,
)
from nicplanar.errors import (
    AccountingViolation,
    LevelExceedsTwo,
    NotMaximalEmbedding,
    PreconditionViolated,
)
from nicplanar.generate import (
    gen_densest_intermediate,
    gen_nested_k5,
    gen_optimal,
    gen_sparsest,
)
from nicplanar.graph import is_triconnected, new_graph

from bruteforce import brute_triconnected
from flipcheck import flip_and_check

HALF = Fraction(1, 2)


def flip_fixture():
    """K6 minus the edges 0-5 and 1-4, drawn with 2-3 crossing 4-5.

    Small enough to enumerate faces and flips by hand: one kite on
    2, 3, 4, 5 and six triangle faces around it.
    """
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5),
             (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]
    return embed_with_crossings(new_graph(6, edges), [((2, 3), (4, 5))])


def tri_face(a, b, c):
    return Face((a, b, c))


def synthetic(nodes, links, faces=(), embedding=None):
    face_node = [-1] * len(faces)
    for idx, node in enumerate(nodes):
        for f in node.faces:
            if f < len(face_node):
                face_node[f] = idx
    return GeneralizedDual(tuple(nodes), tuple(links), tuple(face_node),
                           tuple(faces), embedding)


# --- grouping ---


class TestBuildDual:
    def test_fixture_faces_and_census(self):
        emb = flip_fixture()
        assert sorted(tuple(sorted(f.corners)) for f in trace_faces(emb)) == [
            (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 4), (1, 2, 5),
            (1, 3, 5), (2, 4, 6), (2, 5, 6), (3, 4, 6), (3, 5, 6),
        ]
        dual = build_dual(emb)
        assert dual.census() == {KITE: 1, TETRAHEDRON: 0, TRIANGLE: 6}
        assert len(dual) == 7
        assert dual.node_identity(0) == (2, 3, 4, 5, 6)

    def test_every_face_lands_in_exactly_one_node(self):
        dual = build_dual(gen_nested_k5(2).embedding)
        seen = sorted(f for node in dual.nodes for f in node.faces)
        assert seen == list(range(len(dual.faces)))
        assert all(dual.face_node[f] == i
                   for i, node in enumerate(dual.nodes) for f in node.faces)

    def test_links_never_touch_their_anchor(self):
        dual = build_dual(gen_sparsest(2).embedding)
        for link in dual.links:
            for side in (link.a, link.b):
                assert dual.nodes[side].anchor not in link.via

    def test_skeleton_degrees_follow_node_kinds(self):
        dual = build_dual(gen_densest_intermediate(2, 1).embedding)
        degree = [0] * len(dual.nodes)
        for link in dual.links:
            degree[link.a] += 1
            degree[link.b] += 1
        want = {KITE: 4, TETRAHEDRON: 3, TRIANGLE: 3}
        assert degree == [want[n.kind] for n in dual.nodes]

    def test_rejects_planar_k4(self):
        emb = embed_with_crossings(
            new_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]), [])
        with pytest.raises(NotMaximalEmbedding, match="claimed by both"):
            build_dual(emb)

    def test_rejects_non_triangular_faces(self):
        emb = embed_with_crossings(
            new_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), [])
        with pytest.raises(NotMaximalEmbedding, match="expected 3"):
            build_dual(emb)


# --- frozen values across the generator families ---

FAMILY_TABLE = [
    ("optimal-2", lambda: gen_optimal(2), (6, 0, 8), {Fraction(4)}, 24),
    ("optimal-3", lambda: gen_optimal(3), (9, 0, 12), {Fraction(4)}, 36),
    ("optimal-5", lambda: gen_optimal(5), (15, 0, 20), {Fraction(4)}, 60),
    ("sparsest-1", lambda: gen_sparsest(1), (1, 2, 2), {Fraction(14)}, 14),
    ("sparsest-2", lambda: gen_sparsest(2), (2, 4, 4), {Fraction(14)}, 28),
    ("sparsest-3", lambda: gen_sparsest(3), (3, 6, 6), {Fraction(14)}, 42),
    ("nested-2", lambda: gen_nested_k5(2), (6, 0, 20), {Fraction(7)}, 42),
    ("nested-3", lambda: gen_nested_k5(3), (12, 0, 38),
     {Fraction(13, 2), Fraction(7)}, 81),
    ("nested-4", lambda: gen_nested_k5(4), (18, 0, 56),
     {Fraction(13, 2), Fraction(7)}, 120),
    ("densest-2-1", lambda: gen_densest_intermediate(2, 1), (6, 1, 7),
     {Fraction(4), Fraction(5)}, 27),
    ("densest-3-1", lambda: gen_densest_intermediate(3, 1), (9, 1, 11),
     {Fraction(4), Fraction(5)}, 39),
    ("densest-4-2", lambda: gen_densest_intermediate(4, 2), (13, 0, 18),
     {Fraction(4), Fraction(17, 4)}, 53),
    ("densest-8-2", lambda: gen_densest_intermediate(8, 2), (25, 0, 34),
     {Fraction(4), Fraction(17, 4)}, 101),
    ("densest-2-3", lambda: gen_densest_intermediate(2, 3), (7, 0, 12),
     {Fraction(4), Fraction(17, 4), Fraction(5), Fraction(13, 2)}, 32),
    ("densest-3-3", lambda: gen_densest_intermediate(3, 3), (10, 0, 16),
     {Fraction(4), Fraction(17, 4), Fraction(5), Fraction(13, 2)}, 44),
    ("densest-2-4", lambda: gen_densest_intermediate(2, 4), (8, 0, 12),
     {Fraction(17, 4)}, 34),
    ("densest-6-4", lambda: gen_densest_intermediate(6, 4), (20, 0, 28),
     {Fraction(4), Fraction(17, 4)}, 82),
]


@pytest.mark.parametrize("label,make,census,totals,grand",
                         FAMILY_TABLE, ids=[row[0] for row in FAMILY_TABLE])
def test_family_dual_frozen_values(label, make, census, totals, grand):
    emb = make().embedding
    dual = build_dual(emb)
    got = dual.census()
    assert (got[KITE], got[TETRAHEDRON], got[TRIANGLE]) == census
    assert check_adjacency_rules(dual).ok
    assert check_dual_structure(dual) == ()
    account = quarter_sphere_accounting(dual)
    assert set(account.totals) == totals
    assert account.grand_total == grand
    assert account.grand_total == emb.base.m - 2 * len(emb.registry)


@pytest.mark.parametrize("label,make,census,totals,grand",
                         FAMILY_TABLE, ids=[row[0] for row in FAMILY_TABLE])
def test_triconnectivity_matches_oracles_on_family_skeletons(
        label, make, census, totals, grand):
    skeleton = build_dual(make().embedding).skeleton()
    # check_dual_structure derives planarity from the construction
    assert nx.check_planarity(nx.Graph(skeleton.edges))[0]
    # The skeleton itself, then about eight copies with one link removed.
    # Kite nodes are never adjacent, so every link ends at a node of
    # degree 3 and each removal leaves a separating pair.
    variants = [skeleton] + [
        new_graph(skeleton.n, skeleton.edges[:i] + skeleton.edges[i + 1:])
        for i in range(0, skeleton.m, max(1, skeleton.m // 8))
    ]
    for g in variants:
        h = nx.Graph(g.edges)
        expected = nx.node_connectivity(h) >= 3
        assert brute_triconnected(g) == expected
        assert is_triconnected(g) == expected


def test_bipartite_only_for_the_optimal_family():
    assert is_kite_triangle_bipartite(build_dual(gen_optimal(3).embedding))
    assert not is_kite_triangle_bipartite(build_dual(gen_sparsest(2).embedding))
    assert not is_kite_triangle_bipartite(build_dual(gen_nested_k5(2).embedding))
    assert not is_kite_triangle_bipartite(build_dual(flip_fixture()))


# --- levels ---


class TestLevels:
    def test_fixture_levels_and_marks_per_face(self):
        dual = build_dual(flip_fixture())
        levels = compute_levels(dual)
        by_face = {}
        for idx, node in enumerate(dual.nodes):
            if node.kind == TRIANGLE:
                corners = tuple(sorted(dual.faces[node.faces[0]].corners))
                by_face[corners] = (levels[idx], levels.marked[idx])
        assert by_face == {
            (0, 1, 2): (2, False),
            (0, 1, 3): (2, False),
            (0, 2, 4): (1, True),
            (0, 3, 4): (1, True),
            (1, 2, 5): (1, True),
            (1, 3, 5): (1, True),
        }
        kite_index = next(i for i, n in enumerate(dual.nodes) if n.kind == KITE)
        assert levels[kite_index] == 0

    def test_optimal_family_is_level_one(self):
        levels = compute_levels(build_dual(gen_optimal(2).embedding))
        assert max(levels.levels) == 1

    def test_nested_family_reaches_level_two(self):
        levels = compute_levels(build_dual(gen_nested_k5(3).embedding))
        assert max(levels.levels) == 2

    def test_no_kite_means_no_levels(self):
        octahedron = new_graph(6, [
            (a, b) for a in range(6) for b in range(a + 1, 6)
            if {a, b} not in ({0, 5}, {1, 4}, {2, 3})
        ])
        dual = build_dual(embed_with_crossings(octahedron, []))
        with pytest.raises(LevelExceedsTwo, match="no kite node"):
            compute_levels(dual)

    def test_distance_three_from_every_kite_is_rejected(self):
        # hexagonal bipyramid (hubs 6 and 7) with a kite wedged into the
        # face 6-0-1; the far hub's faces sit three steps from the kite
        rim = [(i, (i + 1) % 6) for i in range(6)]
        spokes = [(6, i) for i in range(6)] + [(7, i) for i in range(6)]
        pocket = [(6, 8), (8, 9), (9, 10), (10, 6), (0, 8), (0, 9),
                  (0, 10), (1, 10), (6, 9), (8, 10)]
        emb = embed_with_crossings(new_graph(11, rim + spokes + pocket),
                                   [((6, 9), (8, 10))])
        assert verify_nic(emb).ok
        dual = build_dual(emb)
        with pytest.raises(LevelExceedsTwo, match="beyond distance two"):
            compute_levels(dual)


# --- adjacency rules on synthetic duals ---


class TestAdjacencyRules:
    host = new_graph(6, [(2, 3)])

    def rules_of(self, dual, host=None):
        report = check_adjacency_rules(dual, host or self.host)
        return {v.rule for v in report.violations}

    def test_checked_names_are_stable(self):
        report = check_adjacency_rules(build_dual(flip_fixture()))
        assert report.checked == (
            "dual-degree",
            "dual-rule-kite-kite",
            "dual-rule-tetra-neighbours",
            "dual-rule-tetra-marked",
            "dual-rule-unmarked-pair",
            "dual-rule-triangle-pair",
        )
        assert report.ok

    def test_adjacent_kites_are_flagged(self):
        dual = synthetic(
            (DualNode(KITE, (0,), 90), DualNode(KITE, (1,), 91)),
            (DualLink(0, 1, (0, 1), 0, 1),),
            (tri_face(0, 1, 2), tri_face(0, 1, 3)),
        )
        assert "dual-rule-kite-kite" in self.rules_of(dual)

    def test_tetrahedron_neighbour_restrictions(self):
        pair = synthetic(
            (DualNode(TETRAHEDRON, (0,), 5), DualNode(TETRAHEDRON, (1,), 6)),
            (DualLink(0, 1, (0, 1), 0, 1),),
            (tri_face(0, 1, 2), tri_face(0, 1, 3)),
        )
        assert "dual-rule-tetra-neighbours" in self.rules_of(pair)
        against_unmarked = synthetic(
            (DualNode(TETRAHEDRON, (0,), 5), DualNode(TRIANGLE, (1,), -1)),
            (DualLink(0, 1, (0, 1), 0, 1),),
            (tri_face(0, 1, 2), tri_face(0, 1, 3)),
        )
        assert "dual-rule-tetra-neighbours" in self.rules_of(against_unmarked)

    def test_lone_tetrahedron_is_unmarked(self):
        dual = synthetic((DualNode(TETRAHEDRON, (0,), 5),), (),
                         (tri_face(0, 1, 2),))
        assert "dual-rule-tetra-marked" in self.rules_of(dual)

    def test_unmarked_pair_needs_the_apex_edge(self):
        dual = synthetic(
            (DualNode(TRIANGLE, (0,), -1), DualNode(TRIANGLE, (1,), -1)),
            (DualLink(0, 1, (0, 1), 0, 1),),
            (tri_face(0, 1, 2), tri_face(0, 1, 3)),
        )
        without = new_graph(6, [(0, 1)])
        assert "dual-rule-unmarked-pair" in self.rules_of(dual, without)
        with_apex = new_graph(6, [(0, 1), (2, 3)])
        assert "dual-rule-unmarked-pair" not in self.rules_of(dual, with_apex)

    def test_two_unmarked_triangle_neighbours_are_too_many(self):
        dual = synthetic(
            (DualNode(TRIANGLE, (0,), -1), DualNode(TRIANGLE, (1,), -1),
             DualNode(TRIANGLE, (2,), -1)),
            (DualLink(0, 1, (0, 1), 0, 1), DualLink(0, 2, (1, 2), 0, 2)),
            (tri_face(0, 1, 2), tri_face(0, 1, 3), tri_face(1, 2, 4)),
        )
        host = new_graph(5, [(2, 3), (0, 4)])
        assert "dual-rule-triangle-pair" in self.rules_of(dual, host)

    def test_octahedron_dual_breaks_the_triangle_rules(self):
        octahedron = new_graph(6, [
            (a, b) for a in range(6) for b in range(a + 1, 6)
            if {a, b} not in ({0, 5}, {1, 4}, {2, 3})
        ])
        dual = build_dual(embed_with_crossings(octahedron, []))
        report = check_adjacency_rules(dual)
        assert {v.rule for v in report.violations} == {
            "dual-rule-unmarked-pair", "dual-rule-triangle-pair",
        }


# --- global structure ---


class TestDualStructure:
    def test_parallel_links_break_simplicity(self):
        dual = synthetic(
            (DualNode(TRIANGLE, (0,), -1), DualNode(TRIANGLE, (1,), -1)),
            (DualLink(0, 1, (0, 1), 0, 1), DualLink(0, 1, (1, 2), 0, 1)),
            (tri_face(0, 1, 2), tri_face(1, 2, 3)),
        )
        assert "dual-simple" in {v.rule for v in check_dual_structure(dual)}

    def test_low_connectivity_is_reported(self):
        nodes = tuple(DualNode(TRIANGLE, (), -1) for _ in range(4))
        links = tuple(DualLink(i, i + 1, (i, i + 1), 0, 0) for i in range(3))
        dual = synthetic(nodes, links)
        assert "dual-triconnected" in {v.rule for v in check_dual_structure(dual)}

    def test_tiny_duals_cannot_claim_triconnectivity(self):
        dual = synthetic((DualNode(TRIANGLE, (), -1),), ())
        rules = {v.rule for v in check_dual_structure(dual)}
        assert "dual-triconnected" in rules

    def test_families_are_clean(self):
        for emb in (gen_optimal(2).embedding, gen_sparsest(2).embedding,
                    gen_nested_k5(2).embedding, flip_fixture()):
            assert check_dual_structure(build_dual(emb)) == ()

    def test_large_optimal_dual_is_checked_in_seconds(self):
        dual = build_dual(gen_optimal(120).embedding)
        assert len(dual.nodes) == 840
        start = time.perf_counter()
        assert check_dual_structure(dual) == ()
        assert time.perf_counter() - start < 5.0


# --- weight accounting ---


class TestAccounting:
    def test_fixture_account(self):
        dual = build_dual(flip_fixture())
        account = quarter_sphere_accounting(dual)
        assert account.totals == (Fraction(11),)
        assert account.grand_total == 11
        quarters = account.quarters[0]
        assert [q.planar_edges for q in quarters] == [Fraction(9, 4)] * 4
        assert all(q.triangle_fraction == Fraction(3, 2) for q in quarters)
        assert all(q.tetrahedron_fraction == 0 for q in quarters)

    def test_optimal_quarters_are_exactly_half(self):
        dual = build_dual(gen_optimal(2).embedding)
        account = quarter_sphere_accounting(dual)
        for row in account.quarters:
            for q in row:
                assert q.planar_edges == HALF
                assert q.triangle_fraction == Fraction(1, 3)

    def test_sparsest_quarters_alternate_triangle_and_tetrahedron(self):
        dual = build_dual(gen_sparsest(1).embedding)
        account = quarter_sphere_accounting(dual)
        values = sorted(q.planar_edges for q in account.quarters[0])
        assert values == [Fraction(3, 2), Fraction(3, 2),
                          Fraction(9, 2), Fraction(9, 2)]
        whole_tetra = [q for q in account.quarters[0]
                       if q.planar_edges == Fraction(9, 2)]
        assert all(q.tetrahedron_fraction == 1 and q.triangle_fraction == 0
                   for q in whole_tetra)

    def test_empty_quarter_is_below_the_floor(self):
        faces = tuple(tri_face(0, 1, 10 + i) for i in range(4))
        faces += (tri_face(0, 1, 2),)
        dual = synthetic(
            (DualNode(KITE, (0, 1, 2, 3), 99), DualNode(TRIANGLE, (4,), -1)),
            (DualLink(0, 1, (0, 1), 0, 4),),
            faces,
        )
        with pytest.raises(AccountingViolation, match="below the 1/2"):
            quarter_sphere_accounting(dual, LevelMap((0, 1), (False, True)))

    def test_unattached_node_is_rejected(self):
        faces = tuple(tri_face(0, 1, 10 + i) for i in range(4))
        faces += (tri_face(0, 1, 2),)
        dual = synthetic(
            (DualNode(KITE, (0, 1, 2, 3), 99), DualNode(TRIANGLE, (4,), -1)),
            (),
            faces,
        )
        with pytest.raises(AccountingViolation, match="no kite-face attachment"):
            quarter_sphere_accounting(dual, LevelMap((0, 1), (False, False)))

    def test_overfull_quarter_needs_a_whole_tetrahedron(self):
        # three whole triangles on one face carry 9/2 without the excuse
        nodes = (DualNode(KITE, (0, 1, 2, 3), 99),)
        nodes += tuple(DualNode(TRIANGLE, (4 + i,), -1) for i in range(3))
        nodes += tuple(DualNode(TRIANGLE, (7 + i,), -1) for i in range(3))
        links = tuple(DualLink(0, 1 + i, (0, i), 0, 4 + i) for i in range(3))
        links += tuple(DualLink(0, 4 + i, (1, i), 1 + i, 7 + i)
                       for i in range(3))
        faces = tuple(tri_face(0, 1, 20 + i) for i in range(10))
        dual = synthetic(nodes, links, faces)
        levels = LevelMap((0,) + (1,) * 6, (False,) + (True,) * 6)
        with pytest.raises(AccountingViolation,
                           match="not a single whole tetrahedron"):
            quarter_sphere_accounting(dual, levels)

    def test_four_whole_tetrahedra_overflow_the_sphere(self):
        nodes = (DualNode(KITE, (0, 1, 2, 3), 99),)
        nodes += tuple(DualNode(TETRAHEDRON, (4 + i,), 50 + i)
                       for i in range(4))
        links = tuple(DualLink(0, 1 + i, (0, i), i, 4 + i) for i in range(4))
        faces = tuple(tri_face(0, 1, 30 + i) for i in range(8))
        dual = synthetic(nodes, links, faces)
        levels = LevelMap((0,) + (1,) * 4, (False,) + (True,) * 4)
        with pytest.raises(AccountingViolation, match=r"outside \[4, 14\]"):
            quarter_sphere_accounting(dual, levels)

    def test_grand_total_must_match_the_planar_edge_count(self):
        nodes = (DualNode(KITE, (0, 1, 2, 3), 99),)
        nodes += tuple(DualNode(TRIANGLE, (4 + i,), -1) for i in range(4))
        links = tuple(DualLink(0, 1 + i, (0, i), i, 4 + i) for i in range(4))
        faces = tuple(tri_face(0, 1, 30 + i) for i in range(8))
        levels = LevelMap((0,) + (1,) * 4, (False,) + (True,) * 4)

        clashing = SimpleNamespace(base=SimpleNamespace(m=100), registry=())
        dual = synthetic(nodes, links, faces, embedding=clashing)
        with pytest.raises(AccountingViolation, match="sphere totals sum"):
            quarter_sphere_accounting(dual, levels)

        matching = SimpleNamespace(base=SimpleNamespace(m=8), registry=())
        dual = synthetic(nodes, links, faces, embedding=matching)
        account = quarter_sphere_accounting(dual, levels)
        assert account.totals == (Fraction(8),)


# --- flips ---


class TestFindFlips:
    def test_fixture_catalogue_is_frozen(self):
        sites = find_flips(flip_fixture())
        assert [(s.kite, s.pair, s.shared_edge, s.tetra_edge, s.entry_index)
                for s in sites] == [
            ((2, 3, 4, 5), ((0, 1, 2), (0, 1, 3)), (0, 1), (2, 3), 0),
            ((2, 3, 4, 5), ((0, 2, 4), (0, 3, 4)), (0, 4), (2, 3), 0),
            ((2, 3, 4, 5), ((1, 3, 5), (1, 2, 5)), (1, 5), (2, 3), 0),
        ]

    def test_nested_catalogue(self):
        sites = find_flips(gen_nested_k5(2).embedding)
        assert len(sites) == 6
        assert sites == tuple(sorted(
            sites, key=lambda s: (s.shared_edge, s.tetra_edge)))
        first = sites[0]
        assert first.kite == (2, 3, 16, 17)
        assert first.pair == ((0, 2, 17), (0, 16, 17))
        assert first.shared_edge == (0, 17)
        assert first.tetra_edge == (2, 16)
        assert first.entry_index == 5

    def test_bipartite_duals_have_no_sites(self):
        assert find_flips(gen_optimal(2).embedding) == ()

    def test_sparsest_family_has_no_sites(self):
        # every triangle-triangle adjacency there runs through a
        # tetrahedron node, so no face pair qualifies
        for k in (1, 2, 3):
            assert find_flips(gen_sparsest(k).embedding) == ()


class TestKiteFlip:
    def test_unmarked_flip_rewrites_the_registry(self):
        emb = flip_fixture()
        site = find_flips(emb)[0]
        flipped = flip_and_check(emb, site)
        assert flipped.registry.pairs() == (((0, 1), (2, 3)),)
        assert sorted(tuple(sorted(f.corners))
                      for f in trace_faces(flipped)) == [
            (0, 2, 4), (0, 2, 6), (0, 3, 4), (0, 3, 6), (1, 2, 5),
            (1, 2, 6), (1, 3, 5), (1, 3, 6), (2, 4, 5), (3, 4, 5),
        ]
        assert build_dual(flipped).node_identity(0) == (0, 1, 2, 3, 6)

    def test_every_fixture_site_flips_cleanly(self):
        emb = flip_fixture()
        dual = build_dual(emb)
        levels = compute_levels(dual)
        marked_faces = {
            tuple(sorted(dual.faces[node.faces[0]].corners))
            for idx, node in enumerate(dual.nodes)
            if node.kind == TRIANGLE and levels.marked[idx]
        }
        sites = find_flips(emb)
        # one site is between unmarked faces, two touch the kite itself
        flags = [set(site.pair) <= marked_faces for site in sites]
        assert sorted(flags) == [False, True, True]
        for site in sites:
            flip_and_check(emb, site)

    def test_every_nested_site_flips_cleanly(self):
        emb = gen_nested_k5(2).embedding
        for site in find_flips(emb):
            flip_and_check(emb, site)

    def test_flip_is_an_involution(self):
        emb = flip_fixture()
        site = find_flips(emb)[0]
        flipped = kite_flip(emb, site.kite, site.pair)
        entry = emb.registry.entries[site.entry_index]
        partner = next(e for e in entry.pair if e != site.tetra_edge)
        reverse = [s for s in find_flips(flipped) if s.shared_edge == partner]
        assert len(reverse) == 1
        back = kite_flip(flipped, reverse[0].kite, reverse[0].pair)
        assert back.registry.pairs() == emb.registry.pairs()
        assert back.base.edge_set == emb.base.edge_set

    def test_nested_flip_is_an_involution(self):
        emb = gen_nested_k5(2).embedding
        site = find_flips(emb)[0]
        flipped = kite_flip(emb, site.kite, site.pair)
        assert flipped.registry.pairs()[5] == ((0, 17), (2, 16))
        reverse = [s for s in find_flips(flipped) if s.shared_edge == (3, 17)]
        assert len(reverse) == 1
        assert reverse[0].kite == (0, 2, 16, 17)
        back = kite_flip(flipped, reverse[0].kite, reverse[0].pair)
        assert back.registry.pairs() == emb.registry.pairs()

    def test_kite_name_may_include_the_dummy(self):
        emb = gen_nested_k5(2).embedding
        site = find_flips(emb)[0]
        flipped = kite_flip(emb, (2, 3, 16, 17, 23), site.pair)
        assert flipped.registry.pairs()[5] == ((0, 17), (2, 16))

    @pytest.mark.parametrize("make", [
        flip_fixture,
        lambda: gen_nested_k5(2).embedding,
        lambda: gen_nested_k5(3).embedding,
    ], ids=["fixture", "nested-2", "nested-3"])
    def test_flip_succeeds_exactly_at_listed_sites(self, make):
        emb = make()
        dual = build_dual(emb)
        listed = {(site.kite, frozenset(site.pair)) for site in find_flips(emb)}
        assert listed
        flipped = set()
        for entry in emb.registry:
            kite = tuple(sorted(entry.endpoints))
            for link in dual.links:
                pair = frozenset(
                    tuple(sorted(dual.faces[f].corners))
                    for f in (link.face_a, link.face_b))
                try:
                    kite_flip(emb, kite, tuple(pair))
                except PreconditionViolated:
                    continue
                flipped.add((kite, pair))
        assert flipped == listed

    def test_faces_may_be_named_in_either_order(self):
        emb = flip_fixture()
        for site in find_flips(emb):
            forward = kite_flip(emb, site.kite, site.pair)
            backward = kite_flip(emb, site.kite, site.pair[::-1])
            assert forward.registry.pairs() == backward.registry.pairs()

    def test_precondition_unknown_kite(self):
        with pytest.raises(PreconditionViolated, match="no crossing has"):
            kite_flip(flip_fixture(), (0, 1, 2, 3), ((0, 1, 2), (0, 1, 3)))

    def test_precondition_pair_not_adjacent(self):
        with pytest.raises(PreconditionViolated, match="no two adjacent faces"):
            kite_flip(flip_fixture(), (2, 3, 4, 5), ((0, 1, 2), (0, 3, 4)))

    def test_precondition_pair_must_be_plain_triangles(self):
        with pytest.raises(PreconditionViolated, match="not a plain triangle"):
            kite_flip(flip_fixture(), (2, 3, 4, 5), ((2, 4, 6), (0, 2, 4)))

    def test_precondition_pair_must_be_tetrahedral(self):
        with pytest.raises(PreconditionViolated, match="not tetrahedral"):
            kite_flip(flip_fixture(), (2, 3, 4, 5), ((0, 1, 2), (0, 2, 4)))

    def test_precondition_edge_must_cross_in_the_named_kite(self):
        emb = gen_nested_k5(2).embedding
        site = find_flips(emb)[0]
        with pytest.raises(PreconditionViolated, match="not a crossing edge"):
            kite_flip(emb, (0, 3, 6, 7), site.pair)

    def test_precondition_no_foreign_kite_on_the_pair(self):
        emb = gen_nested_k5(2).embedding
        with pytest.raises(PreconditionViolated, match="marked by a kite other"):
            kite_flip(emb, (2, 3, 16, 17), ((0, 3, 16), (0, 16, 17)))


# --- properties ---


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=2, max_value=8))
def test_optimal_spheres_always_total_four(k):
    account = quarter_sphere_accounting(build_dual(gen_optimal(k).embedding))
    assert set(account.totals) == {Fraction(4)}


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=1, max_value=6))
def test_sparsest_spheres_always_total_fourteen(k):
    account = quarter_sphere_accounting(build_dual(gen_sparsest(k).embedding))
    assert set(account.totals) == {Fraction(14)}


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=2, max_value=5))
def test_nested_grand_total_matches_planar_edges(k):
    emb = gen_nested_k5(k).embedding
    account = quarter_sphere_accounting(build_dual(emb))
    assert account.grand_total == emb.base.m - 2 * len(emb.registry)
