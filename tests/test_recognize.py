"""Recognizer for optimal NIC-planar graphs.

Expected diagnostics (catalogue sizes, essential step counts) were frozen
from instrumented runs after checking them against hand counts on the
smallest family member.  The nonplanar star graph fixture is a hand-built
arrangement of nine K4 blocks whose sharing pattern subdivides K3,3, so
the collapsed graph cannot be planar while every other screen passes.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import nicplanar.recognize as recognize_module
from nicplanar.embedding import (
    NicEmbedding,
    embedding_to_json,
    trace_faces,
    verify_maximal_embedding,
    verify_nic,
)
from nicplanar.generate import gen_optimal
from nicplanar.graph import is_biconnected, new_graph
from nicplanar.k4 import list_k4
from nicplanar.planarity import test_planarity as planarity_check
from nicplanar.recognize import (
    ARBORICITY_TIMEOUT,
    EDGE_COUNT_MISMATCH,
    KITE_COVER_VIOLATION,
    NONPLANAR_STAR_GRAPH,
    STRUCTURALLY_INVALID,
    KiteSet,
    build_star_graph,
    embed_from_kites,
    embed_from_star_graph,
    recognize_optimal,
)


def complete_graph(n):
    return new_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


class TestDomainScreens:
    def test_too_few_vertices(self):
        res = recognize_optimal(complete_graph(4))
        assert not res.accepted
        assert res.reason == STRUCTURALLY_INVALID
        assert res.embedding is None and res.kites is None
        assert res.diagnostics["message"] == "n = 4 is below the n >= 5 domain"

    def test_empty_graph(self):
        res = recognize_optimal(new_graph(0, []))
        assert res.reason == STRUCTURALLY_INVALID

    @pytest.mark.parametrize("g, product", [
        (complete_graph(5), 50),
        (complete_graph(6), 75),
        (complete_graph(7), 105),
        (new_graph(7, [(i, (i + 1) % 7) for i in range(7)]), 35),
        (new_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), 20),
    ])
    def test_edge_count_gate(self, g, product):
        res = recognize_optimal(g)
        assert not res.accepted
        assert res.reason == EDGE_COUNT_MISMATCH
        target = 18 * (g.n - 2)
        assert product != target
        assert res.diagnostics["message"] == (
            f"5m = {product} differs from 18(n-2) = {target}")
        assert res.diagnostics["catalog_size"] is None

    def test_articulation_behind_the_edge_gate(self):
        # 8-clique plus three low-degree attachments and one pendant:
        # n = 12, m = 36 satisfies 5m = 18(n-2) but vertex 0 is a cut
        # vertex for the pendant, so the screen after the gate fires.
        core = [(u, v) for u, v in combinations(range(8), 2)]
        extra = [(0, 8), (1, 8), (2, 9), (3, 9), (4, 10), (5, 10), (6, 10), (0, 11)]
        g = new_graph(12, core + extra)
        assert 5 * g.m == 18 * (g.n - 2)
        assert not is_biconnected(g)
        res = recognize_optimal(g)
        assert res.reason == STRUCTURALLY_INVALID
        assert res.diagnostics["message"] == "graph is not biconnected"


class TestOptimalFamily:
    @pytest.mark.parametrize("k, steps", [(2, 184), (3, 276), (5, 460), (10, 920)])
    def test_family_members_accepted(self, k, steps):
        g = gen_optimal(k).graph
        res = recognize_optimal(g)
        assert res.accepted and res.reason is None
        assert len(res.kites) == 3 * k
        assert res.diagnostics == {
            "catalog_size": 3 * k,
            "kite_count": 3 * k,
            "essential_steps": steps,
        }
        emb = res.embedding
        assert len(emb.registry) == g.m - (3 * g.n - 6) == 3 * k
        assert verify_nic(emb).ok

    def test_family_sizes(self):
        g = gen_optimal(5).graph
        assert (g.n, g.m) == (27, 90)
        assert 5 * g.m == 18 * (g.n - 2)

    @pytest.mark.parametrize("k", [2, 3])
    def test_accepted_embedding_is_maximal(self, k):
        res = recognize_optimal(gen_optimal(k).graph)
        assert verify_maximal_embedding(res.embedding).ok

    def test_kites_partition_the_edges(self):
        g = gen_optimal(4).graph
        res = recognize_optimal(g)
        covered = [tuple(sorted(p)) for quad in res.kites for p in combinations(quad, 2)]
        assert sorted(covered) == list(g.edges)

    def test_deterministic_output(self):
        first = recognize_optimal(gen_optimal(3).graph)
        second = recognize_optimal(gen_optimal(3).graph)
        assert embedding_to_json(first.embedding) == embedding_to_json(second.embedding)
        assert first.kites.quads == second.kites.quads


class TestKiteCoverScreen:
    def test_every_dense_seven_vertex_graph_is_rejected(self):
        # All 1330 graphs on seven vertices with 18 edges pass the edge
        # count gate; none of them is optimal NIC-planar.
        full = [(u, v) for u, v in combinations(range(7), 2)]
        reasons = set()
        for dropped in combinations(range(21), 3):
            edges = [e for i, e in enumerate(full) if i not in dropped]
            res = recognize_optimal(new_graph(7, edges))
            assert not res.accepted
            reasons.add(res.reason)
        assert reasons == {KITE_COVER_VIOLATION, STRUCTURALLY_INVALID} or \
            reasons == {KITE_COVER_VIOLATION}

    def test_violation_message_names_an_edge(self):
        full = [(u, v) for u, v in combinations(range(7), 2)]
        edges = [e for e in full if e not in {(0, 1), (0, 2), (1, 2)}]
        res = recognize_optimal(new_graph(7, edges))
        assert res.reason == KITE_COVER_VIOLATION
        assert "expected exactly 1" in res.diagnostics["message"]
        assert res.diagnostics["catalog_size"] is not None

    def test_rewired_family_members_are_rejected(self):
        # Single edge rewires keep n and m, so only the structural
        # screens can catch them.
        base = gen_optimal(2).graph
        rng = random.Random(20260817)
        edge_set = set(base.edges)
        seen = 0
        while seen < 12:
            drop = rng.choice(sorted(edge_set))
            candidates = [tuple(sorted((u, v)))
                          for u in range(base.n) for v in range(u + 1, base.n)
                          if tuple(sorted((u, v))) not in edge_set]
            add = rng.choice(candidates)
            if add == drop:
                continue
            mutated = sorted((edge_set - {drop}) | {add})
            res = recognize_optimal(new_graph(base.n, mutated))
            assert not res.accepted, (drop, add)
            assert res.reason in (KITE_COVER_VIOLATION, NONPLANAR_STAR_GRAPH,
                                  STRUCTURALLY_INVALID)
            seen += 1


# Nine K4 blocks on 17 vertices.  Vertices 0..5 each sit in three blocks
# and play the branch vertices of a K3,3 whose paths run through the
# blocks; vertices 6..12 glue block pairs that the K3,3 pattern leaves
# apart, and 13..16 pad the remaining corners.  Any two blocks share at
# most one vertex, so the 54 block edges are pairwise distinct and the
# edge count gate holds exactly: 5 * 54 = 18 * 15.
K33_PATTERN_BLOCKS = [
    (0, 3, 6, 8),
    (0, 4, 9, 11),
    (0, 5, 12, 13),
    (1, 3, 12, 14),
    (1, 4, 6, 7),
    (1, 5, 9, 10),
    (2, 3, 10, 11),
    (2, 4, 15, 16),
    (2, 5, 7, 8),
]


class TestNonplanarStarGraph:
    def make(self):
        edges = sorted({tuple(sorted(p))
                        for blk in K33_PATTERN_BLOCKS
                        for p in combinations(blk, 2)})
        return new_graph(17, edges)

    def test_fixture_reaches_the_planarity_screen(self):
        g = self.make()
        assert (g.n, g.m) == (17, 54)
        assert 5 * g.m == 18 * (g.n - 2)
        assert is_biconnected(g)
        assert sorted(list_k4(g).quads) == K33_PATTERN_BLOCKS

    def test_kites_pin_no_embedding(self):
        g = self.make()
        assert embed_from_kites(g, KiteSet(tuple(K33_PATTERN_BLOCKS))) is None

    def test_rejected_for_nonplanarity(self):
        res = recognize_optimal(self.make())
        assert not res.accepted
        assert res.reason == NONPLANAR_STAR_GRAPH
        assert res.kites is None
        assert res.diagnostics == {
            "catalog_size": 9,
            "kite_count": 9,
            "essential_steps": 294,
            "message": "star graph is not planar",
        }


class TestStepBudget:
    def test_dense_core_trips_the_cap(self):
        # A 50-clique hiding behind enough cheap ring vertices to pass
        # the edge count gate.  K4 listing on the clique needs far more
        # than 256 steps per vertex, so the budget fires before the
        # catalogue is complete.
        core = [(u, v) for u, v in combinations(range(50), 2)]
        ring = [tuple(sorted((50 + i, 50 + (i + 1) % 662))) for i in range(662)]
        spokes = [tuple(sorted((50 + i, i % 50))) for i in range(662)]
        extra = [tuple(sorted((50 + i, (i + 13) % 50))) for i in range(7)]
        g = new_graph(712, sorted(set(core + ring + spokes + extra)))
        assert (g.n, g.m) == (712, 2556)
        assert 5 * g.m == 18 * (g.n - 2)
        assert is_biconnected(g)
        res = recognize_optimal(g)
        assert res.reason == ARBORICITY_TIMEOUT
        assert res.diagnostics["essential_steps"] == 182646
        assert res.diagnostics["essential_steps"] > 256 * g.n
        assert "too dense to qualify" in res.diagnostics["message"]

    def test_multiplier_is_respected(self):
        res = recognize_optimal(gen_optimal(2).graph, step_cap_multiplier=1)
        assert res.reason == ARBORICITY_TIMEOUT
        assert res.diagnostics["essential_steps"] == 78
        assert "(cap 12)" in res.diagnostics["message"]


class TestStarGraphConstruction:
    def test_single_kite_collapses_to_a_star(self):
        g = complete_graph(4)
        star = build_star_graph(g, KiteSet(((0, 1, 2, 3),)))
        assert (star.n, star.m) == (5, 4)
        assert star.edges == ((0, 4), (1, 4), (2, 4), (3, 4))

    def test_family_member_star(self):
        g = gen_optimal(2).graph
        res = recognize_optimal(g)
        star = build_star_graph(g, res.kites)
        # six kites: 36 kite edges leave, 24 star edges arrive
        assert (star.n, star.m) == (18, 24)
        # dummy 12 + i is the star of the i-th kite in sorted order
        for z, quad in enumerate(sorted(res.kites), start=12):
            assert star.adjacency[z] == quad
        assert planarity_check(star).planar

    def test_empty_kite_set_is_the_identity(self):
        g = new_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        star = build_star_graph(g, KiteSet(()))
        assert star.n == g.n and star.edges == g.edges


class TestKiteReinsertion:
    def test_single_kite_round_trip(self):
        g = complete_graph(4)
        kites = KiteSet(((0, 1, 2, 3),))
        emb = embed_from_star_graph(g, kites)
        assert emb.base.edges == g.edges
        assert len(emb.registry) == 1
        entry = emb.registry.entries[0]
        assert entry.dummy == 4
        assert entry.pair == ((0, 2), (1, 3))
        assert (emb.planarization.n, emb.planarization.m) == (5, 8)
        assert [f.corners for f in trace_faces(emb)] == [
            (0, 1, 2, 3), (0, 3, 4), (0, 4, 1), (1, 4, 2), (2, 4, 3)]
        assert verify_nic(emb).ok

    def test_empty_kite_set_round_trip(self):
        g = new_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        emb = embed_from_star_graph(g, KiteSet(()))
        assert emb.base.edges == g.edges
        assert emb.planarization.edges == g.edges
        assert len(emb.registry) == 0


def _named_faces(emb, relabel):
    """Faces as canonical corner cycles, with the base vertices mapped
    through ``relabel`` and each dummy named by its kite's corner set."""
    kite_of = {entry.dummy: tuple(sorted(relabel[v] for v in entry.endpoints))
               for entry in emb.registry}

    def name(v):
        return (1, kite_of[v]) if emb.is_dummy(v) else (0, relabel[v])

    out = set()
    for face in trace_faces(emb):
        cyc = [name(v) for v in face.corners]
        k = cyc.index(min(cyc))
        out.add(tuple(cyc[k:] + cyc[:k]))
    return out


def _mirrored(faces):
    out = set()
    for cyc in faces:
        rev = cyc[::-1]
        k = rev.index(min(rev))
        out.add(rev[k:] + rev[:k])
    return out


def relabeled_drum(k, seed):
    """The k-column drum under a seeded vertex permutation, with its
    edges listed in a seeded order; returns the permutation too."""
    g = gen_optimal(k).graph
    rng = random.Random(seed)
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    rng.shuffle(edges)
    return new_graph(g.n, edges), perm


class TestUniqueEmbedding:
    """The recognizer finds the drum's one embedding under any labeling."""

    @pytest.mark.parametrize("k", list(range(2, 41)) + [300])
    def test_relabeled_drum_faces_match_the_generator(self, k):
        inst = gen_optimal(k)
        relabeled, perm = relabeled_drum(k, 7919 * k)
        res = recognize_optimal(relabeled)
        assert res.accepted
        identity = list(range(relabeled.n))
        found = _named_faces(res.embedding, identity)
        expected = _named_faces(inst.embedding, perm)
        # one embedding up to the mirror image, which no labeling fixes
        assert found in (expected, _mirrored(expected))


class TestEmbeddingFromKites:
    """The embedding read off the kites against the star-graph path."""

    @pytest.mark.parametrize("k", list(range(2, 41)) + [300])
    def test_matches_the_star_graph_path(self, k):
        g, _ = relabeled_drum(k, 104729 * k)
        kites = recognize_optimal(g).kites
        fast = embed_from_kites(g, kites)
        slow = embed_from_star_graph(g, kites)
        assert fast is not None and verify_nic(fast).ok
        assert fast.planarization == slow.planarization
        assert fast.registry == slow.registry
        identity = list(range(g.n))
        found = _named_faces(fast, identity)
        expected = _named_faces(slow, identity)
        assert found in (expected, _mirrored(expected))

    def test_orientation_follows_the_smallest_kite(self):
        # the face between the smallest kite's smallest corner and the
        # smaller of that corner's two neighbours on the kite's cycle is
        # walked from the corner to that neighbour
        g, _ = relabeled_drum(7, 31)
        kites = recognize_optimal(g).kites
        emb = embed_from_kites(g, kites)
        entry = emb.registry.entries[0]
        assert entry.dummy == g.n
        corner = min(entry.endpoints)
        across = entry.second if corner in entry.first else entry.first
        wedge = (corner, min(across), entry.dummy)
        walks = {face.corners[i:] + face.corners[:i]
                 for face in trace_faces(emb) for i in range(len(face))}
        assert wedge in walks
        assert embed_from_kites(g, kites).rotations == emb.rotations

    def test_empty_kite_set_pins_nothing(self):
        g = new_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert embed_from_kites(g, KiteSet(())) is None

    def test_corrupted_fast_path_falls_back(self, monkeypatch):
        g, _ = relabeled_drum(6, 11)
        expected = recognize_optimal(g).diagnostics
        fallbacks = []

        def corrupted(graph, kites):
            emb = embed_from_kites(graph, kites)
            rotations = list(emb.rotations)
            rotations[0] = rotations[0][::-1]
            return NicEmbedding(emb.base, emb.registry.pairs(),
                                tuple(rotations))

        def counted(graph, kites):
            fallbacks.append(len(kites))
            return build_star_graph(graph, kites)

        monkeypatch.setattr(recognize_module, "embed_from_kites", corrupted)
        monkeypatch.setattr(recognize_module, "build_star_graph", counted)
        res = recognize_optimal(g)
        assert res.accepted
        assert fallbacks == [18]
        assert verify_nic(res.embedding).ok
        assert res.diagnostics == expected

    @given(st.integers(2, 12), st.integers(0, 2 ** 32 - 1))
    def test_relabeled_drums_take_the_fast_path(self, k, seed):
        g, _ = relabeled_drum(k, seed)

        def refuse(*args):
            raise AssertionError("the star-graph path ran")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(recognize_module, "build_star_graph", refuse)
            mp.setattr(recognize_module, "test_planarity", refuse)
            res = recognize_optimal(g)
        assert res.accepted and res.reason != NONPLANAR_STAR_GRAPH
        assert len(res.embedding.registry) == 3 * k
