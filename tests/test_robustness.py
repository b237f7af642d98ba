"""Every public entry point that takes an embedding is total.

Family members are broken the ways a hand-written or truncated document
breaks them: a crossing pair dropped, the rotation system cut short or
run long, a rotation with a repeated neighbour, a missing neighbour, an
out-of-range id or a reordering.  Each verifier, the dual and its
checks, the flip finder and each renderer must then return a value or
raise a :class:`NicplanarError` subclass, never another exception.
"""

from __future__ import annotations

import contextlib
from itertools import combinations

from hypothesis import example, given
from hypothesis import strategies as st

from nicplanar.dual import (
    build_dual,
    check_adjacency_rules,
    check_dual_structure,
    find_flips,
    quarter_sphere_accounting,
)
from nicplanar.embedding import (
    NicEmbedding,
    embedding_to_doc,
    verify_maximal_embedding,
    verify_nic,
)
from nicplanar.errors import NicplanarError
from nicplanar.generate import (
    gen_densest_intermediate,
    gen_nested_k5,
    gen_optimal,
    gen_rac_counterexample,
    gen_sparsest,
)
from nicplanar.graph import new_graph
from nicplanar.render import dual_to_dot, embedding_to_dot, embedding_to_svg

MEMBERS = tuple(inst.embedding for inst in (
    gen_optimal(2), gen_sparsest(1), gen_sparsest(2),
    gen_densest_intermediate(2, 1), gen_nested_k5(2),
    gen_rac_counterexample()))

K4 = new_graph(4, list(combinations(range(4), 2)))
KITE_PAIRS = [((0, 2), (1, 3))]


@st.composite
def broken_embeddings(draw):
    """(base, pairs, rotations) of a broken family member; hypothesis
    cannot print a ``NicEmbedding``, whose pairs are an init-only field."""
    emb = draw(st.sampled_from(MEMBERS))
    size = emb.planarization.n
    pairs = [entry.pair for entry in emb.registry]
    rotations = [list(rot) for rot in emb.rotations]
    if draw(st.booleans()):
        del pairs[draw(st.integers(0, len(pairs) - 1))]
    for _ in range(draw(st.integers(0, 2))):
        rot = rotations[draw(st.integers(0, size - 1))]
        i = draw(st.integers(0, len(rot) - 1))
        edit = draw(st.sampled_from(
            ("repeat", "drop", "low", "high", "reorder")))
        if edit == "repeat":
            rot.insert(i, rot[draw(st.integers(0, len(rot) - 1))])
        elif edit == "drop":
            del rot[i]
        elif edit == "low":
            rot[i] = -1
        elif edit == "high":
            rot[i] = size + 1
        else:
            rot[:] = draw(st.permutations(rot))
    count = draw(st.sampled_from(("same", "short", "long")))
    if count == "short":
        del rotations[draw(st.integers(0, size - 1)):]
    elif count == "long":
        rotations += draw(st.lists(st.lists(st.integers(-1, size + 1),
                                            max_size=4),
                                   min_size=1, max_size=3))
    return emb.base, pairs, tuple(map(tuple, rotations))


def _entry_points(emb):
    """Each call a caller may make on ``emb``."""
    yield lambda: verify_nic(emb)
    yield lambda: verify_maximal_embedding(emb)
    yield lambda: find_flips(emb)
    yield lambda: embedding_to_doc(emb)
    yield lambda: embedding_to_dot(emb)
    yield lambda: embedding_to_svg(emb)
    try:
        dual = build_dual(emb)
    except NicplanarError:
        return
    yield lambda: check_adjacency_rules(dual)
    yield lambda: check_dual_structure(dual)
    yield lambda: quarter_sphere_accounting(dual)
    yield lambda: dual_to_dot(dual)


@given(broken_embeddings())
@example((K4, KITE_PAIRS, ()))
@example((K4, KITE_PAIRS, tuple(K4.adjacency)))
@example((MEMBERS[0].base, [e.pair for e in MEMBERS[0].registry],
          MEMBERS[0].rotations))
def test_entry_points_return_or_raise_a_package_error(case):
    # any other exception fails the test with its traceback
    for call in _entry_points(NicEmbedding(*case)):
        with contextlib.suppress(NicplanarError):
            call()
