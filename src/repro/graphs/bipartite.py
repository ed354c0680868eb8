"""Bipartite (user -> item) graphs for Collaborative Filtering.

The paper evaluates CF on the Netflix ratings graph and on two synthetic
bipartite graphs produced "by converting the synthetic RMAT graphs
following the methodology described by Satish et al." (Section 6.2): RMAT
edges are reinterpreted as (user, item) ratings by folding the endpoint ids
into the two vertex classes, preserving RMAT's skew — a few very popular
items attract most edges, which is what gives CF its temporal locality
(the paper's NF discussion in Section 6.3.1).

Vertex numbering follows Graphicionado's single address space: users are
``0..num_users-1``, items are ``num_users..num_users+num_items-1``, and all
edges point from users to items.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.graphs.rmat import rmat_ids, uniform_ints


@dataclass(frozen=True)
class BipartiteShape:
    """Vertex-class sizes of a bipartite graph."""

    num_users: int
    num_items: int

    @property
    def num_vertices(self) -> int:
        """Total vertices across both classes."""
        return self.num_users + self.num_items


def bipartite_from_rmat(num_users: int, num_items: int, num_edges: int, *,
                        seed: int = 0) -> tuple[CSRGraph, BipartiteShape]:
    """Convert an RMAT edge list into a user->item ratings graph.

    The RMAT src id folds onto the user range and the dst id onto the item
    range (modulo fold keeps the skew: low ids — the RMAT hot quadrant —
    stay the hottest).  Ratings are integers in 1..5.
    """
    if num_users <= 0 or num_items <= 0:
        raise ValueError("both vertex classes must be non-empty")
    scale = max(int(np.ceil(np.log2(max(num_users, num_items)))), 1)
    # Folded in place on the generator's uint32 ids: the vertex range
    # (below 2**31, as scale <= 30) fits them.
    users, items = rmat_ids(scale, num_edges, seed=seed)
    np.remainder(users, num_users, out=users)
    np.remainder(items, num_items, out=items)
    items += num_users
    ratings = uniform_ints(1, 6, num_edges, seed + 2)
    shape = BipartiteShape(num_users=num_users, num_items=num_items)
    graph = CSRGraph.from_edges(users, items, shape.num_vertices,
                                weight=ratings)
    return graph, shape


def is_bipartite_user_item(graph: CSRGraph, shape: BipartiteShape) -> bool:
    """Check that every edge runs from the user range into the item range."""
    if graph.num_vertices != shape.num_vertices:
        return False
    src = np.repeat(np.arange(graph.num_vertices), np.diff(graph.offsets))
    return bool(np.all(src < shape.num_users)
                and np.all(graph.dst >= shape.num_users))
