"""Helpers that only the tests use: a rooted tree from a bare parent map,
and the cover construction's traffic guardrail."""

from __future__ import annotations

import math
from typing import Mapping

from kt1sim.clustercomm import ClusterError, RootedTree


def tree_from_parent_map(root: int, parent: Mapping[int, int]) -> RootedTree:
    """The tree (root, parent) with layers derived; ClusterError if the
    root has a parent or some parent chain never reaches the root."""
    if root in parent:
        raise ClusterError("root must not have a parent")
    layer = {root: 0}
    for v in parent:
        chain = []
        x = v
        while x not in layer:
            chain.append(x)
            x = parent.get(x)
            if x is None or len(chain) > len(parent):
                raise ClusterError(f"parent chain from {v} never reaches root {root}")
        base = layer[x]
        for i, y in enumerate(reversed(chain), start=1):
            layer[y] = base + i
    return RootedTree(root=root, parent=dict(parent), layer=layer)


def message_bound(n: int, kappa: int, W: int, c_m: float) -> float:
    """Construction traffic guardrail c_m * n * kappa^2 * W * n^(1/kappa) * ln n."""
    return c_m * n * kappa * kappa * W * (n ** (1.0 / kappa)) * math.log(max(n, 2))
