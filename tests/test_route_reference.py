"""Differential test of route maps against a reference copy of the
source-routed batches they replaced.

The reference sends, per first hop, a batch of (path, idx, *data) entries,
path being the whole root-to-target tree path; every hop splits the batch
it receives into the entries that end at it and regrouped batches for its
next hops.  Both forms must send the same (sender, receiver) messages and
hand every target its data exactly once; the root is never sent a route.
"""

from typing import Dict, List, Tuple

import pytest
from hypothesis import example, given, settings, strategies as st

from kt1sim.clustercomm import ClusterError, route_map


def _reference_source_route(root, parent, targets):
    groups: Dict[int, List[Tuple]] = {}
    for item in targets:
        path = []
        x = item[0]
        while x != root:
            path.append(x)
            x = parent[x]
        path.reverse()
        groups.setdefault(path[0], []).append((tuple(path), 1) + item[1:])
    return [(hop, tuple(groups[hop])) for hop in sorted(groups)]


def _reference_split_routes(entries):
    here: List[Tuple] = []
    groups: Dict[int, List[Tuple]] = {}
    for entry in entries:
        path, idx = entry[0], entry[1]
        if idx == len(path):
            here.append(entry[2:])
        else:
            groups.setdefault(path[idx], []).append((path, idx + 1) + entry[2:])
    return here, [(hop, tuple(groups[hop])) for hop in sorted(groups)]


def _deliver_reference(root, parent, data_at):
    """(sender, receiver) messages in send order and data received per node."""
    sends = [(root, hop, batch) for hop, batch in
             _reference_source_route(root, parent, [(t, d) for t, d in data_at.items()])]
    messages, got = [], {}
    while sends:
        src, dst, batch = sends.pop(0)
        messages.append((src, dst))
        here, onward = _reference_split_routes(batch)
        for (d,) in here:
            got.setdefault(dst, []).append(d)
        sends.extend((dst, hop, fwd) for hop, fwd in onward)
    return messages, got


def _deliver_route_map(root, parent, data_at):
    sends = [(root, hop, route) for hop, route in route_map(root, parent, data_at).items()]
    messages, got = [], {}
    while sends:
        src, dst, (data, onward) = sends.pop(0)
        messages.append((src, dst))
        assert list(onward) == sorted(onward)  # ascending hops at every level
        if data is not None:
            got.setdefault(dst, []).append(data)
        sends.extend((dst, hop, route) for hop, route in onward.items())
    return messages, got


@st.composite
def trees_and_targets(draw):
    """A random rooted tree on random distinct ids, and data for a random
    set of its non-root members."""
    n = draw(st.integers(1, 40))
    ids = draw(st.permutations(range(3 * n)))[:n]
    root = ids[0]
    parent = {v: ids[draw(st.integers(0, i - 1))] for i, v in enumerate(ids) if i}
    targets = draw(st.lists(st.sampled_from(ids[1:]), unique=True)) if n > 1 else []
    return root, parent, {t: ("data", t) for t in targets}


@settings(max_examples=200, deadline=None)
@given(trees_and_targets())
# a path whose every node is a target: each is interior to the later ones
@example((0, {1: 0, 2: 1, 3: 2, 4: 3}, {4: "d", 2: "b", 1: "a", 3: "c"}))
def test_route_map_matches_source_routed_batches(case):
    root, parent, data_at = case
    ref_messages, ref_got = _deliver_reference(root, parent, data_at)
    messages, got = _deliver_route_map(root, parent, data_at)
    assert sorted(messages) == sorted(ref_messages)
    assert got == ref_got == {t: [d] for t, d in data_at.items()}
    assert all(dst != root for _, dst in messages)


def test_route_map_shape_and_root_target():
    parent = {1: 0, 2: 1, 3: 1, 4: 0}
    assert route_map(0, parent, {}) == {}
    assert route_map(0, parent, {3: "x", 1: "y"}) == {1: ("y", {3: ("x", {})})}
    assert route_map(0, parent, {2: "a", 4: "b"}) == {
        1: (None, {2: ("a", {})}), 4: ("b", {})}
    with pytest.raises(ClusterError):
        route_map(0, parent, {0: "root", 2: "a"})
