"""Differential test of the shared route against a reference copy of the
source-routed batches it replaced.

The reference sends, per first hop, a batch of (path, idx, *data) entries,
path being the whole root-to-target tree path; every hop splits the batch
it receives into the entries that end at it and regrouped batches for its
next hops.  The shared route is one (kids, data_at) object that every hop
forwards unchanged.  Delivered the way the engine delivers (round by
round, receivers in ascending id order, each one's sends in order), both
forms must send the same (sender, receiver) messages in the same order and
hand every target its data exactly once; the root is never a target.
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


def _deliver(sends, receive):
    """(sender, receiver) messages in engine send order, and the data each
    node received.  sends holds the root's (sender, receiver, payload)
    sends; receive(node, payload) gives (data here, onward (hop, payload)
    pairs)."""
    messages, got = [], {}
    while sends:
        messages.extend((src, dst) for src, dst, _ in sends)
        nxt = []
        for src, dst, payload in sorted(sends, key=lambda s: s[1]):
            here, onward = receive(dst, payload)
            for d in here:
                got.setdefault(dst, []).append(d)
            nxt.extend((dst, hop, fwd) for hop, fwd in onward)
        sends = nxt
    return messages, got


def _deliver_reference(root, parent, data_at):
    def receive(node, batch):
        here, onward = _reference_split_routes(batch)
        return [d for (d,) in here], onward

    first = _reference_source_route(root, parent, [(t, d) for t, d in data_at.items()])
    return _deliver([(root, hop, batch) for hop, batch in first], receive)


def _deliver_route_map(root, parent, data_at):
    route = route_map(root, parent, data_at)
    kids, data = route
    assert data is data_at
    assert all(ks == sorted(ks) for ks in kids.values())  # ascending at every hop

    def receive(node, payload):
        assert payload is route  # forwarded unchanged
        return ([data[node]] if node in data else []), [(c, payload) for c in kids.get(node, ())]

    return _deliver([(root, hop, route) for hop in kids.get(root, ())], receive)


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


@st.composite
def trees_with_inner_targets(draw):
    """As trees_and_targets, but some target is an inner hop: ids[1] is a
    target and the parent of the target ids[2]."""
    root, parent, data_at = draw(trees_and_targets().filter(lambda c: len(c[1]) >= 2))
    ids = [root, *parent]
    parent[ids[2]] = ids[1]
    parent[ids[1]] = root
    data_at.update({v: ("data", v) for v in ids[1:3]})
    return root, parent, data_at


def _check_against_reference(root, parent, data_at):
    ref_messages, ref_got = _deliver_reference(root, parent, data_at)
    messages, got = _deliver_route_map(root, parent, data_at)
    assert messages == ref_messages
    assert got == ref_got == {t: [d] for t, d in data_at.items()}
    assert all(dst != root for _, dst in messages)


@settings(max_examples=200, deadline=None)
@given(trees_and_targets())
# a path whose every node is a target: each is interior to the later ones
@example((0, {1: 0, 2: 1, 3: 2, 4: 3}, {4: "d", 2: "b", 1: "a", 3: "c"}))
def test_route_map_matches_source_routed_batches(case):
    _check_against_reference(*case)


@settings(max_examples=100, deadline=None)
@given(trees_with_inner_targets())
def test_route_map_delivers_to_inner_hops(case):
    root, parent, data_at = case
    kids, _ = route_map(root, parent, data_at)
    assert any(t in kids for t in data_at)  # some target relays too
    _check_against_reference(root, parent, data_at)


def test_route_map_shape_and_root_target():
    parent = {1: 0, 2: 1, 3: 1, 4: 0}
    assert route_map(0, parent, {}) == ({}, {})
    assert route_map(0, parent, {3: "x", 1: "y"}) == ({0: [1], 1: [3]}, {3: "x", 1: "y"})
    assert route_map(0, parent, {2: "a", 4: "b"}) == ({0: [1, 4], 1: [2]}, {2: "a", 4: "b"})
    with pytest.raises(ClusterError):
        route_map(0, parent, {0: "root", 2: "a"})
