"""Property-based tests: the B+-tree must behave exactly like a sorted dict."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KeyNotFoundError
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.kvstore import KVStore


def make_tree(order=6):
    pool = BufferPool(SimulatedDisk(page_size=4096), capacity_pages=32)
    return KVStore(pool, "prop", order=order)


keys = st.integers(min_value=-10_000, max_value=10_000)
values = st.integers() | st.text(max_size=8) | st.none()


@settings(max_examples=60, deadline=None)
@given(entries=st.lists(st.tuples(keys, values), max_size=300))
def test_inserts_match_dict_model(entries):
    tree = make_tree()
    model = {}
    for key, value in entries:
        tree.put(key, value)
        model[key] = value
    assert len(tree) == len(model)
    assert list(tree.items()) == sorted(model.items())
    for key, value in model.items():
        assert tree.get(key) == value


@settings(max_examples=60, deadline=None)
@given(
    entries=st.lists(st.tuples(keys, values), max_size=200),
    deletions=st.lists(keys, max_size=100),
)
def test_inserts_and_deletes_match_dict_model(entries, deletions):
    tree = make_tree()
    model = {}
    for key, value in entries:
        tree.put(key, value)
        model[key] = value
    for key in deletions:
        if key in model:
            assert tree.delete(key) == model.pop(key)
        else:
            try:
                tree.delete(key)
            except KeyNotFoundError:
                pass
            else:  # pragma: no cover - defensive
                raise AssertionError("deleting a missing key must raise")
    assert list(tree.items()) == sorted(model.items())


@settings(max_examples=40, deadline=None)
@given(
    entries=st.lists(st.tuples(keys, st.integers()), min_size=1, max_size=200),
    low=keys,
    high=keys,
)
def test_range_scans_match_dict_model(entries, low, high):
    if low > high:
        low, high = high, low
    tree = make_tree()
    model = {}
    for key, value in entries:
        tree.put(key, value)
        model[key] = value
    expected = sorted((k, v) for k, v in model.items() if low <= k <= high)
    assert list(tree.items(low=low, high=high)) == expected
