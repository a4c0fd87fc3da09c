"""Golden counters and bytes for the Score method's single-update path.

A seeded storm of unbatched ``update_score`` calls runs on the Score method at
512-byte pages, with a buffer pool much smaller than the clustered
``(term, -score, doc_id)`` tree, so the storm evicts and writes back pages
and every counter depends on the order pages are touched in.  The storm has
integer score ties, small moves that stay in a leaf, large moves whose new
key lands in another leaf, enough growth to split leaves (and internal
nodes), a score update to a deleted document, and a re-insert of that
document under another score.

Per window of updates it pins the disk reads, writes and their sequential /
random split, the pool misses, evictions and write-backs, and a sha256 of
every page of the clustered tree (page ids and node bytes, read through the
accounting-free peek path).  Pool hits are recorded separately and may only
fall: a re-key that skips a redundant access to a page that is already the
most recently used changes nothing but the hit count.

The values were recorded from the per-term ``delete_if_present`` + ``put``
loop that preceded the one-call re-key.
"""

from __future__ import annotations

import hashlib
import random

from repro.core.indexes.registry import create_index
from repro.storage.environment import StorageEnvironment
from repro.text.documents import DocumentStore

VOCABULARY = [f"t{i:02d}" for i in range(24)]
SCORES = [0, 1, 2, 2, 3, 5, 8, 8, 8, 13, 21, 34, 55, 89, 144]
WINDOWS, WINDOW = 10, 24
DELETED_DOC, DELETED_WINDOW = 17, 3


def _build():
    env = StorageEnvironment(cache_pages=16, page_size=512)
    index = create_index("score", env, DocumentStore())
    rng = random.Random(9090)
    for doc_id in range(1, 161):
        terms = rng.sample(VOCABULARY, rng.randint(3, 14))
        index.add_document(doc_id, float(rng.choice(SCORES)), terms=terms)
    index.finalize()
    return env, index


def _leaf_of(tree, key: bytes) -> int:
    """The page id of the leaf that holds (or would hold) ``key``."""
    node = tree._peek_node(tree._root_id)
    while not node.is_leaf:
        index = 0
        while index < len(node.keys) and node.keys[index] <= key:
            index += 1
        node = tree._peek_node(node.children[index])
    return node.page_id


def _tree_digest(tree) -> str:
    digest = hashlib.sha256()
    for page_id in sorted(tree.page_ids()):
        digest.update(page_id.to_bytes(4, "little"))
        digest.update(tree._encode(tree._peek_node(page_id)))
    return digest.hexdigest()[:20]


def _storm():
    """Run the storm; return the per-window rows, the per-window pool hits
    and what the storm covered: moves of a document's first term that left
    its leaf or stayed in it, and windows in which the tree grew."""
    env, index = _build()
    store = index._lists
    tree, encode = store.tree, store.key_codec.encode
    rng = random.Random(77)
    rows, hits = [], []
    crossings = stays = growth = 0
    for window in range(WINDOWS):
        nodes = tree.node_count()
        before = env.snapshot()
        if window == DELETED_WINDOW:
            index.delete_document(DELETED_DOC)
        for step in range(WINDOW):
            if window == DELETED_WINDOW and step == WINDOW // 2:
                # An update to a deleted document re-keys nothing.
                index.update_score(DELETED_DOC, 40.0)
                continue
            if window == DELETED_WINDOW + 2 and step == 0:
                terms = sorted(rng.sample(VOCABULARY, 6))
                index.insert_document(DELETED_DOC, terms, 3.0)
                continue
            doc_id = rng.randint(1, 160)
            if doc_id == DELETED_DOC:
                doc_id += 1
            old = index.current_score(doc_id)
            # Mostly ties from the score pool; now and then a large jump.
            new = float(rng.choice(SCORES)) if step % 5 else old + rng.choice([-89, 150])
            new = max(new, 0.0)
            term = min(index._content_terms(doc_id))
            if _leaf_of(tree, encode((term, -old, doc_id))) != \
                    _leaf_of(tree, encode((term, -new, doc_id))):
                crossings += 1
            elif old != new:
                stays += 1
            index.update_score(doc_id, new)
        delta = env.delta_since(before)
        disk, pool = delta.disk, delta.pool
        rows.append(((disk.reads, disk.writes, disk.sequential_reads, disk.random_reads),
                     (pool.misses, pool.evictions, pool.dirty_writebacks),
                     _tree_digest(tree)))
        hits.append(pool.hits)
        growth += tree.node_count() > nodes
    return rows, hits, (crossings, stays, growth)


#: Per window: ((disk reads, writes, sequential reads, random reads),
#: (pool misses, evictions, write-backs), clustered-tree digest).
GOLDEN_ROWS = [
    ((427, 371, 10, 417), (427, 433, 365), '380f43f17d7140755a20'),
    ((357, 305, 6, 351), (357, 361, 301), 'cf319d288b7b6c6083ff'),
    ((379, 322, 4, 375), (379, 381, 320), '51888ffc1525780c010e'),
    ((478, 384, 6, 472), (478, 480, 382), 'a4915cfcc2870c715b37'),
    ((439, 348, 10, 429), (439, 440, 347), 'e40d34aaef004fe623a7'),
    ((261, 217, 3, 258), (261, 262, 216), 'c737aaa08dc87ce9afff'),
    ((384, 323, 5, 379), (384, 385, 322), '025e80eb3497da920d9a'),
    ((460, 394, 5, 455), (460, 463, 391), '56dc7a94d867051528a8'),
    ((494, 404, 1, 493), (494, 494, 404), '66cef8092f8d0edefb10'),
    ((348, 288, 5, 343), (348, 348, 288), 'e9ec806c17a9776068bd'),
]

#: Per window: pool hits of the per-term loop (an upper bound).
GOLDEN_HITS = [1281, 1131, 1193, 1403, 1311, 847, 1154, 1402, 1418, 1052]


def test_storm_covers_the_cases():
    _rows, _hits, (crossings, stays, growth) = _storm()
    assert crossings >= 20, "the storm must move keys across leaves"
    assert stays >= 20, "the storm must move keys within a leaf"
    assert growth >= 3, "the storm must split nodes"


def test_single_updates_read_and_write_the_same_pages():
    rows, _hits, _coverage = _storm()
    assert rows == GOLDEN_ROWS


def test_single_updates_hit_the_pool_no_more_often():
    _rows, hits, _coverage = _storm()
    assert all(now <= then for now, then in zip(hits, GOLDEN_HITS)), (hits, GOLDEN_HITS)
    assert len(hits) == len(GOLDEN_HITS)
