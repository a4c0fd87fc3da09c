"""Forward index: document id -> term frequencies.

Algorithm 1 in the paper needs ``Content(id)`` — the set of terms of the
document whose score changed — to know which short lists to touch.  Content
updates (Appendix A.1) additionally need the *previous* term set to compute
added and removed terms.  :class:`DocumentStore` is that forward index.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.errors import DocumentNotFoundError, TextError


@dataclass(frozen=True)
class Document:
    """An analysed document.

    Attributes
    ----------
    doc_id:
        Integer document identifier (the primary-key value of the indexed row).
    term_frequencies:
        Mapping term -> number of occurrences in the document.
    length:
        Total number of term occurrences (including duplicates).
    """

    doc_id: int
    term_frequencies: Mapping[str, int]
    length: int

    @classmethod
    def from_terms(cls, doc_id: int, terms: Iterable[str]) -> "Document":
        """Build a document from an (ordered, possibly repeating) term sequence."""
        counts = Counter(terms)
        return cls(doc_id=doc_id, term_frequencies=dict(counts), length=sum(counts.values()))

    @property
    def distinct_terms(self) -> set[str]:
        """The set of distinct terms in the document."""
        return set(self.term_frequencies)

    def term_frequency(self, term: str) -> int:
        """Occurrences of ``term`` in the document (0 when absent)."""
        return self.term_frequencies.get(term, 0)


class DocumentStore:
    """In-memory forward index over the analysed documents.

    The store is intentionally memory-resident: the paper charges neither
    queries nor score updates for forward-index accesses (every method needs
    them equally), so keeping it out of the paged storage keeps the I/O
    accounting focused on what the paper varies.
    """

    #: Bumped by every mutator; a durable index commits the store only when
    #: this moved since its last durable commit record.
    version = 0

    def __getstate__(self) -> dict:
        # The version counts this process's mutations; it is not state.
        state = dict(vars(self))
        state.pop("version", None)
        return state

    def __init__(self) -> None:
        self._documents: dict[int, Document] = {}

    def add(self, document: Document) -> None:
        """Add a new document (raises if the id is already present)."""
        if document.doc_id in self._documents:
            raise TextError(f"document {document.doc_id} already exists")
        self._documents[document.doc_id] = document
        self.version += 1

    def add_terms(self, doc_id: int, terms: Iterable[str]) -> Document:
        """Analyzed-terms convenience wrapper around :meth:`add`."""
        document = Document.from_terms(doc_id, terms)
        self.add(document)
        return document

    def replace(self, document: Document) -> Document:
        """Replace an existing document's content; returns the old version."""
        old = self._documents.get(document.doc_id)
        if old is None:
            raise DocumentNotFoundError(f"document {document.doc_id} does not exist")
        self._documents[document.doc_id] = document
        self.version += 1
        return old

    def remove(self, doc_id: int) -> Document:
        """Remove a document and return it."""
        document = self._documents.pop(doc_id, None)
        if document is None:
            raise DocumentNotFoundError(f"document {doc_id} does not exist")
        self.version += 1
        return document

    def get(self, doc_id: int) -> Document:
        """Return the document with id ``doc_id``."""
        document = self._documents.get(doc_id)
        if document is None:
            raise DocumentNotFoundError(f"document {doc_id} does not exist")
        return document

    def contains(self, doc_id: int) -> bool:
        """Whether a document with this id exists."""
        return doc_id in self._documents

    def __contains__(self, doc_id: int) -> bool:
        return self.contains(doc_id)

    def __len__(self) -> int:
        return len(self._documents)

    def doc_ids(self) -> Iterator[int]:
        """Iterate document ids in insertion order."""
        return iter(self._documents)

    def documents(self) -> Iterator[Document]:
        """Iterate stored documents in insertion order."""
        return iter(self._documents.values())

    def average_length(self) -> float:
        """Mean document length (0.0 for an empty store)."""
        if not self._documents:
            return 0.0
        return sum(doc.length for doc in self._documents.values()) / len(self._documents)
