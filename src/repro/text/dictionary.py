"""Term dictionary: per-term document frequencies and term identifiers."""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import TextError


class TermDictionary:
    """Tracks the vocabulary of an indexed collection.

    For every term the dictionary records a stable integer term id (assigned
    in first-seen order) and the term's document frequency — the number of
    documents currently containing it.  Document frequencies feed the IDF part
    of term scoring and let index implementations size their fancy lists.
    """

    #: Bumped by every mutator; a durable index commits the dictionary only
    #: when this moved since its last durable commit record.
    version = 0

    def __getstate__(self) -> dict:
        # The version counts this process's mutations; it is not state.
        state = dict(vars(self))
        state.pop("version", None)
        return state

    def __init__(self) -> None:
        self._term_ids: dict[str, int] = {}
        self._doc_freq: dict[str, int] = {}

    def add_document_terms(self, terms: Iterable[str]) -> None:
        """Record that a new document contains the given distinct terms; a
        term seen for the first time gets the next id, in ``terms`` order
        (pass an ordered collection for ids that do not depend on hashing)."""
        self.version += 1
        for term in terms:
            if term not in self._term_ids:
                self._term_ids[term] = len(self._term_ids)
                self._doc_freq[term] = 0
            self._doc_freq[term] += 1

    def remove_document_terms(self, terms: Iterable[str]) -> None:
        """Record that a document containing the given distinct terms was removed."""
        self.version += 1
        for term in terms:
            current = self._doc_freq.get(term)
            if current is None or current <= 0:
                raise TextError(
                    f"cannot decrement document frequency of unseen term {term!r}"
                )
            self._doc_freq[term] = current - 1

    def update_document_terms(self, old_terms: Iterable[str],
                              new_terms: Iterable[str]) -> None:
        """Adjust document frequencies for a content update; the new terms
        get ids in ``new_terms`` order."""
        old, new = set(old_terms), list(new_terms)
        self.add_document_terms([term for term in new if term not in old])
        self.remove_document_terms(old.difference(new))

    def term_id(self, term: str) -> int:
        """Stable integer id of ``term`` (raises for unknown terms)."""
        term_id = self._term_ids.get(term)
        if term_id is None:
            raise TextError(f"unknown term {term!r}")
        return term_id

    def document_frequency(self, term: str) -> int:
        """Number of documents currently containing ``term`` (0 when unknown)."""
        return self._doc_freq.get(term, 0)

    def contains(self, term: str) -> bool:
        """Whether the term has ever been seen."""
        return term in self._term_ids

    def __contains__(self, term: str) -> bool:
        return self.contains(term)

    def __len__(self) -> int:
        return len(self._term_ids)

    def terms(self) -> Iterator[str]:
        """Iterate all terms ever seen, in first-seen order."""
        return iter(self._term_ids)

    def live_terms(self) -> Iterator[str]:
        """Iterate terms whose document frequency is currently positive."""
        return (term for term, freq in self._doc_freq.items() if freq > 0)
