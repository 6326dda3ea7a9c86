"""Counting a text's lemmas through its whitespace-separated chunks.

A chunk is a piece of text as `str.split()` yields it. No token crosses a
whitespace character, so a text's lemma counts follow from its chunk counts
and each distinct chunk's lemmas. `ingest` imports this module when it first
counts a text: a command that reads no corpus never compiles it, and it calls
`ingest.tokenize` and `ingest.lemmatize` through their module.
"""

import re
import unicodedata
from collections import Counter

from . import ingest
from .ingest import LangProfile, LemmaDict
from .inputs import Lemma

# `\s` matches exactly `ingest._WHITESPACE`. Compiling that class spelled out builds a
# 64 KiB map of its code points, which took 12 ms on a 2-core Xeon VM.
_SPACE = re.compile(r"\s")
# Characters per block of a text's chunk count; a block runs on to the next whitespace.
_BLOCK = 1 << 14


def count_chunks(text: str) -> Counter:
    """`Counter(text.split())`, split one block at a time so that only one block's
    chunks are held at once. Each block ends at a whitespace character, where
    `str.split()` cuts too, so no chunk spans two blocks."""
    chunks: Counter = Counter()
    start = 0
    while start < len(text):
        cut = _SPACE.search(text, start + _BLOCK)
        end = len(text) if cut is None else cut.start()
        chunks.update(text[start:end].split())
        start = end + 1
    return chunks


class ChunkTable:
    """What the texts of one language resolve their chunks through.

    `chunks` maps each chunk met to its lemma, or to a tuple of lemmas when it
    holds zero tokens or several. `lemmas` keeps the lemmas that no chunk of
    the table is spelled as, each as the one object that every count holds.
    """

    def __init__(self, profile: LangProfile, lemma_dict: LemmaDict | None):
        self.profile = profile
        self.lemma_dict = LemmaDict(profile.language_code) if lemma_dict is None else lemma_dict
        self.chunks: dict[str, Lemma | tuple[Lemma, ...]] = {}
        self.lemmas: dict[Lemma, Lemma] = {}

    def _shared(self, lemma: Lemma, chunk: str | None = None) -> Lemma:
        """The object that every count holds `lemma` as: the first one met. A new
        chunk of the table that is its own lemma is that object, as key and value."""
        known = self.lemmas.get(lemma)
        if known is None:
            if lemma == chunk:
                return chunk
            known = self.chunks.get(lemma)
            if known != lemma:  # no chunk spelled `lemma` is its own lemma
                known = self.lemmas[lemma] = lemma
        return known

    def count(self, text: str) -> Counter:
        """The lemma counts of a text, in first-occurrence order.

        Only chunks new to the table are tokenized, and all their forms are
        lemmatized in one call. Exact when the profile splits at whitespace:
        no token crosses a whitespace character, and NFC never composes one
        with a neighbour. Any other profile tokenizes the whole text as its
        one chunk, which the table does not keep.
        """
        text = unicodedata.normalize("NFC", text)
        if self.profile._splits_at_whitespace:
            chunks, table = count_chunks(text), self.chunks
        else:
            chunks, table = {text: 1}, {}
        new = [chunk for chunk in chunks if chunk not in table]
        sizes: list[int] = []  # tokens per new chunk, in order
        forms: list[str] = []
        for chunk in new:
            tokens = ingest.tokenize(chunk, self.profile)
            if tokens == [chunk]:
                tokens[0] = chunk  # drop the equal copy that case folding made
            sizes.append(len(tokens))
            forms += tokens
        # `_shared` reads the table, so the new chunks go in one at a time, in
        # first-occurrence order: the lemma objects it picks depend on that order
        resolved = iter(ingest.lemmatize(forms, self.lemma_dict) if forms else ())
        own = table is self.chunks
        for chunk, size in zip(new, sizes):
            table[chunk] = (self._shared(next(resolved), chunk if own else None) if size == 1
                            else tuple(self._shared(next(resolved)) for _ in range(size)))
        # straight into the Counter: a dict copied into one would hold the counts twice
        counts: Counter = Counter()
        get = counts.get
        for chunk, n in chunks.items():
            value = table[chunk]
            if type(value) is tuple:  # the table's own type: a lemma may be a str subclass
                for lemma in value:
                    counts[lemma] = get(lemma, 0) + n
            else:
                counts[value] = get(value, 0) + n
        return counts
