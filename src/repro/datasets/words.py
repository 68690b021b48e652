"""Synthetic text corpus for the wordcount example and tests."""

from __future__ import annotations

import random

from repro.cos.object_store import CloudObjectStorage

_VOCAB = (
    "serverless cloud function data analytics parallel map reduce python "
    "storage object bucket invoke container runtime docker latency "
    "throughput elastic concurrent executor future result partition"
).split()


def generate_document(n_words: int, seed: int = 0) -> str:
    """A deterministic pseudo-document of ``n_words`` words."""
    rng = random.Random(f"doc:{seed}")
    return " ".join(rng.choice(_VOCAB) for _ in range(n_words))


def generate_corpus(n_docs: int, words_per_doc: int = 200, seed: int = 0) -> list[str]:
    """A list of deterministic documents."""
    return [
        generate_document(words_per_doc, seed=seed * 10_000 + i)
        for i in range(n_docs)
    ]


def load_corpus(
    storage: CloudObjectStorage,
    bucket: str = "corpus",
    n_docs: int = 20,
    words_per_doc: int = 200,
    seed: int = 0,
) -> list[str]:
    """Store a corpus in COS (one object per document); returns the keys."""
    storage.create_bucket(bucket, exist_ok=True)
    keys = []
    for i, doc in enumerate(generate_corpus(n_docs, words_per_doc, seed)):
        key = f"docs/doc-{i:04d}.txt"
        storage.put_object(bucket, key, doc.encode("ascii"))
        keys.append(key)
    return keys
