"""Generative-retrieval toolkit: textual docid construction, constrained
decoding over pluggable automata, and iterative reasoning-driven retrieval."""

from .corpus import Corpus, Document, Query, Vocabulary, load_corpus, load_queries
from .docid import DocIdIndex, DocIdRecord, build_index
from .decode import Candidate, RankedList, constrained_beam_search
from .orchestrator import (R4RResult, RefineConfig, run_direct_cot, run_r4r,
                           run_standard)
from .reasoning import PromptRegistry

__version__ = "0.1.0"

__all__ = [
    "Candidate", "Corpus", "DocIdIndex", "DocIdRecord", "Document",
    "PromptRegistry", "Query", "R4RResult", "RankedList",
    "RefineConfig", "Vocabulary", "build_index",
    "constrained_beam_search", "load_corpus", "load_queries",
    "run_direct_cot", "run_r4r", "run_standard",
]
