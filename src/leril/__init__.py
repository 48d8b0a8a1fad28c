"""Toolkit for a family of lexical-resource notations.

Covers the Shabdaanjali bilingual dictionary format, TransLexGram
transfer-lexicon records with verb frames, the AnnCorra linear dependency
notation, Shabda-Sutra core-meaning formulas, frame-based structural
transfer, and a plain-directory treebank store.

``import leril`` loads none of the layer modules; ``leril.<layer>`` imports
one on first access.
"""

from importlib import import_module

from .diagnostics import Diagnostic, LerilError, Severity

__version__ = "0.1.0"

__all__ = ["Diagnostic", "LerilError", "Severity", "__version__"]

_LAYERS = frozenset(
    ("anncorra", "cli", "corpus_store", "dict_model", "shabdasutra", "transfer", "translexgram")
)


def __getattr__(name: str):
    if name in _LAYERS:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
