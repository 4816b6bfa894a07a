"""HEALERS orchestration: the paper's primary contribution as an API."""

from repro.core.cache import load_declarations, save_declarations
from repro.core.pipeline import HardenedLibrary, HealersPipeline, harden

__all__ = [
    "HardenedLibrary",
    "HealersPipeline",
    "harden",
    "load_declarations",
    "save_declarations",
]
