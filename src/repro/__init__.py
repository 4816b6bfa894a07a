"""HEALERS reproduction: automated robustness wrappers for C libraries.

Reproduces Fetzer & Xiao, "An Automated Approach to Increasing the
Robustness of C Libraries" (DSN 2002) as a pure-Python system: a
simulated C library over a guarded address space, adaptive fault
injection computing robust argument types from an extensible type
lattice, and a generated robustness wrapper evaluated with a
Ballista-style test harness.

Quickstart::

    from repro import harden

    hardened = harden(functions=["asctime", "strcpy"])
    wrapper = hardened.wrapper()
    print(hardened.wrapper_source())
"""

from repro.core import HardenedLibrary, HealersPipeline, harden

__all__ = ["HardenedLibrary", "HealersPipeline", "harden"]

#: The single source of truth for the package version: pyproject.toml
#: reads it via ``[tool.setuptools.dynamic]`` and the CLI exposes it
#: as ``python -m repro --version``.
__version__ = "1.1.0"
