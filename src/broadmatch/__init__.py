"""Exact engine for budget-constrained keyword auctions with broad match.

The Python API lives in the submodules: ``model``, ``auction``,
``partition``, ``simulate``, ``bestresp``, ``equilibrium``, ``acbm`` and
``cli``.
"""

__version__ = "0.1.0"
