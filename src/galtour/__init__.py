"""Galois tower calculus inside explicit finite permutation groups.

The package decides and constructs towers of intermediate fields,
galtourability and galsimplicity, intourability fields M(L/K),
Schreier/Jordan-Holder style dissociation, and elevation/composition
towers, by realizing the finite Galois correspondence in small
permutation groups.  Brute-force oracles validate every decision
procedure.

Modules:
  permgroup     finite permutation-group engine
  galois        the Galois correspondence: contexts, fields, quadrilaterals
  towers        tower calculus and refinements
  dissociation  the theorem layer (galtourability, M(L/K), dissociation)
  presets       arithmetic example constructors and instance files
  oracle        independent brute-force validators (loaded on first access)
  cli           command-line surface
"""

from . import dissociation, galois, permgroup, presets, towers

__all__ = ["permgroup", "galois", "towers", "dissociation", "presets",
           "oracle"]
__version__ = "0.1.0"


def __getattr__(name: str):
    # PEP 562: only the oracle verb needs ``oracle`` (and ``random``), so a
    # cold CLI call does not import it.  ``from . import oracle`` here would
    # look the attribute up again and recurse.
    if name == "oracle":
        import importlib
        return importlib.import_module(".oracle", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
