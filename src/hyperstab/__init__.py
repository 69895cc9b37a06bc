"""Exact stable-cohomology tables for hyperelliptic loci in Hirzebruch surfaces.

Subpackages cover symmetric-group character arithmetic, equivariant counts on
genus-zero moduli, integer Laurent polynomials in L, the stable tables,
spectral-sequence column bookkeeping, exact rank verification, and
finite-field point counts, with a CLI front end in `hyperstab.cli`.
"""

__version__ = "0.1.0"
