"""Exact workbench for queer Lie superalgebras and their low homology.

Everything is computed over exact scalars (rationals, Gaussian rationals,
odd prime fields) from explicit structure constants; every claimed
identity is re-verified on the spot rather than assumed.
"""

__version__ = "0.1.0"
