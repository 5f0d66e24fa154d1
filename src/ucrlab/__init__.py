"""ucrlab: uniform common randomness over noisy one-way links.

Capacity solvers for the auxiliary-variable characterization, channel
capacity and information-spectrum tools, a codebook protocol simulator,
and numerical checks for the converse-side lemmas.
"""

__version__ = "0.1.0"
