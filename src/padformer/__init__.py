"""Video transformer for presentation-attack detection, built from scratch.

The "Layout" section of the README lists every module and what it holds.
"""

__version__ = "0.1.0"
