"""Numerical kernel and verification harness for spacelike-surface geometry
in anti-de Sitter 3-space."""

__version__ = "0.1.0"
