"""Decoupled, unconditionally energy-stable steppers for anisotropic
phase-field dendritic crystal growth, with per-step energy-law verification
and desk-scale reproductions of the accuracy / stability / dendrite
experiments."""

__version__ = "0.1.0"
