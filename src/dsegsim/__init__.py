"""Segment-based VM memory allocation, register-file address translation,
segment-aware placement, and datacenter trace replay."""

__version__ = "0.1.0"
