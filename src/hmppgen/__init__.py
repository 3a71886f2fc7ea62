"""OpenMP-to-HMPP variant generator and time/energy exploration harness."""

__version__ = "0.1.0"
