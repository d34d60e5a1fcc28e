"""Deterministic simulator for low-latency (L4S) real-time media transport.

Building blocks: a dual-queue coupled AQM with ECN marking, a bottleneck
link emulator with capacity patterns and delay jitter, media endpoints with
playout/stall accounting, and four feedback-driven rate controllers, plus a
harness that reproduces the standard comparison cases.
"""

__version__ = "0.1.0"
