"""Repository benchmark: seeded workloads, end-to-end and per-layer metrics."""
