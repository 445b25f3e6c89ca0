"""End-to-end benchmark of the batched SVD: six seeded workloads, batch and
serving metrics, and an outside-in per-layer trace (see README.md)."""
