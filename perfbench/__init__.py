"""agesim benchmark: workloads, traced per-layer run and output checks."""
