"""The repository's benchmark: paper workloads timed end to end,
calibrated against a host-speed reference, with a traced layer mode.
See perfbench/README.md."""
