"""The benchmark harness; ``python3 -m simbench.harness`` is its command."""
