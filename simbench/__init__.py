"""The simulator's benchmark: see simbench/README.md."""
