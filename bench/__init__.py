"""The benchmark of record for the accountable-VM pipeline (see README.md)."""
