"""Exceptions shared across the toolkit, and its size limits."""

# the enumeration engine's work limit (see homs.profile_map), also the most
# entries a dense matrix built from one size parameter may have, and the most
# vertices plus edges a graph built from size parameters may have
ENUMERATION_GUARD = 10_000

# cut_norm's Gray-code sweep visits 2^n row subsets, verify_bowtie_structure
# all 2^v(H) vertex subsets
SWEEP_GUARD = 16


class UsageError(ValueError):
    """Caller violated an operation contract (bad parameters, malformed input)."""


class SizeGuardError(Exception):
    """An enumeration guard was exceeded; the computation is inconclusive, not wrong."""
