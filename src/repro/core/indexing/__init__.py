"""Cache indexing schemes (paper Section II).

The schemes register on the first lookup in the scheme registry; use
:func:`make_scheme`/:func:`available_schemes` for name-based construction.
"""

from ..._lazy import attach

__all__ = [
    "IndexingScheme",
    "TrainableIndexingScheme",
    "register_scheme",
    "make_scheme",
    "available_schemes",
    "SCHEME_REGISTRY",
    "ModuloIndexing",
    "XorIndexing",
    "OddMultiplierIndexing",
    "RECOMMENDED_MULTIPLIERS",
    "PrimeModuloIndexing",
    "is_prime",
    "largest_prime_at_most",
    "primes_up_to",
    "GivargisIndexing",
    "GivargisXorIndexing",
    "PatelIndexing",
    "BitSelectIndexing",
    "candidate_bit_positions",
]

__getattr__, __dir__ = attach(
    __name__,
    {
        "base": (
            "SCHEME_REGISTRY",
            "IndexingScheme",
            "TrainableIndexingScheme",
            "available_schemes",
            "make_scheme",
            "register_scheme",
        ),
        "bit_select": ("BitSelectIndexing", "candidate_bit_positions"),
        "givargis": ("GivargisIndexing",),
        "givargis_xor": ("GivargisXorIndexing",),
        "modulo": ("ModuloIndexing",),
        "odd_multiplier": ("RECOMMENDED_MULTIPLIERS", "OddMultiplierIndexing"),
        "patel": ("PatelIndexing",),
        "prime_modulo": ("PrimeModuloIndexing", "is_prime", "largest_prime_at_most", "primes_up_to"),
        "xor": ("XorIndexing",),
    },
    complete=("SCHEME_REGISTRY",),
)
