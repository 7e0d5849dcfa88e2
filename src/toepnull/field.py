"""Prime fields GF(q) and their digits.

A digit is a plain ``int`` in [0, q); :func:`element_value` rejects
anything else instead of reducing it silently.

The modulus is capped at DEFAULT_MAX_Q = 13.  Everything downstream of
this module leans on exhaustive verification over all of GF(q)^k, and a
small cap keeps "exhaustive" honest.  The cap also bounds the byte-lane
engine in ``toeplitz``, which keeps one digit per byte and needs
q^2 < 256 so that u*q + v never carries into the next byte; it asserts
DEFAULT_MAX_Q ** 2 < 256 on import, so a cap above 15 fails there
instead of corrupting lanes.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_MAX_Q = 13


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_EXACT_BELOW = 3_317_044_064_679_887_385_961_981  # Sorenson and Webster (2015)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases 2 through 41, which is exact below
    _EXACT_BELOW; larger n without a factor among the bases raise
    ValueError rather than get a guess."""
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    if n >= _EXACT_BELOW:
        raise ValueError(f"modulus too large: primality is decided exactly only "
                         f"below {_EXACT_BELOW}, got {n}")
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """The prime field GF(q).

    Instances compare and hash by modulus, so two ``PrimeField(5)``
    objects are interchangeable as dictionary keys or dataclass fields.
    """

    q: int

    def __post_init__(self) -> None:
        if not isinstance(self.q, int) or isinstance(self.q, bool):
            raise ValueError(f"modulus must be an integer, got {self.q!r}")
        if not is_prime(self.q):
            raise ValueError(f"modulus must be prime, got {self.q}")
        if self.q > DEFAULT_MAX_Q:
            raise ValueError(
                f"modulus {self.q} exceeds the exhaustive-verification cap {DEFAULT_MAX_Q}")


def element_value(field: PrimeField, x: int) -> int:
    """``x`` as a digit of ``field``: an int, not a bool, already in [0, q)."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"expected an integer digit, got {x!r}")
    if not 0 <= x < field.q:
        raise ValueError(f"value {x} outside [0, {field.q})")
    return x
