"""Bit-level address algebra for hypercube processor addresses.

A processor of the ``n``-dimensional hypercube ``Q_n`` is identified by an
integer address in ``[0, 2**n)``; bit ``d`` of the address is the coordinate
along dimension ``d``.  Two processors are neighbors iff their addresses
differ in exactly one bit.

All functions are pure.  Scalar helpers operate on Python ints (arbitrary
precision, so any ``n`` works); :func:`popcount_array` provides a vectorized
popcount over arrays of addresses.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "bit_of",
    "clear_bit",
    "flip_bit",
    "from_bits",
    "gray_code",
    "gray_rank",
    "hamming_distance",
    "hamming_weight",
    "popcount_array",
    "set_bit",
    "to_bits",
    "validate_address",
    "validate_dimension",
]


def validate_dimension(n: int) -> int:
    """Validate a hypercube dimension ``n`` and return it.

    Raises :class:`ValueError` for non-positive or absurdly large dimensions
    (the simulator instantiates ``2**n`` nodes, so ``n`` beyond 24 is a bug,
    not a use case).
    """
    if not isinstance(n, (int, np.integer)):
        raise TypeError(f"dimension must be an int, got {type(n).__name__}")
    n = int(n)
    if n < 0:
        raise ValueError(f"dimension must be >= 0, got {n}")
    if n > 24:
        raise ValueError(f"dimension {n} is too large (2**{n} nodes)")
    return n


def validate_address(addr: int, n: int) -> int:
    """Validate that ``addr`` is a legal node address of ``Q_n`` and return it."""
    if not isinstance(addr, (int, np.integer)):
        raise TypeError(f"address must be an int, got {type(addr).__name__}")
    addr = int(addr)
    if not 0 <= addr < (1 << n):
        raise ValueError(f"address {addr} out of range for Q_{n} (0..{(1 << n) - 1})")
    return addr


def bit_of(addr: int, d: int) -> int:
    """Return bit ``d`` (coordinate along dimension ``d``) of ``addr``."""
    return (addr >> d) & 1


def set_bit(addr: int, d: int) -> int:
    """Return ``addr`` with bit ``d`` set to 1."""
    return addr | (1 << d)


def clear_bit(addr: int, d: int) -> int:
    """Return ``addr`` with bit ``d`` cleared to 0."""
    return addr & ~(1 << d)


def flip_bit(addr: int, d: int) -> int:
    """Return the neighbor of ``addr`` along dimension ``d``."""
    return addr ^ (1 << d)


def hamming_weight(x: int) -> int:
    """Population count of a non-negative integer."""
    if x < 0:
        raise ValueError("hamming_weight is defined for non-negative ints")
    return int(x).bit_count()


def hamming_distance(a: int, b: int) -> int:
    """Number of bit positions in which ``a`` and ``b`` differ.

    This is the hop distance between processors ``a`` and ``b`` in a
    fault-free hypercube, and the paper's ``HD`` function (Eq. 1).
    """
    return hamming_weight(a ^ b)


_M1, _M2, _M4, _H01 = (np.uint64(m) for m in (
    0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F, 0x0101010101010101))


def popcount_array(values: np.ndarray) -> np.ndarray:
    """Vectorized popcount over an integer ndarray (as 64-bit words).

    Shifts and masks (the SWAR bit count), because ``np.bitwise_count``
    needs numpy 2.  The compiled tier's program builder uses it for the
    Hamming distances of whole substages.
    """
    arr = np.asarray(values)
    if not np.issubdtype(arr.dtype, np.integer):
        raise TypeError(f"popcount_array needs an integer array, got {arr.dtype}")
    x = arr.astype(np.uint64)
    x = x - ((x >> np.uint64(1)) & _M1)
    x = (x & _M2) + ((x >> np.uint64(2)) & _M2)
    x = (x + (x >> np.uint64(4))) & _M4
    return ((x * _H01) >> np.uint64(56)).astype(np.int64)


def to_bits(addr: int, n: int) -> tuple[int, ...]:
    """Expand ``addr`` into an ``n``-tuple ``(u_{n-1}, ..., u_1, u_0)``.

    Matches the paper's address-space notation ``{u_{n-1} u_{n-2} ... u_0}``:
    index 0 of the returned tuple is the most significant bit ``u_{n-1}``.
    """
    validate_address(addr, n)
    return tuple((addr >> d) & 1 for d in range(n - 1, -1, -1))


def from_bits(bits: tuple[int, ...] | list[int]) -> int:
    """Inverse of :func:`to_bits`: fold ``(u_{n-1}, ..., u_0)`` into an int."""
    addr = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"bits must be 0/1, got {b!r}")
        addr = (addr << 1) | b
    return addr


def gray_code(i: int) -> int:
    """``i``-th binary-reflected Gray code.

    Successive Gray codes differ in one bit, i.e. they trace a Hamiltonian
    path on the hypercube.  Provided as a substrate utility (ring embeddings
    for collectives and tests of the topology layer).
    """
    if i < 0:
        raise ValueError("gray_code is defined for non-negative ints")
    return i ^ (i >> 1)


def gray_rank(g: int) -> int:
    """Inverse of :func:`gray_code`."""
    if g < 0:
        raise ValueError("gray_rank is defined for non-negative ints")
    i = 0
    while g:
        i ^= g
        g >>= 1
    return i
