"""Kernel shift maps, nullity-string grammar, and structural predicates.

Nullity strings of embedded Toeplitz matrices obey a tight local
grammar: the first value is 0 or 1, consecutive values differ by at
most 1, a plateau at positive height can only hold or fall, and once a
string strictly falls inside positive territory it keeps falling by
exactly 1 until it hits 0.  Globally that is the same as saying every
string is a prefix of a concatenation of zero runs and "tents"
1, 2, ..., d, (d repeated), d-1, ..., 1, 0.  The local reading is the
support of the census table in ``counting``: a step is legal when its
count is positive.  The tent parse here is its independent check, and
both are checked against exhaustively enumerated matrices.

The predicates at the bottom capture how kernels evolve along an
embedding chain: a kernel born at a 0 -> 1 step has a generator with
nonzero first and last entries; on a +1 step the new kernel is spanned
by the zero-padded shifts of the old one; across an equal-nullity run
the kernel is shifted uniformly one way; and strictly inside a descent
every kernel vector starts and ends with 0.  Each predicate guards its
precondition and raises :class:`PreconditionError` when handed a
non-qualifying configuration, rather than returning a meaningless bool.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

from .counting import _allowed_next, _strings
from .toeplitz import (
    ToeplitzSpec,
    Vector,
    canonical_vectors,
    kernel_basis,
    rank_nullity,
    truncate,
)


class PreconditionError(ValueError):
    """A predicate was applied to a configuration it does not speak about."""


# ---------------------------------------------------------------------------
# shift maps on vectors


def shift_omega(v: Sequence[int]) -> Vector:
    """Append a zero: (v_0, ..., v_k) -> (v_0, ..., v_k, 0)."""
    return tuple(v) + (0,)


def shift_sigma(v: Sequence[int]) -> Vector:
    """Prepend a zero: (v_0, ..., v_k) -> (0, v_0, ..., v_k)."""
    return (0,) + tuple(v)


# ---------------------------------------------------------------------------
# string grammar, two independent readings


def validate_nullity_string(values: Sequence[int]) -> bool:
    """Check a candidate string against the local step rules, from a
    virtual pair (0, 0) in front: after a 0 comes 0 or 1; while rising,
    anything within one step; on a positive plateau, hold or fall by 1;
    after a strict fall to positive height, fall by exactly 1."""
    prev = cur = 0
    for v in values:
        if v not in _allowed_next(prev, cur):
            return False
        prev, cur = cur, v
    return True


def validate_nullity_string_by_patterns(values: Sequence[int]) -> bool:
    """Check a candidate string by parsing it into zero runs and tents.

    A tent of peak d >= 1 reads 1, 2, ..., d, then d repeated any number
    of further times, then d-1, ..., 1, 0.  A valid string is a prefix
    of any concatenation of zero runs and complete tents.  The parse is
    deterministic, so this is a genuinely independent check of the same
    language as :func:`validate_nullity_string`.
    """
    BOUNDARY, RISING, TOP, FALLING = 0, 1, 2, 3
    state, height = BOUNDARY, 0
    for v in values:
        if state == BOUNDARY:
            if v == 0:
                pass  # zero run continues / starts
            elif v == 1:
                state, height = RISING, 1
            else:
                return False
        elif state == RISING:
            if v == height + 1:
                height = v
            elif v == height:
                state = TOP
            elif v == height - 1:
                state, height = (BOUNDARY, 0) if v == 0 else (FALLING, v)
            else:
                return False
        elif state == TOP:
            if v == height:
                pass
            elif v == height - 1:
                state, height = (BOUNDARY, 0) if v == 0 else (FALLING, v)
            else:
                return False
        else:  # FALLING
            if v == height - 1:
                state, height = (BOUNDARY, 0) if v == 0 else (FALLING, v)
            else:
                return False
    return True


def iter_valid_strings(max_len: int) -> Iterator[Tuple[int, ...]]:
    """Yield every grammar-valid string of length 1 through ``max_len``.

    Depth-first, successor values ascending, so the order is stable.
    """
    return _strings(max_len)


# ---------------------------------------------------------------------------
# structural predicates


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise PreconditionError(message)


def _require_extension(prev: ToeplitzSpec, nxt: ToeplitzSpec) -> None:
    _require(nxt.order >= 1, "extended spec must have order >= 1")
    _require(
        nxt.field == prev.field and truncate(nxt) == prev,
        "second spec must be a one-step extension of the first",
    )


def check_single_generator_ends(prev: ToeplitzSpec, nxt: ToeplitzSpec) -> bool:
    """A kernel born at a 0 -> 1 nullity step is generated by a vector
    whose first and last entries are both nonzero.

    Preconditions: ``nxt`` extends ``prev``, ``prev`` is invertible, and
    ``nxt`` has nullity exactly 1.
    """
    _require_extension(prev, nxt)
    _require(rank_nullity(prev)[1] == 0, "previous matrix must be invertible")
    _require(rank_nullity(nxt)[1] == 1, "extended matrix must have nullity 1")
    (generator,) = kernel_basis(nxt)
    return generator[0] != 0 and generator[-1] != 0


def check_ascent_span(prev: ToeplitzSpec, nxt: ToeplitzSpec) -> bool:
    """On a +1 nullity step from positive height, the new kernel is the
    span of the appended-zero and prepended-zero copies of the old one.

    Preconditions: ``nxt`` extends ``prev`` and nullities step from
    d >= 1 to d + 1.
    """
    _require_extension(prev, nxt)
    nu_prev = rank_nullity(prev)[1]
    _require(nu_prev >= 1, "previous matrix must already be singular")
    _require(
        rank_nullity(nxt)[1] == nu_prev + 1,
        "nullity must rise by exactly 1 across the extension",
    )
    old = kernel_basis(prev)
    spanned = canonical_vectors(
        [shift_omega(v) for v in old] + [shift_sigma(v) for v in old],
        prev.field.q,
    )
    return kernel_basis(nxt) == spanned


def check_plateau_shift(run: Sequence[ToeplitzSpec]) -> bool:
    """Across a run of equal positive nullity, kernels shift uniformly:
    every step appends a zero, or every step prepends one.  No mixing.

    Preconditions: at least two specs, each extending the previous, all
    of the same positive nullity.
    """
    specs = list(run)
    _require(len(specs) >= 2, "a plateau run needs at least two specs")
    for earlier, later in zip(specs, specs[1:]):
        _require_extension(earlier, later)
    nullities = [rank_nullity(s)[1] for s in specs]
    _require(
        min(nullities) == max(nullities) and nullities[0] >= 1,
        "all specs in the run must share one positive nullity",
    )
    q = specs[0].field.q
    kernels = [kernel_basis(s) for s in specs]
    omega_all = all(
        kernels[i + 1] == canonical_vectors([shift_omega(v) for v in kernels[i]], q)
        for i in range(len(kernels) - 1)
    )
    sigma_all = all(
        kernels[i + 1] == canonical_vectors([shift_sigma(v) for v in kernels[i]], q)
        for i in range(len(kernels) - 1)
    )
    return omega_all or sigma_all


def check_descent_interior_zeros(spec: ToeplitzSpec) -> bool:
    """Strictly inside a descent, every kernel vector starts and ends with 0.

    Precondition: the spec's last two nullities satisfy prev > cur >= 1.
    """
    _require(spec.order >= 1, "an order-0 spec has no previous nullity")
    nu_cur = rank_nullity(spec)[1]
    nu_prev = rank_nullity(truncate(spec))[1]
    _require(
        nu_prev > nu_cur >= 1,
        "spec must sit strictly inside a descent (prev > cur >= 1)",
    )
    return all(v[0] == 0 and v[-1] == 0 for v in kernel_basis(spec))
