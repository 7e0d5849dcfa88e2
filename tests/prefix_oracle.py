"""The from-scratch oracle for nullity strings, shared by the test modules."""

from toepnull import ToeplitzSpec, rank_nullity


def scratch_nullity_string(spec):
    """``rank_nullity`` of every prefix of ``spec``, each eliminated from
    scratch: an oracle that stays off ``nullity_string``'s one elimination."""
    return tuple(rank_nullity(ToeplitzSpec(field=spec.field, a=spec.a[:m + 1], b=spec.b[:m]))[1]
                 for m in range(spec.size))
