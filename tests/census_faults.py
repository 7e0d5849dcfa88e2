"""A fault in the one census table, shared by the fault-injection tests."""

from toepnull import counting


def skew_census(monkeypatch, rule, *deltas):
    """Add ``deltas`` to the leading weights of ``rule``'s row in the
    census table that the DP, ``count_string``, the grammar and the
    enumeration scans all read."""
    real = counting._census

    def skewed(q):
        table = real(q)
        table[rule] = tuple((step, w + d) for (step, w), d in
                            zip(table[rule], deltas + (0,) * len(table[rule])))
        return table

    monkeypatch.setattr(counting, "_census", skewed)
