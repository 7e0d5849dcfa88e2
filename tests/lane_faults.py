"""A fault in one lane of the bit-sliced count, shared by the fault-injection tests."""

from toepnull import enumeration


def fault_lane(monkeypatch, spec, order=None):
    """Flip whether the order-n spec at lex ``spec`` gains exactly one
    pivot at ``order`` (default n) in the bit-sliced elimination."""
    real = enumeration._lane_gains

    def gains(q, n, s, index):
        one, two = real(q, n, s, index)
        width = q ** (2 * (n - s))
        if index * width <= spec < (index + 1) * width:
            one[n if order is None else order] ^= 1 << spec - index * width
        return one, two

    monkeypatch.setattr(enumeration, "_lane_gains", gains)
