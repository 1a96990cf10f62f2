"""Matrix product for tests that compose homology actions by hand."""


def mat_mul(a, b):
    """Product of two integer matrices given as tuples of rows."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)
