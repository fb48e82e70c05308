"""Exception types and resource caps shared across the package.

Kept free of numpy and of the other layers, so the CLI parser can read
the default term cap without loading the entropy layer.
"""

#: Default cap on the terms a path-entropy enumeration may visit.
DEFAULT_TERM_CAP = 10**6


class CapExceeded(RuntimeError):
    """A configured resource cap (enumeration terms, band, period) was exceeded.

    Raised instead of silently truncating; the message states the required
    amount and the cap that blocked it.
    """
