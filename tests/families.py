"""The generated system families the tests share, as CCS source: `_ring(k)`
is a component on a k-step cycle beside one that can do `done` once, and
`_grid(n)` is n independent components that each loop on a_i or stop with
b_i, 2^n states in all."""


def _ring(k: int) -> str:
    return "X | done where X = " + ".".join(f"a{i}" for i in range(k)) + ".X"


def _grid(n: int) -> str:
    return (" | ".join(f"X{i}" for i in range(n)) + " where "
            + ", ".join(f"X{i} = a{i}.X{i} + b{i}.0" for i in range(n)))
