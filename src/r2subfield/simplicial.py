"""Simplicial complexes generated by one subset of {1, ..., m}, and their
character sums.

A binary vector v in F2^m is identified with its support, so the complex
generated by L (written Delta_L) is simply every v whose support sits inside
L; it has 2^|L| members.  The defining sets of the code construction use
either Delta_L or its complement F2^m \\ Delta_L, so both carry closed-form
character sums:

    sum_{v in Delta_L} (-1)^(w . v)        = 2^|L| * phi(w | L)
    sum_{v not in Delta_L} (-1)^(w . v)    = 2^m * [w == 0] - 2^|L| * phi(w | L)

where phi(w | L) = prod_{i in L} (1 - w_i) is 1 when the support of w avoids
L and 0 otherwise.

A vector of F2^m is a bitmask int: coordinate i lives in bit i - 1, so
coordinate 1 is the least significant bit.  Every module of the package
uses this convention.

A sweep meets each factor many times, so the member list and spectrum
are cached by the factor's (m, mask, complemented), kept as tuples and
handed out as lists.  The cache holds the 2 * 2^m factors at every m up to
:data:`BRUTE_FORCE_M_CAP`, the largest m that ``codegen`` enumerates: 124
entries.  A subset is frozen, so its text is built once, on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

__all__ = [
    "Subset",
    "subset",
    "ComplexSpec",
    "enumerate_members",
    "phi",
    "char_sum",
    "spectrum",
    "complex_size",
]

# The largest m whose codes are enumerated exhaustively (``codegen`` reads it
# from here); the factor caches are sized to hold every factor up to it.
BRUTE_FORCE_M_CAP = 5

# Delta_X and its complement for each of the 2^m subsets X, at each m <= the cap
_FACTORS = sum(2 << m for m in range(1, BRUTE_FORCE_M_CAP + 1))


@dataclass(frozen=True)
class Subset:
    """A subset of the ground set {1, ..., m}."""

    m: int
    members: frozenset[int]

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValueError(f"ground set size must be >= 0, got {self.m}")
        if not isinstance(self.members, frozenset):
            object.__setattr__(self, "members", frozenset(self.members))
        for i in self.members:
            if not 1 <= i <= self.m:
                raise ValueError(f"member {i} outside ground set 1..{self.m}")

    @classmethod
    def from_mask(cls, m: int, mask: int) -> Subset:
        if mask >> m:
            raise ValueError(f"mask 0b{mask:b} exceeds ground set size {m}")
        return cls(m, frozenset(i + 1 for i in range(m) if mask >> i & 1))

    @classmethod
    def parse(cls, m: int, text: str) -> Subset:
        """Parse the CLI form: comma-separated members, or ``-`` for empty."""
        text = text.strip()
        if text in ("-", ""):
            return cls(m, frozenset())
        try:
            members = [int(part) for part in text.split(",")]
        except ValueError:
            raise ValueError(f"bad subset syntax {text!r}: use e.g. '1,3,4' or '-'") from None
        if len(set(members)) != len(members):
            raise ValueError(f"duplicate members in subset {text!r}")
        return cls(m, frozenset(members))

    @cached_property
    def mask(self) -> int:
        return sum(1 << (i - 1) for i in self.members)

    @property
    def size(self) -> int:
        return len(self.members)

    @cached_property
    def _text(self) -> str:
        return ",".join(str(i) for i in sorted(self.members)) or "-"

    def __str__(self) -> str:
        return self._text


def subset(m: int, *members: int) -> Subset:
    """Convenience constructor: ``subset(4, 1, 3)`` is {1,3} in {1..4}."""
    return Subset(m, frozenset(members))


@dataclass(frozen=True)
class ComplexSpec:
    """Delta_L for ``generator`` L, or its set complement in F2^m."""

    generator: Subset
    complemented: bool = False

    @property
    def m(self) -> int:
        return self.generator.m


def enumerate_members(spec: ComplexSpec) -> list[int]:
    """Members of the complex (or its complement) in increasing bitmask order."""
    return list(_factor(spec.m, spec.generator.mask, spec.complemented)[0])


def complex_size(spec: ComplexSpec) -> int:
    """|Delta_L| = 2^|L|, or 2^m - 2^|L| for the complement."""
    inside = 1 << spec.generator.size
    return (1 << spec.m) - inside if spec.complemented else inside


def phi(w: int, gen: Subset) -> int:
    """prod_{i in L} (1 - w_i) over the integers: 1 iff supp(w) misses L.

    The empty product (L empty) is 1.
    """
    return 0 if w & gen.mask else 1


def char_sum(spec: ComplexSpec, w: int) -> int:
    """sum_{v in complex} (-1)^(w . v), by the closed form.

    The test suite checks this against literal enumeration for every w and
    every generator on small ground sets.
    """
    if w >> spec.m:
        raise ValueError(f"vector 0b{w:b} exceeds ground set size {spec.m}")
    inside = (1 << spec.generator.size) * phi(w, spec.generator)
    if not spec.complemented:
        return inside
    total = (1 << spec.m) if w == 0 else 0
    return total - inside


def spectrum(spec: ComplexSpec) -> list[int]:
    """The character sum of the complex at every w in F2^m, indexed by w."""
    return list(_factor(spec.m, spec.generator.mask, spec.complemented)[1])


@lru_cache(maxsize=_FACTORS)
def _factor(m: int, mask: int, complemented: bool) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The member list and the spectrum of the factor Delta_X, or its complement, X = ``mask``."""
    spec, full = ComplexSpec(Subset.from_mask(m, mask), complemented), range(1 << m)
    members = tuple(v for v in full if bool(v & ~mask) == complemented)
    return members, tuple(char_sum(spec, w) for w in full)

