"""Sparse state vectors over labeled tensor-product bases.

A :class:`Ket` maps basis labels (tuples of per-slot indices, index 0 being
the highest spin projection) to amplitudes.  Amplitudes are either all
:class:`~spinstat.exact.ExactScalar` ("exact" mode) or all ``complex``
("float" mode); the two modes never mix inside one ket.  All values are
immutable after construction and every operation is a pure function.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from .errors import (
    IncompatibleRadicandsError,
    InvalidValueError,
    ModeMismatchError,
    NotPermutableError,
    ShapeError,
)
from .exact import ZERO, ExactScalar, Rational

# Functions that compute with arrays import numpy themselves, so exact
# callers, and most CLI subcommands, never load it.
if TYPE_CHECKING:
    import numpy as np

Label = tuple[int, ...]
Scalar = ExactScalar | complex

EXACT = "exact"
FLOAT = "float"


def _as_amplitude(value: Scalar | Rational) -> Scalar:
    if isinstance(value, (ExactScalar, complex)):
        return value
    if isinstance(value, (int, Fraction)):
        return ExactScalar(value)
    if isinstance(value, float):
        return complex(value)
    raise TypeError(f"unsupported amplitude type: {type(value).__name__}")


def _mode_of(value: Scalar) -> str:
    return EXACT if isinstance(value, ExactScalar) else FLOAT


def join_modes(a: str | None, b: str | None) -> str | None:
    """Combine the modes of two operands; ``None`` (zero ket) is neutral."""
    if a is None:
        return b
    if b is None:
        return a
    if a != b:
        raise ModeMismatchError(f"cannot combine {a} and {b} amplitudes")
    return a


@dataclass(frozen=True)
class Permutation:
    """A bijection of slot indices ``0..n-1``, stored as its image tuple."""

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "image", tuple(self.image))
        if sorted(self.image) != list(range(len(self.image))):
            raise ValueError(f"not a permutation of 0..{len(self.image) - 1}: {self.image}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @classmethod
    def swap(cls, n: int, i: int, j: int) -> "Permutation":
        image = list(range(n))
        image[i], image[j] = image[j], image[i]
        return cls(tuple(image))

    @classmethod
    def all_of(cls, n: int) -> Iterator["Permutation"]:
        """All n! permutations in lexicographic image order."""
        for image in itertools.permutations(range(n)):
            yield cls(image)

    @classmethod
    def transpositions(cls, n: int) -> Iterator["Permutation"]:
        for i in range(n):
            for j in range(i + 1, n):
                yield cls.swap(n, i, j)

    @property
    def size(self) -> int:
        return len(self.image)

    @property
    def sign(self) -> int:
        inversions = sum(
            1
            for i in range(self.size)
            for j in range(i + 1, self.size)
            if self.image[i] > self.image[j]
        )
        return -1 if inversions % 2 else 1

    def __call__(self, i: int) -> int:
        return self.image[i]

    def inverse(self) -> "Permutation":
        inv = [0] * self.size
        for i, v in enumerate(self.image):
            inv[v] = i
        return Permutation(tuple(inv))

    def after(self, other: "Permutation") -> "Permutation":
        """Composition ``self ∘ other`` (apply ``other`` first)."""
        return Permutation(tuple(self.image[other.image[i]] for i in range(self.size)))

    def __str__(self) -> str:
        return "(" + ",".join(str(i) for i in self.image) + ")"


@dataclass(frozen=True)
class Ket:
    """An n-particle state with sparse amplitudes.

    ``dims[i]`` is the local dimension of slot ``i``; absent labels carry
    amplitude zero.  The stored mapping is canonical: exact zeros and float
    entries below 1e-15 are dropped.
    """

    dims: tuple[int, ...]
    amplitudes: Mapping[Label, Scalar] = field(default_factory=dict)

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        if any(d < 1 for d in dims):
            raise ShapeError("local dimensions must be positive")
        cleaned: dict[Label, Scalar] = {}
        mode: str | None = None
        for label, raw in self.amplitudes.items():
            label = tuple(int(i) for i in label)
            if len(label) != len(dims) or any(
                not 0 <= idx < d for idx, d in zip(label, dims)
            ):
                raise ShapeError(f"label {label} invalid for dims {dims}")
            amp = _as_amplitude(raw)
            mode = join_modes(mode, _mode_of(amp))
            if isinstance(amp, ExactScalar):
                if amp.is_zero:
                    continue
            elif abs(amp) < 1e-15:
                continue
            cleaned[label] = amp
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", cleaned)

    @classmethod
    def zero(cls, dims: Sequence[int]) -> "Ket":
        return cls(tuple(dims), {})

    @classmethod
    def basis(cls, dims: Sequence[int], label: Sequence[int]) -> "Ket":
        return cls(tuple(dims), {tuple(label): ExactScalar(1)})

    @property
    def n_particles(self) -> int:
        return len(self.dims)

    @property
    def mode(self) -> str | None:
        """``"exact"``, ``"float"``, or ``None`` for the zero ket."""
        for amp in self.amplitudes.values():
            return _mode_of(amp)
        return None

    @property
    def is_zero(self) -> bool:
        return not self.amplitudes

    def amplitude(self, label: Sequence[int]) -> Scalar:
        return self.amplitudes.get(tuple(label), ExactScalar(0) if self.mode != FLOAT else 0j)

    def support(self) -> list[Label]:
        return sorted(self.amplitudes)

    def __add__(self, other: "Ket") -> "Ket":
        if not isinstance(other, Ket):
            return NotImplemented
        if self.dims != other.dims:
            raise ShapeError(f"dims {self.dims} != {other.dims}")
        join_modes(self.mode, other.mode)
        amps: dict[Label, Scalar] = dict(self.amplitudes)
        for label, amp in other.amplitudes.items():
            if label in amps:
                amps[label] = amps[label] + amp
            else:
                amps[label] = amp
        return Ket(self.dims, amps)

    def __sub__(self, other: "Ket") -> "Ket":
        return self + (-other)

    def __neg__(self) -> "Ket":
        return Ket(self.dims, {l: -a for l, a in self.amplitudes.items()})

    def scale(self, factor: Scalar | Rational) -> "Ket":
        factor = _as_amplitude(factor)
        if self.is_zero:
            return self
        if self.mode == FLOAT and isinstance(factor, ExactScalar):
            factor = complex(float(factor))
        join_modes(self.mode, _mode_of(factor))
        return Ket(self.dims, {l: a * factor for l, a in self.amplitudes.items()})

    def __mul__(self, factor: Scalar | Rational) -> "Ket":
        return self.scale(factor)

    __rmul__ = __mul__

    def norm_squared(self) -> Fraction | ExactScalar | float:
        """Squared norm; exact kets give a ``Fraction``, or an ``ExactScalar`` if irrational."""
        if self.mode == EXACT:
            total = sum((a * a for a in self.amplitudes.values()), ZERO)  # type: ignore[misc]
            return total if len(total.terms) > 1 else total.coefficient
        return float(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def normalized(self) -> "Ket":
        n2 = self.norm_squared()
        if not n2:
            raise InvalidValueError("cannot normalize the zero ket")
        if isinstance(n2, ExactScalar):
            raise IncompatibleRadicandsError(f"squared norm {n2} is irrational; no exact normalization")
        if self.mode == EXACT:
            return self.scale(ExactScalar.sqrt(Fraction(1) / n2))
        return self.scale(1.0 / math.sqrt(n2))

    def is_normalized(self, tol: float = 1e-12) -> bool:
        n2 = self.norm_squared()
        if self.mode == EXACT:
            return n2 == 1
        return abs(n2 - 1.0) < tol

    def to_array(self) -> np.ndarray:
        """Dense complex amplitudes of shape ``dims``, indexed by label."""
        import numpy as np

        psi = np.zeros(self.dims, dtype=complex)
        for label, amp in self.amplitudes.items():
            psi[label] = complex(amp)
        return psi

    def to_float(self) -> "Ket":
        if self.mode != EXACT:
            return self
        return Ket(self.dims, {l: complex(float(a)) for l, a in self.amplitudes.items()})

    def isclose(self, other: "Ket", tol: float = 1e-12) -> bool:
        """Amplitude-wise comparison after converting both kets to floats."""
        if self.dims != other.dims:
            return False
        a, b = self.to_float(), other.to_float()
        labels = set(a.amplitudes) | set(b.amplitudes)
        return all(abs(a.amplitude(l) - b.amplitude(l)) < tol for l in labels)

    def equals_up_to_sign(self, other: "Ket") -> bool:
        return self == other or self == -other

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for label in self.support():
            amp = self.amplitudes[label]
            text = f"({amp})" if isinstance(amp, ExactScalar) and len(amp.terms) > 1 else str(amp)
            parts.append(f"{text}|{','.join(map(str, label))}>")
        return " + ".join(parts)


def tensor_product(a: Ket, b: Ket) -> Ket:
    """Tensor product; slot order is ``a``'s slots followed by ``b``'s."""
    join_modes(a.mode, b.mode)
    dims = a.dims + b.dims
    amps: dict[Label, Scalar] = {}
    for la, va in a.amplitudes.items():
        for lb, vb in b.amplitudes.items():
            amps[la + lb] = va * vb
    return Ket(dims, amps)


def inner_product(a: Ket, b: Ket) -> Scalar:
    """Inner product, conjugate-linear in ``a`` and linear in ``b``.

    Exact kets give an exact :class:`~spinstat.exact.ExactScalar`; float kets
    and two zero kets give a ``complex``.
    """
    if a.dims != b.dims:
        raise ShapeError(f"dims {a.dims} != {b.dims}")
    total: Scalar = ZERO if join_modes(a.mode, b.mode) == EXACT else 0j
    for label, va in a.amplitudes.items():
        vb = b.amplitudes.get(label)
        if vb is not None:
            total = total + va.conjugate() * vb  # type: ignore[operator]
    return total


def permute_slots(ket: Ket, perm: Permutation) -> Ket:
    """Rearrange particle slots: the result's label ``L`` comes from ``L∘p``.

    Satisfies ``permute_slots(permute_slots(k, p), q) == permute_slots(k, q.after(p))``.
    """
    if perm.size != ket.n_particles:
        raise ShapeError(f"permutation acts on {perm.size} slots, ket has {ket.n_particles}")
    if len(set(ket.dims)) > 1:
        raise NotPermutableError(f"slots of unequal dimension {ket.dims} are not permutable")
    inv = perm.inverse()
    amps = {
        tuple(label[inv.image[i]] for i in range(perm.size)): amp
        for label, amp in ket.amplitudes.items()
    }
    return Ket(ket.dims, amps)


def spin_values(dim: int) -> list[Fraction]:
    """Projection values ``j, j-1, ..., -j`` for a local basis of size ``dim``."""
    j = Fraction(dim - 1, 2)
    return [j - k for k in range(dim)]


def index_of_m(dim: int, m: Rational) -> int:
    """Basis index of projection ``m`` within a ``dim``-sized slot."""
    j = Fraction(dim - 1, 2)
    idx = j - Fraction(m)
    if idx.denominator != 1 or not 0 <= idx <= dim - 1:
        raise ShapeError(f"projection {m} not in a dimension-{dim} basis")
    return int(idx)
