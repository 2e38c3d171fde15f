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
from fractions import Fraction
from typing import Iterator, Literal, Mapping, Sequence

from .errors import (
    IncompatibleRadicandsError,
    InvalidSpinError,
    InvalidValueError,
    ModeMismatchError,
    NotPermutableError,
    ShapeError,
)
from .exact import ZERO, ExactScalar, Frozen, Rational

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


class Permutation(Frozen):
    """A bijection of slot indices ``0..n-1``, stored as its image tuple."""

    __slots__ = ("image",)
    image: tuple[int, ...]

    def __init__(self, image: Sequence[int]) -> None:
        image = tuple(image)
        if sorted(image) != list(range(len(image))):
            raise ValueError(f"not a permutation of 0..{len(image) - 1}: {image}")
        object.__setattr__(self, "image", image)

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


class Ket(Frozen):
    """An n-particle state with sparse amplitudes.

    ``dims[i]`` is the local dimension of slot ``i``; absent labels carry
    amplitude zero.  The stored mapping is canonical: exact zeros and float
    entries below 1e-15 are dropped.
    """

    __slots__ = ("dims", "amplitudes")
    dims: tuple[int, ...]
    amplitudes: Mapping[Label, Scalar]

    def __init__(self, dims: Sequence[int], amplitudes: Mapping[Label, Scalar] | None = None) -> None:
        dims = tuple(int(d) for d in dims)
        if any(d < 1 for d in dims):
            raise ShapeError("local dimensions must be positive")
        cleaned: dict[Label, Scalar] = {}
        mode: str | None = None
        for label, raw in (amplitudes or {}).items():
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
        # A loop, not sum(): from Python 3.12 sum() adds floats with
        # compensation, so the total would depend on the version.
        total = 0.0
        for a in self.amplitudes.values():
            total += abs(a) ** 2
        return total

    def normalized(self) -> "Ket":
        n2 = self.norm_squared()
        if not n2:
            raise InvalidValueError("cannot normalize the zero ket")
        if isinstance(n2, ExactScalar):
            raise IncompatibleRadicandsError(f"squared norm {n2} is irrational; no exact normalization")
        if self.mode == EXACT:
            return self.scale(ExactScalar.sqrt(Fraction(1) / n2))
        return self.scale(1.0 / math.sqrt(n2))

    def to_float(self) -> "Ket":
        if self.mode != EXACT:
            return self
        return Ket(self.dims, {l: complex(float(a)) for l, a in self.amplitudes.items()})

    def isclose(self, other: "Ket", tol: float = 1e-12) -> bool:
        """Amplitude-wise comparison after converting both kets to floats."""
        if self.dims != other.dims:
            return False
        return amplitudes_close(self.to_float().amplitudes, other.to_float().amplitudes, tol)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for label in self.support():
            amp = self.amplitudes[label]
            text = f"({amp})" if isinstance(amp, ExactScalar) and len(amp.terms) > 1 else str(amp)
            parts.append(f"{text}|{','.join(map(str, label))}>")
        return " + ".join(parts)


def amplitudes_close(a: Mapping[Label, complex], b: Mapping[Label, complex], tol: float = 1e-12) -> bool:
    """Whether two float amplitude maps differ by less than ``tol`` at every label; a missing label is 0."""
    return all(abs(a.get(l, 0) - b.get(l, 0)) < tol for l in a.keys() | b.keys())


def tensor_product(first: Ket, *rest: Ket) -> Ket:
    """Tensor product; slot order is the arguments' slots in order.

    Amplitudes multiply left to right into one map, so no partial product is dropped as negligible.
    """
    dims, amps, mode = first.dims, first.amplitudes, first.mode
    for ket in rest:
        mode = join_modes(mode, ket.mode)
        dims += ket.dims
        amps = {la + lb: va * vb for la, va in amps.items() for lb, vb in ket.amplitudes.items()}
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


def relabel_slots(amplitudes: Mapping[Label, Scalar], image: Sequence[int]) -> dict[Label, Scalar]:
    """The amplitudes with each label ``L`` moved to ``(L[image[0]], ..., L[image[n-1]])``."""
    return {tuple([label[k] for k in image]): amp for label, amp in amplitudes.items()}


def permute_slots(ket: Ket, perm: Permutation) -> Ket:
    """Rearrange particle slots: the result's label ``L`` comes from ``L∘p``.

    Satisfies ``permute_slots(permute_slots(k, p), q) == permute_slots(k, q.after(p))``.
    """
    if perm.size != ket.n_particles:
        raise ShapeError(f"permutation acts on {perm.size} slots, ket has {ket.n_particles}")
    if len(set(ket.dims)) > 1:
        raise NotPermutableError(f"slots of unequal dimension {ket.dims} are not permutable")
    return Ket(ket.dims, relabel_slots(ket.amplitudes, perm.inverse().image))


def check_spin(j: Rational) -> Fraction:
    j = Fraction(j)
    if j < 0 or (2 * j).denominator != 1:
        raise InvalidSpinError(f"spin must be a nonnegative half-integer, got {j}")
    return j


def spin_values(j: Fraction, step: int = 1) -> list[Fraction]:
    """Projections ``j, j-step, j-2*step, ...`` of spin ``j`` that stay at or above ``-j``.

    At ``step`` 1 this is the local basis of a ``2j+1``-dimensional slot in
    index order; a rescaled ladder with ``step`` n skips the projections in
    between.
    """
    return [j - k for k in range(0, int(2 * j) + 1, step)]


def index_of_m(dim: int, m: Rational) -> int:
    """Basis index of projection ``m`` within a ``dim``-sized slot."""
    j = Fraction(dim - 1, 2)
    idx = j - Fraction(m)
    if idx.denominator != 1 or not 0 <= idx <= dim - 1:
        raise ShapeError(f"projection {m} not in a dimension-{dim} basis")
    return int(idx)


def ladder_factor(j: Fraction, m: Fraction, direction: Literal["+", "-"]) -> ExactScalar:
    """sqrt((j-m)(j+m+1)) for raising, sqrt((j+m)(j-m+1)) for lowering."""
    if direction == "+":
        return ExactScalar.sqrt((j - m) * (j + m + 1))
    return ExactScalar.sqrt((j + m) * (j - m + 1))


def ladder(j: Fraction, direction: Literal["+", "-"], step: int = 1) -> list[Ket]:
    """Each basis ket's image under ``step * L±`` on one slot whose basis is ``spin_values(j, step)``."""
    values = spin_values(j, step)
    shift = -1 if direction == "+" else 1  # L+ moves label k to k - 1; a step off either end vanishes
    dims = (len(values),)
    return [
        Ket(dims, {(k + shift,): ladder_factor(j, m, direction) * step} if 0 <= k + shift < len(values) else {})
        for k, m in enumerate(values)
    ]


def apply_to_slot(images: Sequence[Ket], ket: Ket, slot: int) -> Ket:
    """Apply to ``slot`` the operator that sends its label ``k`` to the one-slot ket ``images[k]``."""
    if ket.mode == FLOAT:  # exact images act on a float ket through their complex values
        images = [image.to_float() for image in images]
    amps: dict[Label, Scalar] = {}
    for label, amp in ket.amplitudes.items():
        for (k,), factor in images[label[slot]].amplitudes.items():
            target = label[:slot] + (k,) + label[slot + 1 :]
            value = amp * factor
            amps[target] = amps[target] + value if target in amps else value
    return Ket(ket.dims, amps)
