"""Spatial kernel banks used by the grouping stage.

One frozen ``GroupingBanks`` record holds all 17 kernels, square and
sized per the resolution mode (11x11 at 640x480, 5x5 at the reduced
resolutions); its size is read from the kernels:

* quadrature even/odd oriented band-pass pairs for edge extraction,
  one pair per edge orientation in {0, pi/4, pi/2, 3pi/4};
* a single zero-DC ON-center/OFF-surround kernel (the OFF response is
  the negated ON response downstream);
* annular von Mises association fields, one pair per orientation
  pointing at the two sides of the oriented border.

Every engine builds its record with ``build_banks`` at its mode's kernel
size, which makes the edge pairs exactly (anti)symmetric.  Every record
holds two invariants the grouping stage relies on: no von Mises
tap is negative (the shared path sums ON and OFF first), and vm_right[i]
is exactly vm_left[i] rotated by 180 degrees (P4's two sides; P7
convolves with one by correlating with the other).  ``KERNEL_NAMES``
spells the kernels' names once: the record's invariant errors name a
kernel by it, and ``map_kernels`` (one function over every kernel, as
the fixed-point model quantizes them) keys kernels by it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError

#: Edge orientations, in radians.  theta is the orientation of the edge
#: itself; the carrier of its quadrature pair runs along the normal.
THETAS = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4)

#: von Mises concentration.
VM_KAPPA = 4.0


def _grid(size: int):
    half = size // 2
    dy, dx = np.mgrid[-half : half + 1, -half : half + 1].astype(np.float64)
    return dy, dx


def _rot180(k: np.ndarray) -> np.ndarray:
    return k[::-1, ::-1]


def _gabor_pair(size: int, theta: float):
    """Even (cos) and odd (sin) oriented band-pass kernels.

    Wavelength is half the kernel size, envelope aspect 1, envelope
    sigma 0.56 * wavelength (one-octave bandwidth).  The even kernel has
    its DC removed; both are scaled to unit L2 norm.
    """
    dy, dx = _grid(size)
    lam = size / 2.0
    sigma = 0.56 * lam
    # Carrier along the edge normal; y grows downward.
    psi = theta + math.pi / 2
    u = dx * math.cos(psi) + dy * math.sin(psi)
    envelope = np.exp(-(dx**2 + dy**2) / (2 * sigma**2))
    even = envelope * np.cos(2 * math.pi * u / lam)
    odd = envelope * np.sin(2 * math.pi * u / lam)
    # Exact symmetry/antisymmetry under 180-degree rotation.
    even = (even + _rot180(even)) / 2.0
    odd = (odd - _rot180(odd)) / 2.0
    even = even - even.mean()
    even /= np.sqrt(np.sum(even**2))
    odd /= np.sqrt(np.sum(odd**2))
    return even, odd


def _center_surround(size: int) -> np.ndarray:
    """Difference-of-Gaussians ON-center kernel, exactly zero DC."""
    dy, dx = _grid(size)
    r2 = dx**2 + dy**2
    sigma_c = size / 6.0
    sigma_s = 2.0 * sigma_c
    center = np.exp(-r2 / (2 * sigma_c**2))
    surround = np.exp(-r2 / (2 * sigma_s**2))
    kern = center / center.sum() - surround / surround.sum()
    return kern - kern.mean()


def _von_mises(size: int, direction: float) -> np.ndarray:
    """Annular association field peaked in the given direction.

    An annulus of radius size/2 weighted by exp(kappa * cos(phi - dir)),
    normalized to unit L1 mass; non-negative by construction.
    """
    dy, dx = _grid(size)
    radius = size / 2.0
    sigma_r = radius / 3.0
    r = np.sqrt(dx**2 + dy**2)
    phi = np.arctan2(dy, dx)
    kern = np.exp(VM_KAPPA * np.cos(phi - direction)) * np.exp(
        -((r - radius) ** 2) / (2 * sigma_r**2)
    )
    return kern / kern.sum()


#: Names of the 17 kernels, in record order; "odd 2" is odd[2] of ``GroupingBanks``.
KERNEL_NAMES = (*(f"{k} {i}" for i in range(len(THETAS)) for k in ("even", "odd")), "cs on",
                *(f"{k} {i}" for i in range(len(THETAS)) for k in ("vm_left", "vm_right")))


@dataclass(frozen=True)
class GroupingBanks:
    """The 17 kernels, all read-only and size x size with an odd size.

    even[i], odd[i] are the quadrature pair for THETAS[i]; cs_on is the
    ON-center kernel (OFF is its negation downstream); vm_left[i] points
    along THETAS[i] + pi/2 (downward normal in image coordinates) and
    vm_right[i] is its exact 180-degree rotation.  A misshapen kernel raises
    ``DimensionError``, one that breaks an invariant ``ConfigError``.
    """

    even: tuple
    odd: tuple
    cs_on: np.ndarray
    vm_left: tuple
    vm_right: tuple

    def __post_init__(self):
        for name, kern in _iter_kernels(self):
            if kern.shape != (self.size, self.size) or self.size % 2 == 0:
                raise DimensionError(f"kernel {name!r} is {kern.shape}, not "
                                     f"{self.size}x{self.size} with an odd size")
            field, i = _slot(name)
            if field.startswith("vm_") and np.any(kern < 0):
                raise ConfigError(f"von Mises kernel {name!r} has a negative tap")
            if field == "vm_right" and not np.array_equal(kern, _rot180(self.vm_left[i])):
                raise ConfigError(f"kernel {name!r} is not 'vm_left {i}' rotated by 180 degrees")
        for _, kern in _iter_kernels(self):
            kern.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.cs_on)


def build_banks(size: int) -> GroupingBanks:
    """Construct all kernel banks for one odd kernel size."""
    if size < 3 or size % 2 == 0:
        raise ConfigError(f"kernel size must be odd and >= 3, got {size}")
    even, odd = zip(*(_gabor_pair(size, theta) for theta in THETAS))
    left = tuple(_von_mises(size, theta + math.pi / 2) for theta in THETAS)
    return GroupingBanks(even, odd, _center_surround(size), left,
                         tuple(_rot180(k).copy() for k in left))


def _slot(name: str):
    """(field, theta index) of a kernel name; cs_on has no index (None)."""
    field, _, i = name.partition(" ")
    return (field, int(i)) if i.isdigit() else (name.replace(" ", "_"), None)


def _iter_kernels(banks: GroupingBanks):
    """(name, kernel) pairs of every kernel, in ``KERNEL_NAMES`` order."""
    for name in KERNEL_NAMES:
        field, i = _slot(name)
        yield name, getattr(banks, field) if i is None else getattr(banks, field)[i]


def _assemble(kernels_by_name: dict) -> GroupingBanks:
    """Banks from kernels keyed by ``KERNEL_NAMES``; a missing name raises ``KeyError``."""
    fields = {}
    for name in KERNEL_NAMES:
        field, i = _slot(name)
        kern = kernels_by_name[name]
        fields[field] = kern if i is None else fields.get(field, ()) + (kern,)
    return GroupingBanks(**fields)


def map_kernels(banks: GroupingBanks, fn) -> GroupingBanks:
    """The record with ``fn`` applied to every kernel (see ``GroupingBanks``)."""
    return _assemble({name: fn(kern) for name, kern in _iter_kernels(banks)})
