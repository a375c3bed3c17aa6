"""Spatial kernel banks used by the grouping stage.

One frozen ``GroupingBanks`` record holds all 17 kernels, square and
sized per the resolution mode (11x11 at 640x480, 5x5 at the reduced
resolutions), as the two stages that read them hold them: P3's 9 MAC
banks as one (9, k, k) stack and P4's 16 von Mises units as one
(4, 2, k, k) [theta, side] stack.  Its size is read from the stacks:

* quadrature even/odd oriented band-pass pairs for edge extraction,
  one pair per edge orientation in {0, pi/4, pi/2, 3pi/4};
* a single zero-DC ON-center/OFF-surround kernel (the OFF response is
  the negated ON response downstream);
* annular von Mises association fields, one pair per orientation
  pointing at the two sides of the oriented border.

Every engine builds its record with ``build_banks`` at its mode's kernel
size, which makes the edge pairs exactly (anti)symmetric.  The record is
built from the left von Mises kernels alone and makes each right one
their exact 180-degree rotation (P4's two sides; P7 convolves with one
by correlating with the other), so no record holds an unrotated pair.
It admits no negative von Mises tap (the shared path sums ON and OFF
first).  ``KERNEL_NAMES`` names the 17 kernels in the order of
``GroupingBanks.kernels``, as the pinned coefficient files name them;
``map_kernels`` applies one elementwise function to both stacks, as the
fixed-point model quantizes them.
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
    even = (even + even[::-1, ::-1]) / 2.0
    odd = (odd - odd[::-1, ::-1]) / 2.0
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


#: Names of the 17 kernels, in ``GroupingBanks.kernels`` order: "odd 2" is
#: p3[5], "cs on" p3[8] and "vm_right 1" vm[1, 1].
KERNEL_NAMES = (*(f"{k} {i}" for i in range(len(THETAS)) for k in ("even", "odd")), "cs on",
                *(f"{k} {i}" for i in range(len(THETAS)) for k in ("vm_left", "vm_right")))


@dataclass(frozen=True, init=False, eq=False)
class GroupingBanks:
    """P3's and P4's kernels as two read-only stacks of size x size kernels,
    size odd.

    ``p3`` is (9, size, size): even[i], odd[i] for each THETAS[i] in turn (the
    quadrature pairs), then the ON-center kernel (OFF is its negation
    downstream).  ``vm`` is (4, 2, size, size) [theta, side]: vm[i, 0] points
    along THETAS[i] + pi/2 (downward normal in image coordinates), and the
    record builds vm[i, 1] as its 180-degree rotation from the left kernels
    alone, ``vm_left`` (4, size, size).  A misshapen stack raises
    ``DimensionError``, a negative von Mises tap ``ConfigError``.  Two
    records are equal only if they are one object.
    """

    p3: np.ndarray
    vm: np.ndarray

    def __init__(self, p3: np.ndarray, vm_left: np.ndarray):
        size = p3.shape[-1]
        if p3.shape != (9, size, size) or vm_left.shape != (4, size, size) or size % 2 == 0:
            raise DimensionError(f"kernel stacks are {p3.shape} and {vm_left.shape}, not "
                                 f"(9, k, k) and (4, k, k) with an odd k")
        negative = np.any(vm_left < 0, axis=(1, 2))
        if negative.any():
            raise ConfigError(f"von Mises kernel 'vm_left {negative.argmax()}' has a negative tap")
        vm = np.stack([vm_left, vm_left[:, ::-1, ::-1]], axis=1)
        for name, stack in (("p3", p3), ("vm", vm)):
            stack.setflags(write=False)
            object.__setattr__(self, name, stack)

    @property
    def size(self) -> int:
        return self.p3.shape[-1]

    @property
    def kernels(self) -> tuple:
        """The 17 kernels, read-only views in ``KERNEL_NAMES`` order."""
        return (*self.p3, *self.vm.reshape(-1, self.size, self.size))


def build_banks(size: int) -> GroupingBanks:
    """Construct all kernel banks for one odd kernel size."""
    if size < 3 or size % 2 == 0:
        raise ConfigError(f"kernel size must be odd and >= 3, got {size}")
    p3 = np.stack([*(k for theta in THETAS for k in _gabor_pair(size, theta)),
                   _center_surround(size)])
    return GroupingBanks(p3, np.stack([_von_mises(size, theta + math.pi / 2) for theta in THETAS]))


def map_kernels(banks: GroupingBanks, fn) -> GroupingBanks:
    """The record with the elementwise ``fn`` applied to both stacks; ``fn``
    commutes with the rotation, so the right side is rebuilt from the
    mapped left one."""
    return GroupingBanks(fn(banks.p3), fn(banks.vm[:, 0]))
