"""Spatial kernel banks used by the grouping stage.

Three families, all square and sized per the resolution mode (11x11 at
640x480, 5x5 at the reduced resolutions):

* quadrature even/odd oriented band-pass pairs for edge extraction,
  one pair per edge orientation in {0, pi/4, pi/2, 3pi/4};
* a single zero-DC ON-center/OFF-surround kernel (the OFF response is
  the negated ON response downstream);
* annular von Mises association fields, one pair per orientation
  pointing at the two sides of the oriented border.

Symmetries the grouping stage relies on are enforced exactly by
construction (explicit symmetrization, 180-degree rotation for the
opposite-side von Mises kernel).  Banks can be exported to and imported
from plain text so that independent consumers share bit-identical
coefficients.

``build_banks``, ``load_banks`` and ``map_kernels`` (one function over
every kernel, as the fixed-point model quantizes them) all assemble
their banks from kernels keyed by the names of the text file, and every
kernel they return is read-only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError

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


@dataclass(frozen=True)
class EdgeBank:
    """even[i], odd[i] are the quadrature pair for THETAS[i]."""

    even: tuple
    odd: tuple
    size: int


@dataclass(frozen=True)
class CenterSurroundBank:
    """ON-center kernel; the OFF response is its negation downstream."""

    on: np.ndarray
    size: int


@dataclass(frozen=True)
class VonMisesBank:
    """left[i]/right[i] point at the two sides of a THETAS[i] border.

    The left kernel points along theta + pi/2 (downward-normal in image
    coordinates), the right one is its exact 180-degree rotation.
    """

    left: tuple
    right: tuple
    size: int


@dataclass(frozen=True)
class GroupingBanks:
    edge: EdgeBank
    cs: CenterSurroundBank
    vm: VonMisesBank
    size: int


def build_banks(size: int) -> GroupingBanks:
    """Construct all kernel banks for one odd kernel size."""
    if size < 3 or size % 2 == 0:
        raise ConfigError(f"kernel size must be odd and >= 3, got {size}")
    kernels = {"cs on": _center_surround(size)}
    for i, theta in enumerate(THETAS):
        kernels[f"even {i}"], kernels[f"odd {i}"] = _gabor_pair(size, theta)
        left = _von_mises(size, theta + math.pi / 2)
        kernels[f"vm_left {i}"] = left
        kernels[f"vm_right {i}"] = _rot180(left).copy()
    return _assemble(kernels, size)


def _iter_kernels(banks: GroupingBanks):
    """(name, kernel) pairs of every kernel, in file order."""
    for i in range(len(THETAS)):
        yield f"even {i}", banks.edge.even[i]
        yield f"odd {i}", banks.edge.odd[i]
    yield "cs on", banks.cs.on
    for i in range(len(THETAS)):
        yield f"vm_left {i}", banks.vm.left[i]
        yield f"vm_right {i}", banks.vm.right[i]


def _assemble(kernels_by_name: dict, size: int) -> GroupingBanks:
    """Banks from kernels keyed by their ``_iter_kernels`` names.

    Every kernel is made read-only.  A missing name raises ``KeyError``.
    """
    def family(kind):
        return tuple(kernels_by_name[f"{kind} {i}"] for i in range(len(THETAS)))

    banks = GroupingBanks(
        edge=EdgeBank(family("even"), family("odd"), size),
        cs=CenterSurroundBank(kernels_by_name["cs on"], size),
        vm=VonMisesBank(family("vm_left"), family("vm_right"), size),
        size=size,
    )
    for _, kern in _iter_kernels(banks):
        kern.setflags(write=False)
    return banks


def map_kernels(banks: GroupingBanks, fn) -> GroupingBanks:
    """The same bank layout with ``fn`` applied to every kernel."""
    return _assemble({name: fn(kern) for name, kern in _iter_kernels(banks)}, banks.size)


def save_banks(banks: GroupingBanks, path) -> None:
    """Write every kernel as a plain-text numeric grid."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"podvs-kernel-bank 1\nsize {banks.size}\n")
        for name, kern in _iter_kernels(banks):
            fh.write(f"kernel {name}\n")
            for row in kern:
                fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_banks(path) -> GroupingBanks:
    """Read banks written by save_banks; bit-exact round trip.

    Malformed input raises ``FormatError`` naming the file and line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or not lines[0].startswith("podvs-kernel-bank"):
        raise FormatError(f"{path}: not a kernel bank file")
    try:
        size = int(lines[1].split()[1])
    except (IndexError, ValueError) as exc:
        raise FormatError(f"{path}:2: malformed size line") from exc
    if size < 1:
        raise FormatError(f"{path}:2: kernel size {size} is not positive")
    known = {f"{kind} {t}" for kind in ("even", "odd", "vm_left", "vm_right")
             for t in range(len(THETAS))} | {"cs on"}
    kernels = {}
    i = 2
    while i < len(lines):
        if not lines[i].startswith("kernel "):
            raise FormatError(f"{path}:{i + 1}: expected kernel header")
        name = lines[i][len("kernel ") :]
        if name not in known:
            raise FormatError(f"{path}:{i + 1}: unknown kernel {name!r}")
        if name in kernels:
            raise FormatError(f"{path}:{i + 1}: repeated kernel {name!r}")
        rows = []
        for j in range(i + 1, i + 1 + size):
            if j == len(lines):
                raise FormatError(f"{path}:{j + 1}: kernel {name!r} ends after {len(rows)} rows")
            try:
                rows.append([float(v) for v in lines[j].split()])
            except ValueError as exc:
                raise FormatError(f"{path}:{j + 1}: {exc}") from exc
            if len(rows[-1]) != size or not np.all(np.isfinite(rows[-1])):
                raise FormatError(f"{path}:{j + 1}: kernel {name!r} row is not "
                                  f"{size} finite values")
        kernels[name] = np.array(rows, dtype=np.float64)
        i += 1 + size
    try:
        return _assemble(kernels, size)
    except KeyError as exc:
        raise FormatError(f"{path}: missing kernel {exc}") from exc
