from pathlib import Path

import numpy as np
import pytest

from podvs.errors import ConfigError, DimensionError
from podvs.kernels import (
    KERNEL_NAMES,
    THETAS,
    _assemble,
    _iter_kernels,
    build_banks,
    map_kernels,
)

#: ``build_banks(size)`` coefficients as pinned: a header line, a "size n"
#: line, then per kernel a "kernel <name>" line and n rows of n values, each
#: printed with 17 significant digits (exact for float64).
PINNED = {size: Path(__file__).parent / "data" / f"kernel_bank_{size}x{size}.txt"
          for size in (5, 11)}


def read_pinned(path):
    """(size, {kernel name: kernel}) of a pinned coefficient file, in file order."""
    lines = path.read_text().splitlines()
    size = int(lines[1].split()[1])
    kernels = {}
    for i in range(2, len(lines), size + 1):
        rows = lines[i + 1 : i + 1 + size]
        kernels[lines[i].removeprefix("kernel ")] = np.array(
            [[float(v) for v in row.split()] for row in rows])
    return size, kernels


@pytest.fixture(params=[5, 11], ids=["5x5", "11x11"])
def banks(request):
    return build_banks(request.param)


def rot180(k):
    return k[::-1, ::-1]


class TestEdgeBank:
    def test_even_symmetric_under_rotation(self, banks):
        for even in banks.even:
            np.testing.assert_array_equal(even, rot180(even))

    def test_odd_antisymmetric(self, banks):
        for odd in banks.odd:
            np.testing.assert_array_equal(odd, -rot180(odd))

    def test_odd_zero_dc(self, banks):
        for odd in banks.odd:
            assert abs(odd.sum()) < 1e-15

    def test_even_zero_dc(self, banks):
        for even in banks.even:
            assert abs(even.sum()) < 1e-12

    def test_unit_l2_norm(self, banks):
        for kern in (*banks.even, *banks.odd):
            assert np.sum(kern**2) == pytest.approx(1.0, abs=1e-12)

    def test_four_orientations(self, banks):
        assert len(banks.even) == len(banks.odd) == len(THETAS) == 4


class TestCenterSurround:
    def test_zero_dc(self, banks):
        assert abs(banks.cs_on.sum()) < 1e-12

    def test_excitatory_center(self, banks):
        c = banks.size // 2
        assert banks.cs_on[c, c] > 0

    def test_inhibitory_surround(self, banks):
        assert banks.cs_on[0, 0] < 0


class TestVonMises:
    def test_right_is_rotated_left(self, banks):
        for left, right in zip(banks.vm_left, banks.vm_right):
            np.testing.assert_array_equal(right, rot180(left))

    def test_nonnegative_unit_mass(self, banks):
        for kern in (*banks.vm_left, *banks.vm_right):
            assert np.all(kern >= 0)
            assert kern.sum() == pytest.approx(1.0, abs=1e-12)

    def test_annular_center_suppressed(self, banks):
        c = banks.size // 2
        for kern in banks.vm_left:
            assert kern[c, c] < kern.max() / 10

    def test_side_direction(self):
        # theta = pi/2 (vertical border): the right-side kernel points
        # along +x, so its mass sits in the dx > 0 half
        banks = build_banks(5)
        ti = THETAS.index(np.pi / 2)
        right = banks.vm_right[ti]
        assert right[:, 3:].sum() > right[:, :2].sum()
        left = banks.vm_left[ti]
        assert left[:, :2].sum() > left[:, 3:].sum()


class TestBankIO:
    @pytest.mark.parametrize("size", sorted(PINNED))
    def test_coefficients_match_the_pinned_file(self, size):
        pinned_size, pinned = read_pinned(PINNED[size])
        assert pinned_size == size
        assert tuple(pinned) == KERNEL_NAMES and len(set(KERNEL_NAMES)) == 17
        for name, kernel in _iter_kernels(build_banks(size)):
            np.testing.assert_array_equal(kernel, pinned[name], err_msg=name)

    def test_every_kernel_read_only(self, banks):
        for made in (banks, map_kernels(banks, np.abs)):
            kernels = [kernel for _, kernel in _iter_kernels(made)]
            assert len(kernels) == 17
            assert not any(kernel.flags.writeable for kernel in kernels)
            with pytest.raises(ValueError):
                kernels[0][0, 0] = 1.0

    def test_map_kernels_keeps_each_name(self, banks):
        doubled = dict(_iter_kernels(map_kernels(banks, lambda k: 2.0 * k)))
        for name, kernel in _iter_kernels(banks):
            np.testing.assert_array_equal(doubled[name], 2.0 * kernel)
        assert map_kernels(banks, np.abs).size == banks.size

    def test_kernel_of_another_size_rejected(self):
        kernels = dict(_iter_kernels(build_banks(5)))
        kernels["odd 2"] = build_banks(7).odd[2]
        with pytest.raises(DimensionError, match="'odd 2'"):
            _assemble(kernels)

    @pytest.mark.parametrize("name, change, message", [
        ("vm_left 2", lambda k: k - k.mean(), "'vm_left 2' has a negative tap"),
        ("vm_right 1", lambda k: k[::-1, ::-1], "'vm_right 1' is not 'vm_left 1' rotated"),
    ], ids=["negative", "asymmetric"])
    def test_broken_von_mises_invariant_rejected(self, banks, name, change, message):
        kernels = dict(_iter_kernels(banks))
        kernels[name] = change(kernels[name])
        with pytest.raises(ConfigError, match=message):
            _assemble(kernels)

    def test_map_kernels_to_an_even_size_rejected(self):
        with pytest.raises(DimensionError, match="odd size"):
            map_kernels(build_banks(5), lambda k: k[:-1, :-1])

    def test_size_read_from_the_kernels(self, banks):
        assert banks.size == len(banks.cs_on) == banks.even[0].shape[1]
        assert map_kernels(banks, lambda k: k[1:-1, 1:-1]).size == banks.size - 2

    def test_rejects_even_size(self):
        with pytest.raises(ConfigError):
            build_banks(6)
