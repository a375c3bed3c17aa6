import dataclasses
from pathlib import Path

import numpy as np
import pytest

from podvs.config import EngineConfig, Resolution
from podvs.errors import ConfigError, DimensionError
from podvs.hwmodel import HwPipeline
from podvs.kernels import KERNEL_NAMES, THETAS, GroupingBanks, build_banks, map_kernels

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
        for even in banks.p3[:8:2]:
            np.testing.assert_array_equal(even, rot180(even))

    def test_odd_antisymmetric(self, banks):
        for odd in banks.p3[1:8:2]:
            np.testing.assert_array_equal(odd, -rot180(odd))

    def test_odd_zero_dc(self, banks):
        for odd in banks.p3[1:8:2]:
            assert abs(odd.sum()) < 1e-15

    def test_even_zero_dc(self, banks):
        for even in banks.p3[:8:2]:
            assert abs(even.sum()) < 1e-12

    def test_unit_l2_norm(self, banks):
        for kern in banks.p3[:8]:
            assert np.sum(kern**2) == pytest.approx(1.0, abs=1e-12)

    def test_four_orientations(self, banks):
        assert len(banks.p3[:8:2]) == len(banks.p3[1:8:2]) == len(THETAS) == 4


class TestCenterSurround:
    def test_zero_dc(self, banks):
        assert abs(banks.p3[8].sum()) < 1e-12

    def test_excitatory_center(self, banks):
        c = banks.size // 2
        assert banks.p3[8][c, c] > 0

    def test_inhibitory_surround(self, banks):
        assert banks.p3[8][0, 0] < 0


class TestVonMises:
    def test_right_is_rotated_left(self, banks):
        for left, right in banks.vm:
            np.testing.assert_array_equal(right, rot180(left))

    def test_nonnegative_unit_mass(self, banks):
        for kern in banks.vm.reshape(-1, banks.size, banks.size):
            assert np.all(kern >= 0)
            assert kern.sum() == pytest.approx(1.0, abs=1e-12)

    def test_annular_center_suppressed(self, banks):
        c = banks.size // 2
        for kern in banks.vm[:, 0]:
            assert kern[c, c] < kern.max() / 10

    def test_side_direction(self):
        # theta = pi/2 (vertical border): the right-side kernel points
        # along +x, so its mass sits in the dx > 0 half
        banks = build_banks(5)
        ti = THETAS.index(np.pi / 2)
        right = banks.vm[ti, 1]
        assert right[:, 3:].sum() > right[:, :2].sum()
        left = banks.vm[ti, 0]
        assert left[:, :2].sum() > left[:, 3:].sum()


class TestBankIO:
    @pytest.mark.parametrize("size", sorted(PINNED))
    def test_coefficients_match_the_pinned_file(self, size):
        pinned_size, pinned = read_pinned(PINNED[size])
        assert pinned_size == size
        assert tuple(pinned) == KERNEL_NAMES and len(set(KERNEL_NAMES)) == 17
        for name, kernel in zip(KERNEL_NAMES, build_banks(size).kernels):
            np.testing.assert_array_equal(kernel, pinned[name], err_msg=name)

    def test_every_kernel_read_only(self, banks):
        for made in (banks, map_kernels(banks, np.abs)):
            kernels = made.kernels
            assert len(kernels) == 17
            assert not any(kernel.flags.writeable for kernel in kernels)
            with pytest.raises(ValueError):
                kernels[0][0, 0] = 1.0

    def test_map_kernels_keeps_each_name(self, banks):
        doubled = dict(zip(KERNEL_NAMES, map_kernels(banks, lambda k: 2.0 * k).kernels))
        for name, kernel in zip(KERNEL_NAMES, banks.kernels):
            np.testing.assert_array_equal(doubled[name], 2.0 * kernel)
        assert map_kernels(banks, np.abs).size == banks.size

    def test_kernel_of_another_size_rejected(self):
        with pytest.raises(DimensionError, match=r"\(9, 5, 5\) and \(4, 7, 7\)"):
            GroupingBanks(build_banks(5).p3, build_banks(7).vm[:, 0])

    @pytest.mark.parametrize("p3_shape, left_shape", [
        ((8, 5, 5), (4, 5, 5)), ((9, 5, 5), (3, 5, 5)), ((9, 5, 7), (4, 5, 7)),
    ], ids=["p3-short", "vm-short", "not-square"])
    def test_misshapen_stack_rejected(self, p3_shape, left_shape):
        with pytest.raises(DimensionError, match=r"not \(9, k, k\) and \(4, k, k\)"):
            GroupingBanks(np.zeros(p3_shape), np.zeros(left_shape))

    @pytest.mark.parametrize("ti, change, message", [
        (2, lambda k: k - k.mean(), "'vm_left 2' has a negative tap"),
    ], ids=["negative"])
    def test_broken_von_mises_invariant_rejected(self, banks, ti, change, message):
        left = banks.vm[:, 0].copy()
        left[ti] = change(left[ti])
        with pytest.raises(ConfigError, match=message):
            GroupingBanks(banks.p3, left)

    def test_map_kernels_to_an_even_size_rejected(self):
        with pytest.raises(DimensionError, match="odd k"):
            map_kernels(build_banks(5), lambda k: k[..., :-1, :-1])

    def test_size_read_from_the_kernels(self, banks):
        assert banks.size == len(banks.p3[8]) == banks.p3[0].shape[1]
        assert map_kernels(banks, lambda k: k[..., 1:-1, 1:-1]).size == banks.size - 2

    def test_rejects_even_size(self):
        with pytest.raises(ConfigError):
            build_banks(6)

    def test_equality_is_identity(self, banks):
        assert (build_banks(banks.size) == build_banks(banks.size)) is False
        assert banks == banks


class TestStacks:
    @pytest.mark.parametrize("make", [
        lambda: build_banks(5),
        lambda: build_banks(11),
        lambda: HwPipeline(EngineConfig(resolution=Resolution.HW_80)).banks,
    ], ids=["5x5", "11x11", "quantized"])
    def test_right_side_is_the_rotated_left_bit_for_bit(self, make):
        made = make()
        assert made.p3.shape == (9, made.size, made.size)
        assert made.vm.shape == (4, 2, made.size, made.size)
        assert made.vm[:, 1].tobytes() == made.vm[:, 0, ::-1, ::-1].tobytes()
        for stack in (made.p3, made.vm):
            assert not stack.flags.writeable
            with pytest.raises(ValueError):
                stack[0, 0, 0] = 1.0

    def test_no_argument_for_a_right_side(self, banks):
        assert [f.name for f in dataclasses.fields(GroupingBanks)] == ["p3", "vm"]
        with pytest.raises(TypeError):
            GroupingBanks(banks.p3, banks.vm[:, 0], banks.vm[:, 1])
