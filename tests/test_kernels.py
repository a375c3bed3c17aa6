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
    load_banks,
    map_kernels,
    save_banks,
)

#: A 5x5 bank file as ``save_banks(build_banks(5))`` wrote it when each
#: kernel family had its own record class.
SAVED_5X5 = Path(__file__).parent / "data" / "kernel_bank_5x5.txt"


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
    def test_round_trip_bit_exact(self, banks, tmp_path):
        path = tmp_path / "banks.txt"
        save_banks(banks, path)
        loaded = load_banks(path)
        for a, b in zip(banks.even, loaded.even):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(banks.odd, loaded.odd):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(banks.cs_on, loaded.cs_on)
        for a, b in zip(banks.vm_left, loaded.vm_left):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(banks.vm_right, loaded.vm_right):
            np.testing.assert_array_equal(a, b)

    def test_every_kernel_read_only(self, banks, tmp_path):
        path = tmp_path / "banks.txt"
        save_banks(banks, path)
        for made in (banks, load_banks(path), map_kernels(banks, np.negative)):
            kernels = [kernel for _, kernel in _iter_kernels(made)]
            assert len(kernels) == 17
            assert not any(kernel.flags.writeable for kernel in kernels)
            with pytest.raises(ValueError):
                kernels[0][0, 0] = 1.0

    def test_map_kernels_keeps_each_name(self, banks):
        doubled = dict(_iter_kernels(map_kernels(banks, lambda k: 2.0 * k)))
        for name, kernel in _iter_kernels(banks):
            np.testing.assert_array_equal(doubled[name], 2.0 * kernel)
        assert map_kernels(banks, np.negative).size == banks.size

    def test_saved_names_are_kernel_names_in_order(self, banks, tmp_path):
        path = tmp_path / "banks.txt"
        save_banks(banks, path)
        names = [ln[len("kernel "):] for ln in path.read_text().splitlines()
                 if ln.startswith("kernel ")]
        assert tuple(names) == KERNEL_NAMES
        assert len(set(KERNEL_NAMES)) == 17

    def test_earlier_saved_file_loads_and_saves_unchanged(self, tmp_path):
        loaded = dict(_iter_kernels(load_banks(SAVED_5X5)))
        for name, kernel in _iter_kernels(build_banks(5)):
            np.testing.assert_array_equal(loaded[name], kernel)
        path = tmp_path / "banks.txt"
        save_banks(build_banks(5), path)
        assert path.read_bytes() == SAVED_5X5.read_bytes()

    def test_kernel_of_another_size_rejected(self):
        kernels = dict(_iter_kernels(build_banks(5)))
        kernels["odd 2"] = build_banks(7).odd[2]
        with pytest.raises(DimensionError, match="'odd 2'"):
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

    @pytest.mark.parametrize("damage, line", [
        ("truncated", 59),
        ("non-numeric", 4),
        ("short row", 5),
        ("nan", 4),
        ("zero size", 2),
        ("repeated name", 105),
        ("unknown name", 105),
    ])
    def test_damaged_file_names_line(self, damage, line, tmp_path):
        from podvs.errors import FormatError

        path = tmp_path / "banks.txt"
        save_banks(build_banks(5), path)
        lines = path.read_text().splitlines()
        if damage == "truncated":
            lines = lines[:58]  # inside the tenth kernel
        elif damage == "non-numeric":
            lines[3] = lines[3].replace(" ", " x", 1)
        elif damage == "short row":
            lines[4] = lines[4].rsplit(" ", 1)[0]
        elif damage == "nan":
            lines[3] = "nan " + lines[3].split(" ", 1)[1]
        elif damage.endswith("name"):
            # a zeroed 5x5 block appended after the 17 saved kernels
            name = "even 0" if damage == "repeated name" else "bogus"
            lines += [f"kernel {name}"] + [" ".join(["0"] * 5)] * 5
        else:
            lines[1] = "size 0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=f"banks.txt:{line}: "):
            load_banks(path)

    def test_rejects_garbage_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a bank\n")
        from podvs.errors import FormatError

        with pytest.raises(FormatError):
            load_banks(path)
