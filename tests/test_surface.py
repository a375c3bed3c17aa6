"""The settable-value count of tools/surface.py."""
import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "surface", Path(__file__).resolve().parent.parent / "tools" / "surface.py")
surface = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(surface)

SOURCE = '''
from dataclasses import dataclass
from enum import Enum

LIMIT = 3                                   # a constant: not settable


def public(a, b=1, *args, c=2, d, **kw):    # 2
    def inner(x=0):                         # nested: not counted
        return x


def _private(a=1):                          # private: not counted
    pass


class Engine:
    def __init__(self, cfg, arith=None):    # 1
        self.cfg = cfg

    def step(self, frame, scale=1.0):       # 1
        pass

    @classmethod
    def build(cls, size=5):                 # 1
        pass

    def _helper(self, n=2):                 # private: not counted
        pass

    depth: int = 4                          # not a dataclass: not counted


@dataclass(frozen=True)
class Config:
    resolution: str = "640x480"             # 1
    rate: float = 24.0                      # 1
    name: str                               # no default: not counted

    def scaled(self, k=2):                  # 1
        pass


@dataclass
class Record:
    x: int = 0                              # 1


@dataclass
class _Hidden:
    y: int = 0                              # private class: not counted


class Mode(Enum):
    FAST = 1                                # enum: not counted

    def pick(self, default=None):           # enum: not counted
        pass
'''


def test_counts_defaulted_public_parameters_and_dataclass_fields():
    assert surface.settable_values(SOURCE) == 9

