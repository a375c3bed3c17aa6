"""File formats: PPM/PGM frames, saliency-map archives, fixation CSV.

Frames come in as binary PPM (P6, 8-bit) or PGM (P5, 8-bit, replicated
to gray RGB).  Saliency maps go out as 16-bit PGM (big-endian samples,
value = round(v * 65535)) plus an optional raw little-endian float32
plane with a 16-byte header: magic "PSAL", then width, height and frame
index as uint32.  An archive directory additionally carries a JSON
metadata file.
"""
from __future__ import annotations

import csv
import json
import re
import struct
from io import StringIO
from pathlib import Path

import numpy as np

from . import __version__
from .config import EngineConfig, FixationRecord, FrameRGB
from .errors import ConfigError, DimensionError, FormatError
from .metrics import FixationSet

RAW_MAGIC = b"PSAL"
ARCHIVE_METADATA = "podvs_archive.json"


def _read_netpbm_tokens(data: bytes, count: int):
    """First `count` whitespace-separated header tokens, skipping comments.

    Returns (tokens, offset of the binary payload).
    """
    tokens = []
    i = 0
    while len(tokens) < count:
        if i >= len(data):
            raise FormatError("truncated netpbm header")
        ch = data[i : i + 1]
        if ch == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
        elif ch.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j : j + 1].isspace():
                j += 1
            tokens.append(data[i:j])
            i = j
    return tokens, i + 1  # single whitespace after maxval


def read_pnm(path) -> np.ndarray:
    """Read a binary PGM/PPM; returns (H, W) or (H, W, 3) uint8/uint16."""
    data = Path(path).read_bytes()
    if len(data) < 2:
        raise FormatError(f"{path}: not a netpbm file")
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise FormatError(f"{path}: unsupported magic {magic!r}")
    tokens, offset = _read_netpbm_tokens(data[2:], 3)
    offset += 2
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise FormatError(f"{path}: malformed header") from exc
    if width <= 0 or height <= 0:
        raise FormatError(f"{path}: degenerate size {width}x{height}")
    if maxval == 255:
        dtype, itemsize = np.uint8, 1
    elif maxval == 65535:
        dtype, itemsize = np.dtype(">u2"), 2
    else:
        raise FormatError(f"{path}: unsupported depth (maxval {maxval})")
    channels = 3 if magic == b"P6" else 1
    need = width * height * channels * itemsize
    payload = data[offset : offset + need]
    if len(payload) != need:
        raise FormatError(f"{path}: expected {need} payload bytes, got {len(payload)}")
    arr = np.frombuffer(payload, dtype=dtype)
    if channels == 3:
        return arr.reshape(height, width, 3)
    return arr.reshape(height, width)


def read_frame(path) -> FrameRGB:
    """One frame from a PPM (P6) or grayscale PGM (P5) file."""
    arr = read_pnm(path)
    if arr.dtype != np.uint8:
        raise FormatError(f"{path}: unsupported depth (16-bit frames not accepted)")
    if arr.ndim == 3:
        return FrameRGB.from_planes(arr[..., 0], arr[..., 1], arr[..., 2])
    return FrameRGB.from_gray(arr)


_NUM_RE = re.compile(r"(\d+)")


def _frame_sort_key(path: Path):
    m = _NUM_RE.search(path.stem)
    return (int(m.group(1)) if m else 0, path.name)


def _read_text(path) -> str:
    """A text file's contents; bytes that are not UTF-8 raise ``FormatError``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc


def read_frames(source) -> list:
    """Ordered frame list from a directory or a list file.

    A directory is scanned for *.ppm / *.pgm sorted by the number in the
    file name; a list file names one frame path per line, kept in order.
    All frames must share dimensions.
    """
    source = Path(source)
    if source.is_dir():
        paths = sorted(
            (p for p in source.iterdir() if p.suffix.lower() in (".ppm", ".pgm")),
            key=_frame_sort_key,
        )
    elif source.is_file():
        base = source.parent
        paths = []
        for line in _read_text(source).splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                p = Path(line)
                paths.append(p if p.is_absolute() else base / p)
    else:
        raise FormatError(f"{source}: no such directory or list file")
    if not paths:
        raise FormatError(f"{source}: no frames found")
    frames = [read_frame(p) for p in paths]
    shapes = {(f.width, f.height) for f in frames}
    if len(shapes) != 1:
        raise FormatError(f"{source}: mixed frame dimensions {sorted(shapes)}")
    return frames


def _write_netpbm(path, magic: str, samples: np.ndarray, maxval: int) -> None:
    """Write (H, W) or (H, W, 3) samples under the header ``read_pnm`` reads."""
    h, w = samples.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{w} {h}\n{maxval}\n".encode("ascii"))
        fh.write(samples.tobytes())


def write_ppm(frame: FrameRGB, path) -> None:
    """Write a frame as a binary PPM (P6, 8-bit), as ``read_frame`` reads it."""
    _write_netpbm(path, "P6", np.stack([frame.r, frame.g, frame.b], axis=-1), 255)


def write_pgm16(map_: np.ndarray, path) -> None:
    """Write a [0, 1] map as a 16-bit big-endian PGM."""
    _write_netpbm(path, "P5", np.rint(np.clip(map_, 0.0, 1.0) * 65535).astype(">u2"), 65535)


def read_pgm16(path) -> np.ndarray:
    arr = read_pnm(path)
    if arr.ndim != 2 or arr.dtype == np.uint8:
        raise FormatError(f"{path}: expected a 16-bit PGM map")
    return arr.astype(np.float64) / 65535.0


def write_raw_map(map_: np.ndarray, frame_index: int, path) -> None:
    arr = np.asarray(map_, dtype="<f4")
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(RAW_MAGIC + struct.pack("<III", w, h, frame_index))
        fh.write(arr.tobytes())


def read_raw_map(path):
    """Returns (map float64, frame_index)."""
    data = Path(path).read_bytes()
    if len(data) < 16 or data[:4] != RAW_MAGIC:
        raise FormatError(f"{path}: not a raw saliency plane")
    w, h, frame_index = struct.unpack("<III", data[4:16])
    need = 16 + 4 * w * h
    if len(data) != need:
        raise FormatError(f"{path}: expected {need} bytes, got {len(data)}")
    arr = np.frombuffer(data[16:], dtype="<f4").reshape(h, w)
    return arr.astype(np.float64), frame_index


def require_empty_archive(out_dir) -> None:
    """Refuse an archive directory that already holds files.

    Writing over an earlier archive would leave its surplus frames
    behind, and ``read_maps`` would return them with the new ones.
    """
    out_dir = Path(out_dir)
    if out_dir.is_dir() and any(out_dir.iterdir()):
        raise FormatError(f"{out_dir}: output directory is not empty")


def write_maps(maps, out_dir, cfg: EngineConfig, raw: bool) -> None:
    """Write a map archive: 16-bit PGMs, raw float32 planes too if ``raw``
    (``podvs run --raw``), and metadata with the mode of ``cfg.resolution``.
    Maps that are not (cfg.height, cfg.width) raise ``DimensionError``
    before anything is written."""
    maps = list(maps)
    out_dir = Path(out_dir)
    require_empty_archive(out_dir)
    if wrong := {np.shape(m) for m in maps} - {(cfg.height, cfg.width)}:
        raise DimensionError(f"maps of shape {sorted(wrong)} in a {cfg.resolution.mode} archive")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise FormatError(f"cannot create {out_dir}: {exc}") from exc
    for i, map_ in enumerate(maps):
        write_pgm16(map_, out_dir / f"{i:06d}.pgm")
        if raw:
            write_raw_map(map_, i, out_dir / f"{i:06d}.psal")
    meta = {
        "width": cfg.width,
        "height": cfg.height,
        "frame_rate": cfg.frame_rate,
        "mode": cfg.resolution.mode,
        "engine_version": __version__,
        "frames": len(maps),
        "raw_planes": bool(raw),
    }
    (out_dir / ARCHIVE_METADATA).write_text(json.dumps(meta, indent=2), encoding="utf-8")


def read_maps(archive_dir) -> list:
    """Read an archive back, preferring raw planes for full precision."""
    archive_dir = Path(archive_dir)
    raws = sorted(archive_dir.glob("*.psal"), key=_frame_sort_key)
    if raws:
        return [read_raw_map(p)[0] for p in raws]
    pgms = sorted(archive_dir.glob("*.pgm"), key=_frame_sort_key)
    if not pgms:
        raise FormatError(f"{archive_dir}: no saliency maps found")
    return [read_pgm16(p) for p in pgms]


def read_fixations(path) -> FixationSet:
    """Load the fixation CSV (header: video,frame,subject,x,y)."""
    records = []
    reader = csv.reader(StringIO(_read_text(path), newline=""))
    header = next(reader, None)
    if header is None or [c.strip().lower() for c in header] != [
        "video", "frame", "subject", "x", "y",
    ]:
        raise FormatError(f"{path}: expected header video,frame,subject,x,y")
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 5:
            raise FormatError(f"{path}:{lineno}: expected 5 columns")
        try:
            records.append(
                FixationRecord(
                    video=row[0].strip(),
                    frame=int(row[1]),
                    subject=row[2].strip(),
                    x=int(row[3]),
                    y=int(row[4]),
                )
            )
        except (ValueError, ConfigError) as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
    return FixationSet(records)
