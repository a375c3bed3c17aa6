"""Command-line surface.

Subcommands:
  run      frames -> saliency map archive (reference or hardware mode)
  eval     map archives + fixation CSV -> shuffled AUC-ROC / KLD report
  compare  two map archives -> per-frame PCC / NSS lines and averages
  profile  hardware cycle/memory ledger as text and JSON
  synth    emit the built-in synthetic test videos as PPM directories

``run`` builds one engine, the fixed-point ``HwPipeline`` in the reduced
modes or the float ``Pipeline`` in reference mode and with ``--real``,
and times it through ``pipeline.run_sequence``.  Every mode prints the
measured frame rate; a fixed-point run also prints its hardware profile
and writes it to ``profile.json`` in the archive.

``compare`` prints ``PCC n/a`` for a frame with a map of zero variance
(an all-black frame maps to zeros) and ``NSS n/a`` where no reference
pixel reaches the threshold; each average is over the frames that define
it and names how many do not.  It fails only when no frame defines a PCC
or the archives differ in length or map shape.  ``eval`` scores every
video of the fixation CSV and fails, naming them, if any has no archive
directory under ``--maps``.

``run`` and ``profile`` take the resolution from ``--mode``, else from
the ``--config`` file (640x480 when the file has no ``resolution`` key),
else from the subcommand's default: reference for ``run``, hw112 for
``profile``.

Exit codes: 0 success; 1 a data or file error (a ``PodvsError`` or an
``OSError``), reported as ``error: <message>`` on stderr; 2 usage error.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import EngineConfig, Resolution, load_settings
from .errors import MetricError, PodvsError
from .hwmodel import ANCHORS, HwPipeline, HwProfile
from .io import (
    read_fixations,
    read_frames,
    read_maps,
    require_empty_archive,
    write_maps,
    write_ppm,
)
from .metrics import auc_roc, kld, nss, pcc
from .pipeline import Pipeline, run_sequence
from .synth import all_videos

_MODE_RESOLUTION = {res.mode: res for res in Resolution}


def _config_for(args, default_mode: str) -> EngineConfig:
    """Resolution from ``--mode``, else from the config file, else default_mode;
    the file's other settings are validated under that resolution."""
    settings = load_settings(args.config) if args.config else {}
    if args.mode or not args.config:
        settings["resolution"] = _MODE_RESOLUTION[args.mode or default_mode]
    return EngineConfig(**settings)


def _cmd_run(args) -> int:
    cfg = _config_for(args, "reference")
    require_empty_archive(args.out)
    frames = read_frames(args.inp)
    if cfg.resolution is Resolution.REFERENCE or args.real:
        engine = Pipeline(cfg)
    else:
        engine = HwPipeline(cfg)
    maps, seconds = run_sequence(frames, engine)
    write_maps(maps, args.out, cfg, raw=args.raw)
    print(f"{len(maps)} maps written to {args.out}")
    print(f"mean rate: {len(seconds) / sum(seconds):.3f} frames/s")
    if isinstance(engine, HwPipeline):
        sys.stdout.write(engine.profile.to_text())
        Path(args.out, "profile.json").write_text(engine.profile.to_json(), encoding="utf-8")
    return 0


def _cmd_eval(args) -> int:
    fixations = read_fixations(args.fixations)
    if len(fixations) == 0:
        raise PodvsError("no fixations in the CSV")
    maps_root = Path(args.maps)
    videos = fixations.videos
    missing = [v for v in videos if not (maps_root / v).is_dir()]
    if missing:
        raise PodvsError(f"no map archive under {maps_root} for the CSV's "
                         f"video(s) {', '.join(map(repr, missing))}")
    auc_scores, kld_scores = [], []
    for video in videos:
        maps = read_maps(maps_root / video)
        pool = fixations.pool_excluding(video)
        a = auc_roc(maps, fixations, pool, video, args.seed)
        k = kld(maps, fixations, pool, video, args.seed)
        auc_scores.append(a.score)
        kld_scores.append(k.score)
        print(
            f"{video}: AUC-ROC {a.score:.4f}  KLD {k.score:.4f}"
            f"  ({a.frames_scored} frames, {a.frames_skipped} skipped)"
        )
    print(f"mean: AUC-ROC {np.mean(auc_scores):.4f}  KLD {np.mean(kld_scores):.4f}")
    return 0


def _cmd_compare(args) -> int:
    maps_a = read_maps(args.a)
    maps_b = read_maps(args.b)
    if len(maps_a) != len(maps_b):
        raise PodvsError(f"archives differ in length: {len(maps_a)} vs {len(maps_b)}")
    pccs, nsss = [], []
    for i, (a, b) in enumerate(zip(maps_a, maps_b)):
        pccs.append(_defined(pcc, a, b))
        nsss.append(_defined(nss, a, b, args.threshold))
        print(f"frame {i:4d}: PCC {_shown(pccs[-1])}  NSS {_shown(nsss[-1])}")
    print(f"average: PCC {_average(pccs)}  NSS {_average(nsss)}")
    if all(p is None for p in pccs):
        raise MetricError("no frame defines a PCC: every frame has a map of zero variance")
    return 0


def _defined(metric, *args):
    """metric(*args), or None where the maps leave it undefined."""
    try:
        return metric(*args)
    except MetricError:
        return None


def _shown(score) -> str:
    return "n/a" if score is None else f"{score:.4f}"


def _average(scores) -> str:
    """The mean over the frames that define the score, and how many do not."""
    defined = [s for s in scores if s is not None]
    text = _shown(np.mean(defined) if defined else None)
    left_out = len(scores) - len(defined)
    return f"{text} ({left_out} of {len(scores)} frames n/a)" if left_out else text


def _cmd_profile(args) -> int:
    cfg = _config_for(args, "hw112")
    profile = HwProfile(cfg, channels_parallel=args.channels)
    sys.stdout.write(profile.to_text())
    if args.json:
        Path(args.json).write_text(profile.to_json(), encoding="utf-8")
        print(f"JSON profile written to {args.json}")
    return 0


def _cmd_synth(args) -> int:
    out_root = Path(args.out)
    videos = all_videos(args.width, args.height)
    for name, frames in videos.items():
        vdir = out_root / name
        vdir.mkdir(parents=True, exist_ok=True)
        for i, frame in enumerate(frames):
            write_ppm(frame, vdir / f"{i:06d}.ppm")
        print(f"{name}: {len(frames)} frames -> {vdir}")
    return 0


def _seed(text: str) -> int:
    """A ``--seed``: an integer that ``np.random.SeedSequence`` takes, so
    not a negative one."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="podvs",
        description="Proto-object based dynamic visual saliency engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="compute saliency maps for a frame sequence")
    p.add_argument("--mode", choices=tuple(_MODE_RESOLUTION),
                   help="default: the config file's resolution, else reference")
    p.add_argument("--in", dest="inp", required=True, help="frame directory or list file")
    p.add_argument("--out", required=True, help="new or empty output archive directory")
    p.add_argument("--config", help="engine config file")
    p.add_argument("--raw", action="store_true", help="also write raw float32 planes")
    p.add_argument(
        "--real", action="store_true",
        help="force floating-point arithmetic in the reduced modes",
    )
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("eval", help="score map archives against fixations")
    p.add_argument("--maps", required=True, help="directory of per-video archives")
    p.add_argument("--fixations", required=True, help="fixation CSV")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("compare", help="PCC/NSS between two archives; n/a where undefined")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--threshold", type=float, default=0.7)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("profile", help="hardware cycle and memory ledger")
    p.add_argument("--mode", choices=[r.mode for r in ANCHORS],
                   help="default: the config file's resolution, else hw112")
    p.add_argument("--config", help="engine config file")
    p.add_argument("--channels", type=int, default=None, help="channels in parallel")
    p.add_argument("--json", help="also write the profile as JSON here")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("synth", help="emit the synthetic test videos")
    p.add_argument("--out", required=True)
    p.add_argument("--width", type=int, default=Resolution.HW_112.width)
    p.add_argument("--height", type=int, default=Resolution.HW_112.height)
    p.set_defaults(func=_cmd_synth)

    return parser


def cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        return args.func(args)
    except (PodvsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
