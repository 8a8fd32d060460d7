"""Command-line front end.

Subcommands:

* ``verify``    evaluate one configuration and report every relation
* ``campaign``  run seeded random trials, write CSV rows + JSON aggregate
* ``sweep``     walk the uniform-overlap family over a gamma grid
* ``fringe``    emit a plot-ready intensity pattern with extracted V, C, D_Q

Exit status: 0 all relations passed, 1 a relation was violated, 2 the
configuration was malformed or too large to allocate. Options may come
from a JSON config file (--config); explicit flags override the file,
the file overrides defaults. Campaigns require an explicit seed so
reruns are exactly reproducible.

`main` parses every call on the process's one parser (build_parser is
cached), so a caller that runs many commands in one process pays for
building argparse once and then only for parsing and its command's work.
An argv that starts with a command is parsed on that command's subparser
alone (_parse); the whole parser runs only for an argv that names no
command or leaves arguments over, and so gives every usage, help and
error message. `verify` hands the kernel (duality._kernel) its one
instance as a stack of one: a seed's draws as they are drawn, final by
construction, and --amplitudes, --gamma's detectors and a config rho as
their checked objects hold them. Reports and aggregates are written by
duality._json, and every output file by duality._rewrite.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .duality import (
    REPORT_COLUMNS,
    SCENARIOS,
    VISIBILITY_MAX_PATHS,
    _equal_amplitude_quanton,
    _json,
    _kernel,
    _pure_fringe,
    _rewrite,
    _sweep_table,
    _Table,
    _write_csv,
    run_campaign,
)
from .interference import DEFAULT_GRID_POINTS, _check_grid_points, _gamma_grid, _phase_cells, symmetric_detectors
from .linalg import MAX_COMPOSITE_DIM, validate_density
from .random import (
    _mixed_detector_draw,
    _pure_detector_draw,
    _pure_quanton_draw,
    random_density,
    random_pure,
    uniform_overlap_detectors,
)
from .states import MixedQuanton, PureQuanton

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2

VERIFY_CSV_COLUMNS = (*REPORT_COLUMNS, "seed")
SWEEP_CSV_COLUMNS = ("gamma", "coherence", "distinguishability", "slack", "visibility")


# options a command's scenario never reads: giving one is a malformed configuration
_UNREAD = {"verify": {"pure_pure": ("rank", "rho"), "mixed_pure": ("amplitudes",),
                      "mixed_mixed": ("gamma", "amplitudes")},
           "sweep": {"pure_pure": ("rank",)}, "campaign": {"pure_pure": ("rank",)}}


class ConfigError(ValueError):
    pass


def _numbers(raw, flag: str, kind: type = float) -> list:
    """The numbers of a comma-separated string, blank parts skipped, or of a
    list, as `kind`: each entry an int, a float or a numeric string, or for
    complex also an [re, im] pair of those. Any other entry raises a
    ConfigError that names `flag`; so do booleans, which are ints to Python
    but no number to any option."""
    parts = [part for part in raw.split(",") if part.strip()] if isinstance(raw, str) else raw

    def number(value, kind):
        if kind is complex and isinstance(value, list) and len(value) == 2:
            return complex(number(value[0], float), number(value[1], float))
        if type(value) not in (int, float, str):
            raise TypeError(value)
        return kind(value.replace(" ", "") if kind is complex and type(value) is str else value)

    try:
        return [number(value, kind) for value in parts]
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{flag} must be numbers, got {raw!r}") from None


def _parse_amplitudes(raw) -> np.ndarray:
    amps = np.array(_numbers(raw, "--amplitudes", complex), dtype=complex)
    if amps.size < 2:
        raise ConfigError(f"--amplitudes must give at least 2 amplitudes, got {raw!r}")
    if not np.isfinite(amps).all():
        raise ConfigError(f"--amplitudes must be finite, got {raw!r}")
    largest = np.abs(amps.view(float)).max()
    if largest == 0:
        raise ConfigError(f"--amplitudes are all zero, got {raw!r}")
    # scaled by the power of two nearest the largest real or imaginary part, so
    # that the norm neither overflows nor underflows; the scaling is exact, so
    # amplitudes that normalized without it keep every bit
    amps = np.ldexp(amps.view(float), -np.frexp(largest)[1]).view(complex)
    return amps / np.linalg.norm(amps)


def _parse_rho(raw) -> np.ndarray:
    if not isinstance(raw, list) or not raw or not all(isinstance(row, list) for row in raw):
        raise ConfigError("a config rho must be a non-empty nested list")
    rows = [_numbers(row, "a config rho", complex) for row in raw]
    if any(len(row) != len(rows) for row in rows):
        raise ConfigError(f"a config rho must be square, got {raw!r}")
    return np.array(rows, dtype=complex)


def _parse_gammas(cfg) -> list[float]:
    """The gamma grid of --gammas or --gamma-range, checked by _gamma_grid
    under the name of the flag that gave it; giving both is malformed."""
    if cfg.get("gammas") is not None and cfg.get("gamma_range") is not None:
        raise ConfigError("--gammas and --gamma-range both give a gamma grid; give one")
    if cfg.get("gammas") is not None:
        flag, values = "--gammas", _numbers(cfg["gammas"], "--gammas")
    elif cfg.get("gamma_range") is not None:
        flag = "--gamma-range"
        try:
            start, stop, count = str(cfg["gamma_range"]).split(":")
            start, stop, count = float(start), float(stop), int(count)
        except ValueError:  # a part count other than 3, or a part that is no number
            raise ConfigError("--gamma-range must look like start:stop:count, e.g. 0:1:11") from None
        if count < 1:
            raise ConfigError("--gamma-range count must be >= 1")
        values = [float(v) for v in np.linspace(start, stop, count)]
    else:
        raise ConfigError("need --gammas or --gamma-range")
    return _gamma_grid(values, flag)


def _config_value(flag: argparse.Action, value):
    """A config file value, checked against the type and choices its flag
    declares, as if the flag had been given on the command line. The
    free-text gammas and amplitudes may also be JSON lists."""
    kind = flag.type or str
    # an int too large for a float stays an int, and so fits no float flag
    if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    ok = type(value) is kind or (flag.dest in ("gammas", "amplitudes") and isinstance(value, list))
    if not ok or (flag.choices is not None and value not in flag.choices):
        raise ConfigError(f"config key {flag.dest!r}: {value!r} does not fit {flag.option_strings[0]}")
    return value


def _merged_config(args: argparse.Namespace) -> dict:
    cfg: dict = {}
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        # ValueError: no JSON, no UTF-8, or an int of too many digits; RecursionError: nested too deeply
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must contain a JSON object")
        # --help and --config are flags of the command line only: a nested
        # config file would be neither followed nor read
        flags = {action.dest: action for action in args.parser._actions
                 if action.dest not in ("help", "config")}
        for key, value in loaded.items():
            # rho is the one key that is no flag: verify's explicit quanton state
            if key not in flags and not (key == "rho" and args.command == "verify"):
                raise ConfigError(f"config key {key!r} names no option of {args.command}")
            if value is not None:  # null means unset
                cfg[key] = _config_value(flags[key], value) if key in flags else value
    for key, value in vars(args).items():
        if key in ("config", "parser") or value is None:
            continue
        cfg[key] = value
    # numpy's own message for a negative seed would not name the flag
    if hasattr(args, "seed") and cfg.get("seed") is not None and cfg["seed"] < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {cfg['seed']}")
    # below its least value a path count or detector dimension fails in the
    # draws and formulas, and beyond 2^32 - 1 in the draws, numpy's shapes and
    # Python's float conversions, without naming the flag
    for key, flag, least in (("n", "--n", 2), ("detector_dim", "--detector-dim", 1)):
        if cfg.get(key) is not None and cfg[key] < least:
            raise ConfigError(f"{flag} must be >= {least}, got {cfg[key]}")
        if cfg.get(key) is not None and cfg[key] >= 1 << 32:
            raise ConfigError(f"{flag} must be <= 2^32 - 1, got {cfg[key]}")
    # pure_pure's composite, n paths by the largest detector dimension (2n
    # when a campaign draws it), names its flags here, before any draw; a
    # campaign has no default scenario
    if cfg.get("scenario", None if args.command == "campaign" else "pure_pure") == "pure_pure" and cfg.get("n"):
        n, dim = cfg["n"], cfg.get("detector_dim", 2 * cfg["n"] if args.command == "campaign" else cfg["n"])
        if n * dim > MAX_COMPOSITE_DIM:
            by = f"--detector-dim {dim}" if "detector_dim" in cfg else f"detector dimension {dim}"
            raise ConfigError(f"--n {n} by {by}: composite dimension {n * dim} exceeds {MAX_COMPOSITE_DIM}")
    # a campaign's trial k takes one spawn-key word
    if cfg.get("trials") is not None and not 1 <= cfg["trials"] <= 1 << 32:
        raise ConfigError(f"--trials must lie in 1..2^32, got {cfg['trials']}")
    return cfg


def _reject_unread(command: str, cfg: dict) -> None:
    scenario = cfg.get("scenario", "pure_pure")
    for key in _UNREAD[command].get(scenario, ()):
        if cfg.get(key) is not None:
            flag = "a config rho" if key == "rho" else f"--{key}"
            raise ConfigError(f"{flag} is not read by the {scenario} scenario")
    if cfg.get("rho") is not None and cfg.get("rank") is not None:
        raise ConfigError(f"--rank is not read by the {scenario} scenario once a config rho gives the state")
    # a rank the scenario reads; an unread one is malformed whatever its value
    if cfg.get("rank") is not None and cfg.get("n") is not None and not 1 <= cfg["rank"] <= cfg["n"]:
        raise ConfigError(f"--rank must lie in 1..{cfg['n']}, got {cfg['rank']}")


def _require(cfg: dict, key: str, hint: str):
    if cfg.get(key) is None:
        raise ConfigError(f"missing required option: {hint}")
    return cfg[key]


def _write_text(output: str | None, text: str) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with _rewrite(output) as fh:
            fh.write(text)


def _verify_instance(cfg: dict) -> _Table:
    scenario = cfg.get("scenario", "pure_pure")
    _reject_unread("verify", cfg)
    seed = cfg.get("seed")
    gamma = cfg.get("gamma")
    rho = _parse_rho(cfg["rho"]) if cfg.get("rho") is not None else None
    n = cfg["n"] if cfg.get("n") is not None else (rho.shape[0] if rho is not None else None)
    if n is None:
        raise ConfigError("missing required option: --n (or a config rho)")
    if rho is not None and rho.shape[0] != n:
        raise ConfigError(f"--n {n} disagrees with the {rho.shape[0]}-row config rho")
    dim = cfg.get("detector_dim", n)
    # the bound of uniform_overlap_detectors, named before the quanton is drawn
    if gamma is not None and dim < n:
        raise ConfigError(f"--detector-dim must be >= --n {n} for --gamma's detectors, got {dim}")

    if scenario == "mixed_mixed" and seed is None:
        raise ConfigError("mixed_mixed needs --seed to draw the detector state and unitaries")
    if scenario == "pure_pure":
        if cfg.get("amplitudes") is not None:
            quanton = PureQuanton(amplitudes=_parse_amplitudes(cfg["amplitudes"])).amplitudes
            if len(quanton) != n:
                raise ConfigError(f"--n {n} disagrees with the {len(quanton)} amplitudes given by --amplitudes")
        elif gamma is not None:
            quanton = _equal_amplitude_quanton(n).amplitudes
        elif seed is not None:
            quanton = _pure_quanton_draw(n, np.random.default_rng(seed))
        else:
            raise ConfigError("pure_pure needs --amplitudes, --gamma, or --seed")
    else:
        quanton = _verify_mixed_quanton(cfg, n, rho).rho.matrix
    # a drawn detector takes spawn key 1, so that it differs from the quanton draw
    if scenario == "mixed_mixed":
        # the drawn spectral branches: no interaction is built
        detector = _mixed_detector_draw(n, dim, np.random.default_rng([seed, 1]))
    elif gamma is not None:
        _gamma_grid([gamma], "--gamma")
        detector = (uniform_overlap_detectors(n, gamma, dim, seed or 0).vectors,)
    elif seed is not None:
        detector = (_pure_detector_draw(n, dim, np.random.default_rng([seed, 1])),)
    else:
        raise ConfigError("need --gamma or --seed to build detectors")
    # one instance as a stack of one; every path count was checked against n above
    return _kernel(scenario, quanton[None], *(array[None] for array in detector),
                   include_visibility=n <= VISIBILITY_MAX_PATHS)


def _verify_mixed_quanton(cfg: dict, n: int, rho) -> MixedQuanton:
    if rho is not None:
        # a square list of numbers that is no density matrix, or whose entries
        # overflow the checks (no density matrix has an entry beyond 1)
        try:
            with np.errstate(over="raise", invalid="raise"):
                return MixedQuanton(rho=validate_density(rho))
        except (ValueError, FloatingPointError) as exc:
            raise ConfigError(f"a config rho: {exc}") from None
    seed = cfg.get("seed")
    if seed is None:
        raise ConfigError("mixed scenarios need a config rho or --seed")
    # spawn key 0: the quanton; detectors use key 1 so the two draws differ
    rng = np.random.default_rng([seed, 0])
    rank = cfg["rank"] if cfg.get("rank") is not None else int(rng.integers(1, n, endpoint=True))
    return random_density(n, rank, rng)


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _merged_config(args)
    table = _verify_instance(cfg)
    output = cfg.get("output")
    if cfg.get("format", "json") == "csv":
        _write_csv(sys.stdout if output is None else output, VERIFY_CSV_COLUMNS,
                   {**table.columns(), "seed": cfg.get("seed")})
    else:
        _write_text(output, table.reports()[0].to_json() + "\n")
    return EXIT_OK if table.passed.all() else EXIT_VIOLATION


def cmd_campaign(args: argparse.Namespace) -> int:
    cfg = _merged_config(args)
    scenario = _require(cfg, "scenario", "--scenario")
    _reject_unread("campaign", cfg)
    n = _require(cfg, "n", "--n")
    trials = _require(cfg, "trials", "--trials")
    seed = _require(cfg, "seed", "--seed (campaigns never use a silent entropy source)")
    prefix = cfg.get("output", "campaign")
    # "DIR/", "DIR/." or "" would write the hidden files .csv and .json, or ..csv and ..json
    if os.path.basename(prefix) in ("", os.curdir, os.pardir):
        raise ConfigError(f"--output {prefix!r} ends in no file name")
    if not os.path.isdir(os.path.dirname(prefix) or "."):
        raise ConfigError(f"--output {prefix}: directory {os.path.dirname(prefix)} does not exist")
    result = run_campaign(
        scenario,
        trials,
        seed,
        n=n,
        detector_dim=cfg.get("detector_dim"),
        rank=cfg.get("rank"),
    )
    result.to_csv(f"{prefix}.csv")
    aggregate = result.aggregate()
    _write_text(f"{prefix}.json", _json(aggregate) + "\n")
    print(
        f"{scenario}: {trials} trials, {aggregate['violations']} violations, "
        f"max duality sum {aggregate['max_duality_sum']:.3e} -> {prefix}.csv, {prefix}.json"
    )
    return EXIT_OK if aggregate["passed"] else EXIT_VIOLATION


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _merged_config(args)
    n = _require(cfg, "n", "--n")
    gammas = _parse_gammas(cfg)
    _reject_unread("sweep", cfg)
    if cfg.get("scenario", "pure_pure") == "pure_pure":
        if cfg.get("seed") is not None:
            quanton = random_pure(n, cfg["seed"])
        else:
            quanton = _equal_amplitude_quanton(n)
    else:
        seed = _require(cfg, "seed", "--seed (to draw the mixed quanton)")
        rng = np.random.default_rng(seed)
        quanton = random_density(n, cfg.get("rank", 2), rng)
    table = _sweep_table(n, gammas, quanton)
    output = cfg.get("output")
    _write_csv(sys.stdout if output is None else output, SWEEP_CSV_COLUMNS,
               {**table.columns(), "gamma": np.array(gammas, dtype=float)})
    return EXIT_OK if table.passed.all() else EXIT_VIOLATION


def cmd_fringe(args: argparse.Namespace) -> int:
    cfg = _merged_config(args)
    n = _require(cfg, "n", "--n")
    gamma = _require(cfg, "gamma", "--gamma")
    grid_points = cfg.get("grid_points", DEFAULT_GRID_POINTS)
    _check_grid_points(grid_points, "--grid-points")
    _gamma_grid([gamma], "--gamma")
    scan, report = _pure_fringe(_equal_amplitude_quanton(n), symmetric_detectors(n, gamma), grid_points)
    comment = (
        f"n={n} gamma={gamma!r} visibility={scan.visibility!r} "
        f"coherence={report.coherence!r} distinguishability={report.distinguishability!r}"
    )
    output = cfg.get("output")
    _write_csv(sys.stdout if output is None else output, ("theta", "intensity"),
               {"theta": _phase_cells(grid_points), "intensity": scan.intensities}, comment)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one, so that a `main` call in a running process pays only for
    parsing its argv.

    The shared parser is read-only once built. `parse_args` copies its
    defaults into a fresh namespace and changes no action, so no call sees
    another's flags. Each subparser rides in the namespace as `args.parser`
    (bound by `set_defaults` when the parser is first built), where
    _merged_config reads its actions to check config keys. The parser holds
    no handler: `main` looks up `cmd_<command>` on each call, so a later
    rebinding of one, such as a tracer's wrapper, is what runs.
    """
    parser = argparse.ArgumentParser(
        prog="duality-lab",
        description="Verify coherence / path-distinguishability duality in n-path interferometers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--config", help="JSON config file; explicit flags win over its values")
        p.add_argument("--n", type=int, help="number of paths/slits")
        if seed:
            p.add_argument("--seed", type=int, help="root seed (PCG64)")
        p.add_argument("--output", help="output path (default: stdout, campaigns: file prefix)")
        # the subparser rides along so that config values are checked against its flags
        p.set_defaults(parser=p)

    p = sub.add_parser("verify", help="evaluate one configuration")
    common(p)
    p.add_argument("--scenario", choices=SCENARIOS)
    p.add_argument("--gamma", type=float, help="uniform pairwise detector overlap in [0, 1]")
    p.add_argument("--amplitudes", help="comma-separated path amplitudes (normalized for you)")
    p.add_argument("--rank", type=int, help="Ginibre rank of the mixed quanton")
    p.add_argument("--detector-dim", dest="detector_dim", type=int)
    p.add_argument("--format", choices=("json", "csv"))

    p = sub.add_parser("campaign", help="run seeded random trials")
    common(p)
    p.add_argument("--scenario", choices=SCENARIOS)
    p.add_argument("--trials", type=int)
    p.add_argument("--rank", type=int)
    p.add_argument("--detector-dim", dest="detector_dim", type=int)

    p = sub.add_parser("sweep", help="walk the uniform-overlap family over a gamma grid")
    common(p)
    p.add_argument("--scenario", choices=("pure_pure", "mixed_pure"))
    p.add_argument("--gammas", help="comma-separated gamma values, ascending")
    p.add_argument("--gamma-range", dest="gamma_range", help="start:stop:count, e.g. 0:1:11")
    p.add_argument("--rank", type=int)

    p = sub.add_parser("fringe", help="emit one intensity pattern as CSV")
    common(p, seed=False)
    p.add_argument("--gamma", type=float)
    p.add_argument("--grid-points", dest="grid_points", type=int)

    return parser


def _parse(argv) -> argparse.Namespace:
    """`argv` (sys.argv[1:] when None) parsed as build_parser().parse_args
    parses it. An argv that starts with a command's name is parsed on that
    command's subparser alone, which is what the whole parser hands it to,
    and the whole parser runs only when the argv names no command or leaves
    arguments over, so that its usage, help and every error message are
    the whole parser's own."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    (commands,) = (action.choices for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    if argv and argv[0] in commands:
        args, extras = commands[argv[0]].parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extras:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"error: configuration too large: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
