"""Command-line front end: one table-driven parse, dispatch, and
deterministic JSON/CSV report emission.

Each decision is declared once: _KEYS declares every key with its parser,
help, domain and default, _MODELS each model's constructor, keys and groups,
and _COMMANDS each command's handler and keys. parse_args reads the flags,
--key=v or --key v, and the command from those tables; a flat key = value
file named by --config (# comments) gives keys that flags override. A
command takes the keys of its row, with those of its model, and the run-wide
jobs, out and format; its handler reads each by its own name from one
namespace of the defaults and the keys given. dispatch returns the payload,
which echoes the row's keys, and emit writes it. Reports are byte-stable for a
fixed configuration, whatever --jobs is: numbers are printed with 17
significant digits and wall-clock timings go to stderr, never the payload.
The module imports flow, mobius and models, which every flow command uses;
a handler imports spectra, weylcheck or acceptance when its command runs,
so a fresh process pays only for what it runs.

Exit codes: 0 when every check in the run passed, 2 on configuration
errors, 3 on numerical failures (or unwritable output).
"""

from __future__ import annotations

import cmath
import math
import sys
import time
from types import SimpleNamespace

from . import flow, mobius, models
from .affine import GROUPS, subgroup_eval
from .errors import ExtflowError, IncompatibleModelGroup, InvalidArgument, ParseError
from .flow import Verdict

# each model: its constructor, the keys of its parameters in the
# constructor's order, which a command that reads a model reads of the given
# one only, and its groups, the default first
_MODELS = {
    "interval": (models.IntervalModel, ("l",), ("translation",)),
    "inverse-square": (models.inverse_square, ("gamma",), ("scaling",)),
    "halfline": (models.HalflineModel, (), ("translation", "scaling")),
}


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _parse_list(kind):
    return lambda text: [kind(part) for part in str(text).split(",") if part != ""]


def _parse_complex(text) -> complex:
    return complex(str(text).replace(" ", ""))


def read_config_file(path: str) -> dict:
    """Flat key = value lines; # starts a comment."""
    values = {}
    try:
        with open(path) as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ParseError(f"{path}:{lineno}: expected key = value")
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
    except OSError as exc:
        raise ParseError(f"cannot read config file {path}: {exc}") from exc
    return values


# the values a switch takes in a config file; other text is a bad value
_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _parse_bool(text) -> bool:
    return _BOOLS[str(text).lower()]


_LENGTH = (lambda x: 1e-3 <= x <= 300.0, "must lie in [1e-3, 300], got {!r}")

# key -> (default, parser of its text, help, domain); each key is a flag
# --key (underscores as dashes) and a config-file key. --on-grid is a switch.
# A default is immutable, since one process runs many commands. A domain is
# None, or a test of the value and the error it raises, formatted with the
# value; finiteness and the rules that tie keys together are _validate's. A
# rule the library checks itself, as spectra does count and rho, is left to it
_KEYS = {
    "model": (None, str, "interval, inverse-square or halfline", None),
    "l": (1.0, float, "interval length", _LENGTH),
    "gamma": (0.0, float, "inverse-square coupling", None),
    "group": (None, str, "translation or scaling",
              (GROUPS.__contains__, "must be translation or scaling, got {!r}")),
    "t": ((1.0,), _parse_list(float), "group parameter(s), comma separated",
          (bool, "needs at least one value")),
    "n": ((256,), _parse_list(int), "grid size(s), comma separated",
          (lambda ns: 8 <= min(ns, default=0) and max(ns) <= 2**20,
           "needs every grid size from 8 to 1048576, got {!r}")),
    "theta": (None, float, "boundary phase angle", None),
    "rho": (None, _parse_complex, "interval boundary multiplier, e.g. 0.36 or 0.3+0.1j", None),
    "window": ((-20.0, 20.0), _parse_list(float), "lo,hi",
               (lambda w: len(w) == 2 and w[0] < w[1], "must be lo,hi with lo < hi, got {!r}")),
    "count": (3, int, "eigenvalue count for shoot", None),
    "on_grid": (False, _parse_bool, "shift by a whole number of grid steps", None),
    "l2": (None, float, "second interval length", _LENGTH),
    "v0": (None, _parse_complex, "orbit start parameter (default 0.3, 0 on the halfline)",
           (lambda v: abs(v) <= 1.0, "must have modulus at most 1, got {!r}")),
    "t_max": (None, float, "period search bound", (lambda x: x > 0, "must be positive, got {!r}")),
    "jobs": (1, int, "worker threads, at most one per core",
             (lambda j: j >= 1, "must be at least 1, got {!r}")),
    "out": (None, str, "output path (default stdout)", None),
    "format": ("json", str, "json or csv",
               (("json", "csv").__contains__, "must be json or csv, got {!r}")),
}
_DEFAULTS = {key: row[0] for key, row in _KEYS.items()}
# each key's place in _KEYS, the order its domain is checked in
_ORDER = {key: place for place, key in enumerate(_KEYS)}

# how a run is carried out, not what it computes: every command takes them
# and no payload echoes them
_RUN_KEYS = ("jobs", "out", "format")
# each flag and what it sets: a key, or the path of a configuration file
_FLAGS = {"--config": "config", **{"--" + key.replace("_", "-"): key for key in _KEYS}}


def _row(command: str, model: str | None) -> tuple:
    keys = _COMMANDS[command][1]
    return (*keys, *_MODELS[model][1]) if "model" in keys else keys


def _convert(key: str, text: str):
    try:
        return _KEYS[key][1](text)
    except (ValueError, TypeError, KeyError) as exc:
        raise ParseError(f"bad value for {key!r}: {text!r}") from exc


def parse_args(argv) -> dict | None:
    """The command line as a plain dict: the command, "config" when a file is
    given, and each key given, converted by its _KEYS parser. --key=v and
    --key v, underscores as dashes, take v whatever it looks like; --on-grid
    is a switch. The command may come anywhere, and the last of repeated flags
    wins. None for -h or --help."""
    values, tokens = {}, iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        if not token.startswith("-"):
            if "command" in values:
                raise ParseError(f"unexpected argument {token!r} after {values['command']!r}")
            if token not in _COMMANDS:
                raise ParseError(f"unknown command {token!r} (one of {', '.join(COMMANDS)})")
            values["command"] = token
            continue
        flag, eq, text = token.partition("=")
        key = _FLAGS.get(flag)
        if key is None:
            raise ParseError(f"unknown flag {flag!r}")
        if key in _KEYS and _KEYS[key][1] is _parse_bool:
            if eq:
                raise ParseError(f"{flag} is a switch and takes no value")
            values[key] = True
        elif not eq and (text := next(tokens, None)) is None:
            raise ParseError(f"{flag} needs a value")
        else:
            values[key] = _convert(key, text) if key in _KEYS else text
    if "command" not in values:
        raise ParseError(f"missing command (one of {', '.join(COMMANDS)})")
    return values


def usage() -> str:
    """The -h text, from the command and key tables."""
    lines = ["usage: extflow COMMAND [--KEY=VALUE | --KEY VALUE]... [--config PATH]",
             "commands and their keys, with those of the model and jobs, out and format:"]
    lines += [f"  {command:<24}{' '.join(keys)}" for command, (_, keys) in _COMMANDS.items()]
    lines.append("keys, as flags or as KEY = VALUE lines of a --config file that flags override:")
    lines += [f"  {flag:<11}{_KEYS[key][2]}" for flag, key in _FLAGS.items() if key in _KEYS]
    return "\n".join(lines) + "\n"


def load_config(values: dict) -> SimpleNamespace:
    """The command and every key, by its own name: the _KEYS defaults, the
    configuration file named in values (if any), and the keys of values, a
    parse_args dict, each winning over the one before. A key outside the
    command's own, its model's and the run-wide keys is an error wherever it
    was given. Validates model and group compatibility before dispatch."""
    command = values["command"]
    given = {}
    if values.get("config"):
        for key, text in read_config_file(values["config"]).items():
            if key not in _KEYS:
                raise ParseError(f"unknown config key {key!r}")
            given[key] = _convert(key, text)
    given.update((key, value) for key, value in values.items() if key in _KEYS)
    model = given.get("model")
    if "model" in _COMMANDS[command][1] and model not in _MODELS:
        raise ParseError(f"unknown model {model!r}" if model is not None else
                         f"{command}: missing required field 'model'")
    allowed = _row(command, model)
    for key in given:
        if key not in allowed and key not in _RUN_KEYS:
            raise ParseError(f"{command}: {key!r} is not a key of this command "
                             f"(its keys: {', '.join(allowed) or 'none'})")
    cfg = SimpleNamespace(**_DEFAULTS)
    cfg.command = command
    vars(cfg).update(given)
    _validate(cfg, given)
    return cfg


def _validate(cfg: SimpleNamespace, given: dict):
    # the keys given, all finite first and then each in its domain, in _KEYS
    # order; every default is finite and in its domain
    keys = _COMMANDS[cfg.command][1]
    for value in given.values():
        for x in value if type(value) is list else (value,):
            if type(x) in (float, complex) and not cmath.isfinite(x):
                raise ParseError(f"{cfg.command}: every numeric input must be finite")
    for key in sorted(given, key=_ORDER.__getitem__):
        if (domain := _KEYS[key][3]) and not domain[0](given[key]):
            raise ParseError(f"{cfg.command}: {key!r} {domain[1].format(given[key])}")
    if "model" in keys:
        groups = _MODELS[cfg.model][2]
        group = cfg.group or groups[0]
        if group not in groups:
            raise IncompatibleModelGroup(
                f"model {cfg.model!r} is not invariant under {group!r}")
        cfg.group = group
    if "v0" in keys and cfg.v0 is None:
        # the halfline's parameter set is {0}
        cfg.v0 = 0j if cfg.model == "halfline" else 0.3 + 0j
    if "l2" in keys and cfg.l2 is None:
        raise ParseError(f"{cfg.command}: missing required field 'l2'")
    # spectra bounds shoot's coupling above; below, its work grows with nu
    if cfg.command == "shoot" and not cfg.gamma >= (floor := models.InverseSquareModel.GAMMA_MIN):
        raise ParseError(f"shoot: gamma must lie in [{floor:g}, -1/4), got {cfg.gamma}")
    if cfg.command == "certify-nonequivalence" and len(cfg.n) != 1:
        raise ParseError("certify-nonequivalence: give exactly one grid size in 'n'")
    if cfg.command == "period" and cfg.model == "halfline":
        raise ParseError("period: the halfline flow is trivial and has no period")
    if cfg.command == "spectrum" and cfg.rho is not None and cfg.theta is not None:
        raise ParseError("spectrum: give theta or rho, not both")


def _build_model(cfg: SimpleNamespace):
    constructor, keys, _ = _MODELS[cfg.model]
    return constructor(*(getattr(cfg, key) for key in keys))


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def dispatch(cfg: SimpleNamespace) -> dict:
    """The payload: the command, its own keys and their values (the run-wide
    keys stay out), the handler's results and checks, and whether every
    check passed."""
    results, checks = _COMMANDS[cfg.command][0](cfg)
    return {"command": cfg.command,
            "config": {key: getattr(cfg, key) for key in _row(cfg.command, cfg.model)},
            "results": results, "checks": checks, "pass": all(checks.values())}


def _cmd_flow_orbit(cfg):
    model = _build_model(cfg)
    rows = []
    worst = 0.0
    values = flow.orbit(model, cfg.group, cfg.v0, cfg.t)
    for t, v in zip(cfg.t, values):
        rows.append({"t": t, "re": v.real, "im": v.imag, "modulus": abs(v)})
        worst = max(worst, abs(v))
    return ({"rows": rows, "worst_modulus": worst},
            {"contraction": worst <= 1.0 + flow.BALL_TOL})


def _cmd_fixed_points(cfg):
    model = _build_model(cfg)
    gen = flow.generator(model, cfg.group)
    rows = []
    worst = 0.0
    for t in cfg.t:
        fm = flow.gamma_map(model, subgroup_eval(cfg.group, t))
        fps = flow.fixed_points_flow(fm, gen)
        if fps is flow.ALL_POINTS:
            fps = [(None, "all-points")]
        # each point under the element or its inverse, whichever does not
        # expand there: a repelling point would amplify its own rounding
        maps = (fm.mobius, mobius.inverse(fm.mobius))
        for v, kind in fps:
            res = 0.0 if v is None else min(abs(mobius.apply(m, v) - v) for m in maps)
            worst = max(worst, res)
            rows.append({"t": t, "kind": kind, "re": None if v is None else v.real,
                         "im": None if v is None else v.imag, "residual": res})
    return ({"rows": rows, "worst_residual": worst},
            {f"fixed-point residual <= {flow.RESIDUAL_TOL:g}": worst <= flow.RESIDUAL_TOL})


_VERDICT_CLASSES = {
    Verdict.UNIQUE_DISSIPATIVE: {mobius.MapTag.ELLIPTIC},
    Verdict.TWO_SELF_ADJOINT: {mobius.MapTag.HYPERBOLIC, mobius.MapTag.PARABOLIC},
}


def _cmd_invariance(cfg):
    model = _build_model(cfg)
    rep = flow.invariant_extensions(model, cfg.group)
    period = None
    if cfg.t_max is not None:
        period = flow.period_detect(model, cfg.group, t_max=cfg.t_max)
    results = {
        "verdict": rep.group_verdict.value,
        "fixed_points": [
            {"re": None if v is None else v.real,
             "im": None if v is None else v.imag, "kind": kind}
            for v, kind in rep.fixed_points
        ],
        "flow_class": {f"{t:g}": tag.value
                       for t, tag in sorted(rep.flow_class.items())},
        "cyclic_period": period,
        "notes": rep.notes,
    }
    # the paper's alternative: a unique dissipative invariant extension for an
    # elliptic flow, two self-adjoint ones for a hyperbolic or parabolic flow
    allowed = _VERDICT_CLASSES[rep.group_verdict]
    agrees = all(tag in allowed for tag in rep.flow_class.values()
                 if tag is not mobius.MapTag.IDENTITY)
    return results, {"verdict matches the flow class": agrees}


def _cmd_period(cfg):
    t_max = math.inf if cfg.t_max is None else cfg.t_max
    period = flow.period_detect(_build_model(cfg), cfg.group, t_max)
    results = {"period": period, "t_max": cfg.t_max}
    return results, {"period found": period is not None}


def _cmd_spectrum(cfg):
    from . import spectra
    if cfg.rho is not None:
        eig = spectra.interval_dissipative_lattice(cfg.l, cfg.rho, cfg.window)
    else:
        eig = spectra.interval_sa_spectrum(cfg.l, cfg.theta or 0.0, cfg.window)
    rows = [{"index": i, "re": v.real, "im": v.imag, "residual": r}
            for i, (v, r) in enumerate(zip(eig.values, eig.residuals))]
    worst, tol = max(eig.residuals, default=0.0), spectra.LATTICE_TOL
    return ({"rows": rows, "count": len(eig)},
            {f"eigencondition residuals <= {tol:g}": worst <= tol})


def _cmd_shoot(cfg):
    from . import spectra
    eig = spectra.shoot_negative_eigenvalues(cfg.gamma, cfg.theta or 0.0, cfg.count)
    rows = [{"index": i, "re": v.real, "im": v.imag, "residual": r}
            for i, (v, r) in enumerate(zip(eig.values, eig.residuals))]
    results = {"rows": rows, "nu": eig.meta["nu"]}
    checks = {"eigenvalues found": len(eig) >= min(2, cfg.count)}
    if len(eig) >= 2:
        rep = spectra.progression_ratio(eig)
        results["progression"] = dict(vars(rep))
        tol = spectra.RATIO_TOL
        checks[f"consecutive ratio matches exp(2pi/nu) within {tol:g} relative"] = (
            rep.generator_deviation <= tol)
    return results, checks


def _cmd_fk_params(cfg):
    # the parameters of the extremal nonnegative extensions, and the small-x
    # exponent pair 1/2 +- mu
    model = models.inverse_square(cfg.gamma)
    v_f, v_k = model.friedrichs_krein()
    checks = {
        "friedrichs parameter unimodular": abs(abs(v_f) - 1) <= flow.SA_TOL,
        "krein parameter unimodular": abs(abs(v_k) - 1) <= flow.SA_TOL,
    }
    return ({"v_friedrichs": v_f, "v_krein": v_k,
             "exponents": (0.5 + model.mu, 0.5 - model.mu)}, checks)


def _cmd_weyl(cfg):
    from . import weylcheck
    rows = weylcheck.residual_rows(cfg.l, cfg.n, cfg.t, cfg.on_grid, cfg.jobs)
    worst = max((r["residual"] for r in rows), default=0.0)
    checks = {}
    if cfg.on_grid:
        checks[f"on-grid residual <= {weylcheck.ON_GRID_TOL:g}"] = worst <= weylcheck.ON_GRID_TOL
    else:
        checks["residuals finite"] = all(math.isfinite(r["residual"]) for r in rows)
    return {"rows": rows, "worst_residual": worst}, checks


def _cmd_generator_check(cfg):
    from . import weylcheck
    model = _build_model(cfg)
    rows, checks = [], {}
    for t in cfg.t:
        chk = weylcheck.generator_invariance_residual(model, cfg.group, t)
        rows.append({
            "t": t,
            "residual": chk.residual,
            "scale": chk.scale,
            "offset": chk.offset,
            "phase_factor": chk.phase_factor,
        })
        checks[f"t={t:g}"] = chk.passes(cfg.group, t)
    return {"rows": rows}, checks


def _cmd_refine(cfg):
    from . import weylcheck
    rows, order = weylcheck.refine(cfg.l, cfg.n, cfg.t, cfg.on_grid, cfg.jobs)
    results = {"rows": rows, "orders": {rows[0]["variant"]: order}}
    if order == "exact":
        checks = {"residuals at rounding floor": True}
    else:
        checks = {f"convergence order >= {weylcheck.ORDER_MIN:g}": order >= weylcheck.ORDER_MIN}
    return results, checks


def _cmd_certify(cfg):
    from . import weylcheck
    (n,) = cfg.n
    results = dict(vars(weylcheck.nonequivalence_certificate(cfg.l, cfg.l2, n=n)))
    certified = results.pop("certified")
    return results, {"certified": certified}


def _cmd_all(cfg):
    from . import acceptance
    results = acceptance.run_all(echo=lambda line: print(line, file=sys.stderr))
    payload = {
        r.name: {"passed": r.passed, "budget_s": r.budget_s,
                 "checks": r.details["checks"], "notes": r.notes}
        for r in results
    }
    checks = {r.name: r.passed for r in results}
    return {"criteria": payload}, checks


_FLOW_KEYS = ("model", "group")
# each command: its handler, and the keys it reads and echoes
_COMMANDS = {
    "flow-orbit": (_cmd_flow_orbit, (*_FLOW_KEYS, "t", "v0")),
    "fixed-points": (_cmd_fixed_points, (*_FLOW_KEYS, "t")),
    "invariance": (_cmd_invariance, (*_FLOW_KEYS, "t_max")),
    "period": (_cmd_period, (*_FLOW_KEYS, "t_max")),
    "spectrum": (_cmd_spectrum, ("l", "theta", "rho", "window")),
    "shoot": (_cmd_shoot, ("gamma", "theta", "count")),
    "fk-params": (_cmd_fk_params, ("gamma",)),
    "weyl": (_cmd_weyl, ("l", "n", "t", "on_grid")),
    "generator-check": (_cmd_generator_check, (*_FLOW_KEYS, "t")),
    "refine": (_cmd_refine, ("l", "n", "t", "on_grid")),
    "certify-nonequivalence": (_cmd_certify, ("l", "l2", "n")),
    "all": (_cmd_all, ()),
}
COMMANDS = tuple(_COMMANDS)


# ---------------------------------------------------------------------------
# emission: deterministic JSON / CSV
# ---------------------------------------------------------------------------

def _format_number(x: float) -> str:
    # x - x is 0 exactly when x is finite; nan and inf are quoted
    if x - x == 0:
        return f"{x:.17g}"
    return '"nan"' if x != x else f'"{x}"'


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


class _Quoted(dict):
    # _quote by text, then the suffix, for the keys and names that repeat:
    # the first 256 texts
    def __init__(self, suffix: str = ""):
        self.suffix = suffix

    def __missing__(self, text: str) -> str:
        quoted = _quote(text) + self.suffix
        if len(self) < 256:
            self[text] = quoted
        return quoted


# each dict member's '"key": ' head
_HEADS = _Quoted(": ")
# the payload's scalars, by exact builtin type; a complex is an object
_SCALARS = {float: _format_number, str: _Quoted().__getitem__, int: str,
            bool: ("false", "true").__getitem__, type(None): lambda _: "null"}


def _frame(depth: int) -> tuple:
    # the strings of a container at a depth: dict open, list open, member
    # separator, dict close and list close
    inner, outer = "\n" + " " * (depth + 1), "\n" + " " * depth
    return "{" + inner, "[" + inner, "," + inner, outer + "}", outer + "]"


# indexed by depth; _write_json extends it past its end
_FRAMES = [_frame(depth) for depth in range(8)]


def to_json(obj, indent: int = 0) -> str:
    """JSON with floats at 17 significant digits and sorted keys; complex
    numbers become {"im": ..., "re": ...} objects, and a leaf that is not a
    builtin scalar of exact type, or a key that is not an exact str, raises
    TypeError. indent is the depth of obj, at least 0. One pass appending to
    one list, one append for each scalar member or item."""
    parts = []
    _write_json(obj, indent, parts.append)
    return "".join(parts)


def _write_json(obj, depth: int, put) -> None:
    # a module-level function, not a closure: a closure that calls itself is
    # a reference cycle, which would keep each payload's parts alive until
    # the cyclic garbage collector runs
    try:
        dict_open, list_open, next_sep, dict_close, list_close = _FRAMES[depth]
    except IndexError:
        _FRAMES.extend(map(_frame, range(len(_FRAMES), depth + 1)))
        return _write_json(obj, depth, put)
    if isinstance(obj, dict):
        if not obj:
            put("{}")
            return
        sep = dict_open
        for key in sorted(obj):
            # before the lookup: a str subclass would find its text's head
            if type(key) is not str:
                raise TypeError(f"cannot serialize a key of {type(key)!r}")
            value = obj[key]
            if type(value) is float and value - value == 0:
                put(f"{sep}{_HEADS[key]}{value:.17g}")
            elif (text := _SCALARS.get(type(value))) is not None:
                put(sep + _HEADS[key] + text(value))
            else:
                put(sep + _HEADS[key])
                _write_json(value, depth + 1, put)
            sep = next_sep
        put(dict_close)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            put("[]")
            return
        sep = list_open
        for item in obj:
            text = _SCALARS.get(type(item))
            if text is not None:
                put(sep + text(item))
            else:
                put(sep)
                _write_json(item, depth + 1, put)
            sep = next_sep
        put(list_close)
    elif (text := _SCALARS.get(type(obj))) is not None:
        put(text(obj))
    elif type(obj) is complex:
        _write_json({"re": obj.real, "im": obj.imag}, depth, put)
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def to_csv(payload: dict) -> str:
    """Rows when the command produced a table, otherwise flattened checks."""
    rows = payload["results"].get("rows")
    lines = []
    if rows:
        keys = list(rows[0].keys())
        lines.append(",".join(keys))
        for row in rows:
            cells = []
            for key in keys:
                val = row[key]
                if isinstance(val, complex):
                    val = val.real if val.imag == 0 else f"{val.real:.17g}{val.imag:+.17g}j"
                if isinstance(val, float):
                    cells.append(f"{val:.17g}")
                else:
                    cells.append("" if val is None else str(val))
            lines.append(",".join(cells))
    else:
        lines.append("check,passed")
        for name, ok in sorted(payload["checks"].items()):
            lines.append(f"\"{name}\",{ok}")
    return "\n".join(lines) + "\n"


def emit(payload: dict, fmt: str, out: str | None) -> str:
    text = to_json(payload) + "\n" if fmt == "json" else to_csv(payload)
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return text


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    start = time.perf_counter()
    try:
        values = parse_args(sys.argv[1:] if argv is None else argv)
        if values is None:
            sys.stdout.write(usage())
            return 0
        cfg = load_config(values)
        payload = dispatch(cfg)
        emit(payload, cfg.format, cfg.out)
    except (ParseError, InvalidArgument) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ExtflowError, OSError) as exc:
        print(f"numerical/runtime failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    sys.stderr.write(f"{cfg.command}: {'pass' if payload['pass'] else 'FAIL'} "
                     f"({time.perf_counter() - start:.2f}s)\n")
    return 0 if payload["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
