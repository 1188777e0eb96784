"""Network configuration: a versioned JSON document with five sections.

Schema (version ``v1``)::

    {
      "version": "v1",
      "eos": {"kind": "cnga", ...},
      "nodes": [{"id": "1", "kind": "slack", "pressure": <profile>},
                {"id": "3", "kind": "demand", "withdrawal": <profile>}],
      "pipes": [{"id": "p1", "from": "1", "to": "2",
                 "length": 20000.0, "diameter": 0.9144, "friction": 0.01}],
      "compressors": [{"pipe": "p1", "side": "inlet", "ratio": <profile>}],
      "simulation": {"dt": 0.125, "t_end": 86400.0, "dx_target": 62.5,
                     "cfl_safety": 0.9, "output_cadence": 60.0,
                     "output_path": "out"}
    }

Profiles are either a bare number (constant) or a dict with a ``type`` key
(``constant``, ``harmonic``, ``piecewise_linear``, ``step_sequence``), and
every number in them is a JSON number.  Validation collects every violation
before failing; in strict mode unknown keys are rejected as well, and each
piecewise-linear profile whose first knot lies after t = 0 (where every run
starts, and a period wraps to) warns once, naming its location.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import MISSING, asdict, dataclass, field, fields

from .eos import EOS_KEYS, make_eos
from .errors import ConfigError
from .network import DemandBC, Network, Node, PipeEdge, SlackBC, \
    cell_count_violation, graph_violations, grid_for_length
from .pipe import PipeGeometry
from .profiles import PiecewiseLinear, profile_from_config

SCHEMA_VERSION = "v1"


@dataclass
class NodeConfig:
    id: str
    kind: str                    # "slack" | "demand"
    profile: object              # pressure or withdrawal profile config

    def to_dict(self):
        key = "pressure" if self.kind == "slack" else "withdrawal"
        return {"id": self.id, "kind": self.kind, key: self.profile}


@dataclass
class PipeConfig:
    id: str
    from_node: str
    to_node: str
    length: float
    diameter: float
    friction: float

    def to_dict(self):
        return {"id": self.id, "from": self.from_node, "to": self.to_node,
                "length": self.length, "diameter": self.diameter,
                "friction": self.friction}


@dataclass
class CompressorConfig:
    pipe: str
    side: str                    # "inlet" | "outlet"
    ratio: object

    def to_dict(self):
        return asdict(self)


@dataclass
class SimulationConfig:
    t_end: float
    dx_target: float
    dt: float | None = None
    cfl_safety: float = 0.9
    output_cadence: float = 60.0
    output_path: str = "out"

    def to_dict(self):
        return asdict(self)


# the optional simulation keys, with the defaults declared above
_SIMULATION_DEFAULTS = {f.name: f.default for f in fields(SimulationConfig)
                        if f.default is not MISSING}


@dataclass
class NetworkConfig:
    eos: dict
    nodes: list
    pipes: list
    compressors: list = field(default_factory=list)
    simulation: SimulationConfig | None = None
    version: str = SCHEMA_VERSION

    def to_dict(self):
        doc = {"version": self.version, "eos": dict(self.eos),
               "nodes": [n.to_dict() for n in self.nodes],
               "pipes": [p.to_dict() for p in self.pipes],
               "compressors": [c.to_dict() for c in self.compressors]}
        if self.simulation is not None:
            doc["simulation"] = self.simulation.to_dict()
        return doc


def _expect_keys(section, obj, required, optional, problems, strict):
    missing = required - obj.keys()
    if missing:
        problems.append(f"{section}: missing keys {sorted(missing)}")
    if strict:
        unknown = obj.keys() - required - optional
        if unknown:
            problems.append(f"{section}: unknown keys {sorted(unknown)}")


def _check_profile(section, cfg, problems, positive, clamped):
    """List the fault of profile ``cfg``, or its minimum if ``positive`` (a
    slack pressure or a boost ratio) and not above zero; note a profile
    that a run clamps in ``clamped``, with its first knot's time."""
    try:
        profile = profile_from_config(cfg)
    except (ValueError, TypeError) as exc:
        problems.append(f"{section}: bad profile ({exc})")
        return
    if positive and profile.minimum() <= 0:
        problems.append(f"{section}: profile must stay positive, but can "
                        f"reach {profile.minimum():g}")
    if isinstance(profile, PiecewiseLinear) and profile.knots[0][0] > 0:
        clamped.append((section, profile.knots[0][0]))


def _objects(doc, key, problems) -> list:
    """The ``(label, object)`` entries of a list section of ``doc``."""
    items = doc.get(key, [])
    if not isinstance(items, list):
        problems.append(f"{key}: must be a list")
        return []
    entries = []
    for i, item in enumerate(items):
        if isinstance(item, dict):
            entries.append((f"{key}[{i}]", item))
        else:
            problems.append(f"{key}[{i}]: must be an object")
    return entries


def _is_number(value) -> bool:
    """A finite JSON number (booleans excluded); an integer beyond the
    float range is not."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _is_positive(value) -> bool:
    return _is_number(value) and value > 0


def parse_config(doc: dict, strict: bool = False) -> NetworkConfig:
    """Validate a parsed JSON document; raises ConfigError listing every
    violation found."""
    problems, clamped = [], []
    if not isinstance(doc, dict):
        raise ConfigError(["config root must be an object"])
    _expect_keys("config", doc, {"version", "eos", "nodes", "pipes"},
                 {"compressors", "simulation"}, problems, strict)
    if doc.get("version") != SCHEMA_VERSION:
        problems.append(f"config: schema version must be "
                        f"{SCHEMA_VERSION!r}, got {doc.get('version')!r}")

    eos_cfg = doc.get("eos", {})
    if not isinstance(eos_cfg, dict) or "kind" not in eos_cfg:
        problems.append("eos: must be an object with a 'kind'")
    elif not isinstance(eos_cfg["kind"], str) or \
            eos_cfg["kind"] not in EOS_KEYS:
        problems.append(f"eos: unknown kind {eos_cfg['kind']!r}")
    else:
        kind = eos_cfg["kind"]
        required, optional = EOS_KEYS[kind]
        _expect_keys("eos", eos_cfg, required | {"kind"}, optional,
                     problems, strict)
        bad = [key for key in sorted((required | optional) & eos_cfg.keys())
               if not _is_number(eos_cfg[key])]
        problems += [f"eos: {key} must be a finite number" for key in bad]
        # build only from every required key, each a number, so that a
        # missing or bad key is listed once
        if not bad and required <= eos_cfg.keys():
            try:
                make_eos(kind, **{k: v for k, v in eos_cfg.items()
                                  if k != "kind"})
            except ValueError as exc:
                problems.append(f"eos: invalid parameters ({exc})")

    nodes = _objects(doc, "nodes", problems)
    for label, nd in nodes:
        kind = nd.get("kind")
        value_key = "pressure" if kind == "slack" else "withdrawal"
        _expect_keys(label, nd, {"id", "kind", value_key}, set(), problems,
                     strict)
        if kind not in ("slack", "demand"):
            problems.append(f"{label}: kind must be 'slack' or 'demand'")
        elif value_key in nd:
            _check_profile(label, nd[value_key], problems, kind == "slack",
                           clamped)

    pipes = _objects(doc, "pipes", problems)
    for label, pd in pipes:
        _expect_keys(label, pd, {"id", "from", "to", "length", "diameter",
                                 "friction"}, set(), problems, strict)
        for key in ("length", "diameter"):
            if not _is_positive(pd.get(key)):
                problems.append(f"{label}: {key} must be positive")
        if not _is_number(pd.get("friction")) or pd["friction"] < 0:
            problems.append(f"{label}: friction must be non-negative")
    problems += graph_violations(
        [(str(nd.get("id")), nd.get("kind") == "slack") for _, nd in nodes],
        [(str(pd.get("id")), str(pd.get("from")), str(pd.get("to")))
         for _, pd in pipes])

    compressors = _objects(doc, "compressors", problems)
    pipe_ids = {str(pd.get("id")) for _, pd in pipes}
    seen_comp = set()
    for label, cd in compressors:
        _expect_keys(label, cd, {"pipe", "side", "ratio"}, set(), problems,
                     strict)
        if str(cd.get("pipe")) not in pipe_ids:
            problems.append(f"{label}: pipe {cd.get('pipe')!r} does not exist")
        key = (str(cd.get("pipe")), cd.get("side"))
        if key[1] not in ("inlet", "outlet"):
            problems.append(f"{label}: side must be 'inlet' or 'outlet'")
        elif key in seen_comp:
            problems.append(f"{label}: duplicate compressor for {key}")
        else:
            seen_comp.add(key)
        if "ratio" in cd:
            _check_profile(label, cd["ratio"], problems, True, clamped)

    sd = doc.get("simulation")
    if "simulation" in doc and not isinstance(sd, dict):
        problems.append("simulation: must be an object")
    elif sd is not None:
        _expect_keys("simulation", sd, {"t_end", "dx_target"},
                     set(_SIMULATION_DEFAULTS), problems, strict)
        sd = {**_SIMULATION_DEFAULTS, **sd}
        for key in ("t_end", "dx_target", "output_cadence"):
            if key in sd and not _is_positive(sd[key]):
                problems.append(f"simulation: {key} must be positive")
        if sd["dt"] is not None and not _is_positive(sd["dt"]):
            problems.append("simulation: dt must be positive or null")
        path = sd["output_path"]
        if not (isinstance(path, str) and path):
            problems.append("simulation: output_path must be a non-empty "
                            "string")
        safety = sd["cfl_safety"]
        if not (_is_number(safety) and 0 < safety <= 1):
            problems.append("simulation: cfl_safety must be in (0, 1]")
        if _is_positive(sd.get("dx_target")):
            problems += filter(None, (
                cell_count_violation(f"pipe {str(pd.get('id'))!r}",
                                     pd["length"], sd["dx_target"])
                for _, pd in pipes if _is_positive(pd.get("length"))))

    if problems:
        raise ConfigError(problems)
    for label, t0 in clamped if strict else ():
        warnings.warn(f"{label}: profile holds its first value before its "
                      f"first knot at t = {t0:g} s", stacklevel=2)
    return NetworkConfig(
        eos=dict(eos_cfg),
        nodes=[NodeConfig(id=str(nd["id"]), kind=nd["kind"],
                          profile=nd["pressure" if nd["kind"] == "slack"
                                     else "withdrawal"])
               for _, nd in nodes],
        pipes=[PipeConfig(id=str(pd["id"]), from_node=str(pd["from"]),
                          to_node=str(pd["to"]), length=float(pd["length"]),
                          diameter=float(pd["diameter"]),
                          friction=float(pd["friction"]))
               for _, pd in pipes],
        compressors=[CompressorConfig(pipe=str(cd["pipe"]), side=cd["side"],
                                      ratio=cd["ratio"])
                     for _, cd in compressors],
        simulation=None if sd is None else SimulationConfig(
            t_end=float(sd["t_end"]), dx_target=float(sd["dx_target"]),
            dt=None if sd["dt"] is None else float(sd["dt"]),
            cfl_safety=float(sd["cfl_safety"]),
            output_cadence=float(sd["output_cadence"]),
            output_path=sd["output_path"]),
        version=doc["version"])


def load_config(path, strict: bool = False) -> NetworkConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"parse error at line {exc.lineno}, column "
                           f"{exc.colno}: {exc.msg}"]) from exc
    except OSError as exc:
        raise ConfigError([f"cannot read config {path}: {exc.strerror}"]) \
            from exc
    return parse_config(doc, strict=strict)


def config_sha(cfg: NetworkConfig | dict) -> str:
    doc = cfg.to_dict() if isinstance(cfg, NetworkConfig) else cfg
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def build_network(cfg: NetworkConfig,
                  dx_target: float | None = None) -> Network:
    """Instantiate the runtime Network from a validated config."""
    eos = make_eos(cfg.eos["kind"],
                   **{k: v for k, v in cfg.eos.items() if k != "kind"})
    nodes = []
    for nc in cfg.nodes:
        profile = profile_from_config(nc.profile)
        bc = SlackBC(profile) if nc.kind == "slack" else DemandBC(profile)
        nodes.append(Node(nc.id, bc))
    if dx_target is None:
        dx_target = cfg.simulation.dx_target if cfg.simulation else 500.0
    ratios = {}
    for cc in cfg.compressors:
        ratios[(cc.pipe, cc.side)] = profile_from_config(cc.ratio)
    edges = []
    for pc in cfg.pipes:
        edges.append(PipeEdge(
            id=pc.id, from_node=pc.from_node, to_node=pc.to_node,
            geometry=PipeGeometry(length=pc.length, diameter=pc.diameter,
                                  friction=pc.friction),
            grid=grid_for_length(pc.length, dx_target),
            inlet_ratio=ratios.get((pc.id, "inlet")),
            outlet_ratio=ratios.get((pc.id, "outlet"))))
    return Network(nodes, edges, eos)
