"""The config boundary: one checked reader and a key table per command.

Every single-leaf mutation of a valid config, and of the model JSON, must
exit 0, or exit 1 with exactly one stderr line; the README's config
examples must pass their command's table, and every key must be named in
the README.
"""

import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fluxline
from fluxline import classify as cl
from fluxline import dynamics as dyn
from fluxline import io as fio
from fluxline import network as nw
from fluxline import synth
from fluxline import thermometry as th
from fluxline.cli import _COMMANDS, _GENERATORS, _SCHEMAS, config_schema, main

from conftest import LADDER_A, make_ring_model, model_curve

README = Path(__file__).resolve().parent.parent / "README.md"

DELETE = object()
MUTATIONS = {"delete": DELETE, "null": None, '"x"': "x", "[1]": [1], "nan": math.nan,
             "-1.5": -1.5, "2.5": 2.5, "true": True, "0": 0}

LADDER = dict(LADDER_A, kb_over_h="rounded")
MODEL = fio.model_to_dict(make_ring_model())
SHOT_GENERATOR = {"seed": 3, "ladder": LADDER, "cluster_model": MODEL,
                  "temperature_mk": 181.072, "n_model_levels": 6}
# fit-curve models beyond the exponential, each with a base on a curve of its shape.
CURVE_MODELS = ("decaying_cosine", "stretched_exponential", "quadratic_minimum")


def base_configs(files: dict) -> dict:
    """One valid config per command and generator, giving every key its table lists."""
    return {
        "filter-sweep": {
            "geometry": {"z0_ohm": 50.0, "v_p_m_per_s": 1.17e8, "l_f_mm": 6.5,
                         "x_s_mm": 2.0, "c_g_fF": 0.0, "c_d_fF": 4.4, "z_source_ohm": 50.0},
            "squid_array": {"n_squids": 5, "ic_junction_uA": 10.0,
                            "l_fixed_per_squid_nH": 0.0, "clamp_epsilon": 1e-3},
            "qubit": {"f_q_GHz": 3.9, "c_q_fF": 143.0, "t1_internal_ms": 0.2},
            "drive_freq_GHz": 4.2, "flux_values": [0.0, 0.25],
            "flux_start": 0.0, "flux_stop": 0.45, "flux_points": 3,
            "mode": "clamped", "i_node_uA": 0.2, "reference_flux": 0.0},
        "fit-reset": {"reset_csv": files["reset"], "fit_floor": True},
        "fit-temp": {"shots_csv": files["shots"], "model_json": files["model"],
                     "ladder": LADDER, "window": 200, "t_shot_us": 34.2,
                     "t_min_mk": 1.0, "t_max_mk": 20000.0},
        "fit-rb": {"curve_csv": files["curve"], "pulses_per_clifford": 1.875,
                   "p_ref": 0.995},
        "fit-curve": {"curve_csv": files["curve"], "model": "exponential"},
        **{f"fit-curve {model}": {"curve_csv": files[model], "model": model}
           for model in CURVE_MODELS},
        "classify": {"shots_csv": files["labelled"], "model_json": files["model"],
                     "save_model_json": "saved-model.json"},
        "generate thermal": dict(SHOT_GENERATOR, generator="thermal", n_shots=200),
        "generate windows": dict(SHOT_GENERATOR, generator="windows", n_win=2, n_shot=100),
        "generate reset": {
            "generator": "reset", "seed": 3,
            "rates": {"t1_ge_ns": 238.22, "t1_ef_ns": 136.80, "t1_fh_ns": 128.84},
            "t_start_ns": 10.0, "t_stop_ns": 2000.0, "t_points": 12,
            "preps": ["e", "f", "h"], "n_shots_per_point": 1000, "floor_p_inf": 0.985},
        "generate rb": {"generator": "rb", "seed": 3, "p_true": 0.995, "a": 0.5, "b": 0.5,
                        "m_grid": [0, 10, 20, 50, 100, 200], "shots_per_point": 1000},
    }


def leaves(doc, path=()):
    """Key paths of every value in ``doc`` that is not an object."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from leaves(value, path + (key,))
        else:
            yield path + (key,)


def mutated(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def write_inputs(work: Path) -> dict:
    """Small valid input files for the base configs."""
    model = make_ring_model()
    files = {k: str(work / name) for k, name in (
        ("model", "model.json"), ("shots", "shots.csv"), ("labelled", "labelled.csv"),
        ("reset", "reset.csv"), ("curve", "curve.csv"))}
    files.update({model: str(work / f"{model}.csv") for model in CURVE_MODELS})
    fio.dump_json(MODEL, files["model"])
    gen_cfg = synth.ShotGenConfig(ladder=th.LevelLadder(**LADDER_A), cluster_model=model)
    fio.write_shots_csv(files["shots"], synth.gen_thermal_shots(gen_cfg, 0.181072, 400))
    fio.write_shots_csv(files["labelled"], *cl.sample_from_model(model, 40, seed=1),
                        model.labels)
    rates = dyn.DecayRates.from_t1(238.22e-9, 136.80e-9, 128.84e-9)
    t_grid = [k * 1e-7 for k in range(1, 21)]
    fio.write_reset_csv(files["reset"], synth.gen_reset_curves(
        rates, (1, 2, 3), t_grid, 5000, floor_p_inf=0.985, seed=2))
    fio.write_curve_csv(files["curve"], *synth.gen_rb_decay(
        0.995, 0.5, 0.5, [float(m) for m in range(0, 400, 20)], 2000, seed=4))
    for model in CURVE_MODELS:
        fio.write_curve_csv(files[model], *model_curve(model)[:2])
    return files


# Cases that a config could pass unnoticed, or that crashed, before the
# reader; each must now exit 1 with exactly this message.
NAMED_CASES = [
    ("fit-reset", ("fit_floor",), "false", "fit_floor must be true or false, got 'false'"),
    ("fit-reset", ("fit_flor",), True, "config has unknown key 'fit_flor'"),
    ("fit-reset", ("reset_csv",), 0, "reset_csv must be a string, got 0"),
    ("fit-temp", ("window",), 2000.9, "window must be an integer from 1 to 2**63 - 1, got 2000.9"),
    ("fit-temp", ("window",), True, "window must be an integer from 1 to 2**63 - 1, got True"),
    ("fit-temp", ("shots_csv",), True, "shots_csv must be a string, got True"),
    ("fit-temp", ("t_min_mK",), 1.0, "config has unknown key 't_min_mK'"),
    ("classify", ("init",), "random", "config has unknown key 'init'"),
    ("filter-sweep", ("squid_array", "n_squids"), 2.5,
     "squid_array.n_squids must be an integer from -2**63 to 2**63 - 1, got 2.5"),
    ("filter-sweep", ("geometry", "z0_ohm"), None,
     "geometry.z0_ohm must be a finite number, got None"),
    ("filter-sweep", ("geometry", "z0_ohm"), DELETE,
     "config is missing required key 'geometry.z0_ohm'"),
    ("generate reset", ("preps",), "ef", "preps must be a non-empty list of strings, got 'ef'"),
    ("generate reset", ("rates", "t1_ge_ns"), 0,
     "rates.t1_ge_ns must be a positive finite number, got 0"),
    ("generate thermal", ("cluster_model", "components", "g", "cov"), DELETE,
     "config is missing required key 'cluster_model.components.g.cov'"),
    ("model_json", ("components", "g", "cov"), [[1.0, 0.0]],
     "model_json.components.g.cov must be a 2x2 list of finite numbers, got [[1.0, 0.0]]"),
]

# Runs in a fresh interpreter with stdin closed, in a scratch directory:
# calls cli.main on each argv of the JSON file named by argv[1] and writes
# [exit code or escaped exception, stderr] per call to the file argv[2].
_SCRIPT = """
import contextlib, io, json, os, sys
with open(sys.argv[1]) as fh:
    calls = json.load(fh)
os.close(0)
from fluxline.cli import main
report = []
for argv in calls:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except Exception as exc:
            rc = f"traceback: {type(exc).__name__}: {exc}"
    report.append([rc, err.getvalue()])
with open(sys.argv[2], "w") as fh:
    json.dump(report, fh)
"""


def command_of(base: str) -> str:
    return "fit-temp" if base == "model_json" else base.split()[0]


def run_cases(work: Path, cases: dict, src: str) -> dict:
    """Run every case {id: (base name, config)} in one child; {id: (rc, stderr)}."""
    calls = []
    for k, (base, cfg) in enumerate(cases.values()):
        cfg_path = work / f"case{k}.json"
        cfg_path.write_text(json.dumps(cfg))
        calls.append([command_of(base), "--config", str(cfg_path),
                      "--out", str(work / f"case{k}.out")])
    (work / "calls.json").write_text(json.dumps(calls))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, "calls.json", "report.json"],
                          capture_output=True, text=True, env=env, cwd=work, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return dict(zip(cases, map(tuple, json.loads((work / "report.json").read_text()))))


def all_cases(work: Path) -> dict:
    """Every base config, its single-leaf mutations and those of the model JSON,
    and NAMED_CASES."""
    files = write_inputs(work)
    bases = base_configs(files)
    cases = {}
    for base, cfg in bases.items():
        cases[(base, "", "base")] = (base, cfg)
        for path in leaves(cfg):
            for name, value in MUTATIONS.items():
                cases[(base, ".".join(path), name)] = (base, mutated(cfg, path, value))
    for k, path in enumerate(leaves(MODEL)):
        for name, value in MUTATIONS.items():
            model_path = work / f"model-{k}-{len(cases)}.json"
            model_path.write_text(json.dumps(mutated(MODEL, path, value)))
            cases[("model_json", ".".join(path), name)] = (
                "model_json", dict(bases["fit-temp"], model_json=str(model_path)))
    for base, path, value, _ in NAMED_CASES:
        if base == "model_json":
            model_path = work / f"model-named-{len(cases)}.json"
            model_path.write_text(json.dumps(mutated(MODEL, path, value)))
            cfg = dict(bases["fit-temp"], model_json=str(model_path))
        else:
            cfg = mutated(bases[base], path, value)
        cases[named_id(base, path, value)] = (base, cfg)
    return cases


def named_id(base, path, value) -> tuple:
    return base, ".".join(path), "named: " + ("delete" if value is DELETE else repr(value))


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    work = tmp_path_factory.mktemp("mutations")
    src = str(Path(fluxline.__file__).resolve().parent.parent)
    return run_cases(work, all_cases(work), src)


BASES = ["filter-sweep", "fit-reset", "fit-temp", "fit-rb", "fit-curve",
         *(f"fit-curve {m}" for m in CURVE_MODELS), "classify", "generate thermal",
         "generate windows", "generate reset", "generate rb"]


@pytest.mark.parametrize("base", BASES)
def test_every_base_config_exits_0_quietly(results, base):
    assert results[(base, "", "base")] == (0, "")


@pytest.mark.parametrize("base", BASES + ["model_json"])
def test_every_single_leaf_mutation_exits_0_or_1_with_one_line(results, base):
    ran = {case: got for case, got in results.items()
           if case[0] == base and case[2] in MUTATIONS}
    assert len(ran) >= 2 * len(MUTATIONS)
    bad = {case: got for case, got in ran.items()
           if not (got[0] == 0 or (got[0] == 1 and got[1].count("\n") == 1))}
    assert not bad


@pytest.mark.parametrize("base, path, value, message", NAMED_CASES,
                         ids=[" ".join(named_id(*case[:3])) for case in NAMED_CASES])
def test_named_bad_value_exits_1_naming_the_key(results, base, path, value, message):
    assert results[named_id(base, path, value)] == (1, f"error: {message}\n")


def every_key(schema: dict):
    for key, (kind, *_) in schema.items():
        yield key
        if isinstance(kind, dict):
            yield from every_key(kind)


class TestReadmeDocumentsTheTables:
    def readme_configs(self):
        """(command, config) of each json block; command is the ``### `name` `` heading above it."""
        command, block, found = None, None, []
        for line in README.read_text().splitlines():
            if line.startswith("#"):
                command = line.strip("# `") if line.startswith("### `") else None
            elif line == "```json":
                block = []
            elif line == "```" and block is not None:
                found.append((command, json.loads("\n".join(block))))
                block = None
            elif block is not None:
                block.append(line)
        return found

    def test_every_example_passes_its_table(self):
        examples = self.readme_configs()
        assert {c for c, _ in examples} == set(_COMMANDS)
        assert {cfg["generator"] for c, cfg in examples if c == "generate"} == set(_GENERATORS)
        for command, cfg in examples:
            fio.read_config(cfg, config_schema(command, cfg))

    def test_every_table_key_is_named(self):
        text = README.read_text()
        tables = list(_SCHEMAS.values()) + list(_GENERATORS.values()) + [
            {"components": (fio._COMPONENT, None)}]
        missing = {key for table in tables for key in every_key(table)
                   if f"`{key}`" not in text}
        assert not missing


@pytest.mark.parametrize("text, message", [
    (b"[1, 2]", "error: config must be an object, got [1, 2]\n"),
    (b'{"reset_csv": "r.csv", "fit_floor": true', "error: cannot read config: "),
    (b"\xff\xfe{}", "error: cannot read config: 'utf-8' codec can't decode"),
])
def test_unreadable_config_exits_1_with_one_line(tmp_path, capsys, text, message):
    (tmp_path / "cfg.json").write_bytes(text)
    assert main(["fit-reset", "--config", str(tmp_path / "cfg.json"),
                 "--out", str(tmp_path / "x.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1


def test_sections_fill_their_classes_field_by_field():
    """A section's values, in table order, are its class's fields in SI."""
    sweep = fio.read_config({
        "geometry": {"z0_ohm": 50, "v_p_m_per_s": 1.17e8, "l_f_mm": 6.5, "x_s_mm": 2.0,
                     "c_g_fF": 1.5, "c_d_fF": 4.4, "z_source_ohm": 25},
        "squid_array": {"n_squids": 5, "ic_junction_uA": 10, "l_fixed_per_squid_nH": 0.3,
                        "clamp_epsilon": 0.002},
        "qubit": {"f_q_GHz": 3.9, "c_q_fF": 120, "t1_internal_ms": 0.2},
        "drive_freq_GHz": 4.2}, config_schema("filter-sweep", {}))
    assert nw.FilterGeometry(*sweep["geometry"].values()) == nw.FilterGeometry(
        z0=50.0, v_p=1.17e8, l_f=6.5 * 1e-3, x_s=2.0 * 1e-3, c_g=1.5 * 1e-15,
        c_d=4.4 * 1e-15, z_source=25.0)
    assert nw.SquidArray(*sweep["squid_array"].values()) == nw.SquidArray(
        n_squids=5, ic_junction=10 * 1e-6, l_fixed_per_squid=0.3 * 1e-9, clamp_epsilon=0.002)
    assert nw.QubitLoad(*sweep["qubit"].values()) == nw.QubitLoad(
        f_q=3.9 * 1e9, c_q=120 * 1e-15, t1_internal=0.2 * 1e-3)
    gen = {"generator": "reset", "rates": {"t1_ge_ns": 238.22, "t1_ef_ns": 136.8,
                                           "t1_fh_ns": 128.84}}
    rates = fio.read_config(gen, config_schema("generate", gen))["rates"]
    assert dyn.DecayRates.from_t1(*rates.values()) == dyn.DecayRates.from_t1(
        t1_ge=238.22 * 1e-9, t1_ef=136.8 * 1e-9, t1_fh=128.84 * 1e-9)
    ladder = fio.read_config(dict(LADDER_A, kb_over_h=21),
                             config_schema("fit-temp", {})["ladder"][0], "ladder")
    assert th.LevelLadder(*ladder.values()) == th.LevelLadder(
        f_ge_ghz=3.9514, f_ef_ghz=3.8167, f_fh_ghz=3.6730, kb_over_h_ghz_per_k=21.0)



# Each section the CLI builds a class from positionally: (base config, section, builder).
SECTION_BUILDERS = [
    ("filter-sweep", "geometry", nw.FilterGeometry),
    ("filter-sweep", "squid_array", nw.SquidArray),
    ("filter-sweep", "qubit", nw.QubitLoad),
    ("fit-temp", "ladder", th.LevelLadder),
    ("generate reset", "rates", dyn.DecayRates.from_t1),
]
# Each command default that restates a library default:
# (base config, its keys, function or class, parameter filled from the keys).
COMMAND_DEFAULTS = [
    ("filter-sweep", ("mode",), nw.flux_sweep, "mode"),
    ("filter-sweep", ("i_node_uA",), nw.flux_sweep, "i_node"),
    ("filter-sweep", ("reference_flux",), nw.flux_sweep, "reference_flux"),
    ("fit-temp", ("t_min_mk", "t_max_mk"), th.fit_temperature_batch, "bounds"),
    ("fit-reset", ("fit_floor",), dyn.fit_decay_rates, "fit_floor"),
    ("generate reset", ("floor_p_inf",), synth.gen_reset_curves, "floor_p_inf"),
    ("generate reset", ("seed",), synth.gen_reset_curves, "seed"),
    ("generate rb", ("seed",), synth.gen_rb_decay, "seed"),
    ("generate thermal", ("n_model_levels",), synth.ShotGenConfig, "n_model_levels"),
    ("generate thermal", ("seed",), synth.ShotGenConfig, "seed"),
]

# Input paths for configs that are checked, never run.
UNREAD_FILES = dict.fromkeys(["reset", "shots", "model", "labelled", "curve", *CURVE_MODELS], "")


def required_only(cfg: dict, schema: dict) -> dict:
    """``cfg`` with only the keys its table requires, sections pruned in turn."""
    return {key: required_only(cfg[key], kind) if type(kind) is dict else cfg[key]
            for key, (kind, default, *_) in schema.items() if default is ...}


def same(a, b) -> bool:
    """Equal, floats to within 1e-15 relative (a lab unit times 1e-15 may miss by 1 ulp)."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b or (type(a) is float and math.isclose(a, b, rel_tol=1e-15))


@pytest.mark.parametrize("base, section, build", SECTION_BUILDERS,
                         ids=[section for _, section, _ in SECTION_BUILDERS])
def test_section_keys_name_the_fields_they_fill_in_order(base, section, build):
    # The CLI passes a section's values positionally, so a reordered key
    # would silently swap two inputs; the i-th key names the i-th field.
    cfg = base_configs(UNREAD_FILES)
    keys = list(config_schema(command_of(base), cfg[base])[section][0])
    params = list(inspect.signature(build).parameters)
    assert len(keys) == len(params)
    for key, param in zip(keys, params):
        short, long = sorted((key, param), key=len)
        assert long == short or long.startswith(short + "_"), (key, param)


@pytest.mark.parametrize("base", sorted({case[0] for case in SECTION_BUILDERS + COMMAND_DEFAULTS}))
def test_required_keys_alone_give_the_library_defaults(base):
    cfg = base_configs(UNREAD_FILES)
    schema = config_schema(command_of(base), cfg[base])
    given = required_only(cfg[base], schema)
    values = fio.read_config(given, schema)
    for _, section, build in filter(lambda case: case[0] == base, SECTION_BUILDERS):
        # The library's own defaults fill every key the config left out.
        library = build(*(values[section][key] for key in given[section]))
        built = build(*values[section].values())
        assert same(dataclasses.astuple(built), dataclasses.astuple(library)), section
    for _, keys, function, param in filter(lambda case: case[0] == base, COMMAND_DEFAULTS):
        got = tuple(values[key] for key in keys)
        default = inspect.signature(function).parameters[param].default
        assert same(got if len(keys) > 1 else got[0], default), keys
