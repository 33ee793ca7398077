import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fractalips
from fractalips import ConfigError
from fractalips.cli import (
    SUBCOMMANDS,
    _columns,
    _write_trajectory,
    main,
    parse_config,
    validate,
    write_csv,
)
from fractalips.dynamics import Trajectory, builtin_kernels, project_kernel
from fractalips.experiments import bernoulli_gap_medians, kuramoto_fields, level_data
from fractalips.transfer import kernel_to_graphon, martingale_level, transfer_to_interval

BASE_CONFIG = """
[experiment]
output_dir = {out}

[ifs]
preset = sg

[measure]
p = natural

[function]
name = expdiff

[kernel]
name = {kernel}
value = {kernel_value}

[model]
name = kuramoto
coupling_strength = 1.0
omega = field
{model_extra}

[levels]
levels = {levels}
ell_levels = 1,2
sublevel = 2

[time]
T = 0.1
dt = 0.01
output_stride = 5

[quadrature]
level = 6
samples = 5000
tail = 30

[graph]
kind = {graph}

[seeds]
seeds = 1,2
"""


def write_config(tmp_path, name="cfg.ini", out="out", levels="2,3,4",
                 graph="deterministic", kernel="expdist", kernel_value="1.0",
                 model_extra=""):
    path = tmp_path / name
    text = BASE_CONFIG.format(out=tmp_path / out, levels=levels, graph=graph,
                              kernel=kernel, kernel_value=kernel_value,
                              model_extra=model_extra)
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_preset_and_measure(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        assert cfg.ifs.k == 3
        assert cfg.p.is_uniform
        assert cfg.levels == (2, 3, 4)

    def test_inline_ifs(self, tmp_path):
        path = tmp_path / "inline.ini"
        path.write_text(
            """
[ifs]
dimension = 1
maps = 2
map1 = ratio=0.5 translation=0.0
map2 = ratio=0.5 translation=0.5
"""
        )
        cfg = parse_config(path)
        assert cfg.ifs.k == 2
        assert cfg.ifs.dimension == 1
        assert cfg.ifs_label == "inline"

    def test_natural_measure_uses_similarity_dimension(self, tmp_path):
        # ratios 1/2 and 1/4: 2^-s + 4^-s = 1 gives p = (g, g^2), g the
        # inverse golden ratio
        path = tmp_path / "unequal.ini"
        path.write_text(
            """
[ifs]
dimension = 1
maps = 2
map1 = ratio=0.5 translation=0.0
map2 = ratio=0.25 translation=0.75
[measure]
p = natural
"""
        )
        g = (5**0.5 - 1) / 2
        np.testing.assert_allclose(parse_config(path).p.as_array(), [g, g * g],
                                   rtol=1e-12)

    def test_natural_measure_is_uniform_for_equal_ratios(self, tmp_path):
        for name in ("sg", "sg3", "pentagasket", "cantor"):
            cfg = parse_config(write_config(tmp_path), preset_override=name)
            assert cfg.p.as_array().tolist() == [1.0 / cfg.ifs.k] * cfg.ifs.k

    def test_missing_file_is_config_error(self, tmp_path):
        from fractalips import ConfigError

        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.ini")

    def test_preset_override(self, tmp_path):
        cfg = parse_config(write_config(tmp_path), preset_override="interval-2")
        assert cfg.ifs.k == 2
        assert cfg.ifs.dimension == 1

    def test_every_declared_key_is_read(self, tmp_path):
        path = tmp_path / "all.ini"
        path.write_text(
            """
[experiment]
output_dir = elsewhere
[ifs]
preset = cantor
[function]
name = gauss
[kernel]
name = constant
value = 0.5
[model]
name = kuramoto_inertia
coupling_strength = 2.5
damping = 0.25
omega = zero
omega_scale = 3.0
[levels]
levels = 3,5
ell_levels = 1,2
sublevel = 1
[time]
T = 2.0
dt = 0.5
output_stride = 3
[quadrature]
level = 7
samples = 123
tail = 11
[graph]
kind = bernoulli
symmetric = no
[modulus]
p = 1.5
max_ell = 6
[seeds]
seeds = 4,5
"""
        )
        cfg = parse_config(path)
        assert (cfg.function_name, cfg.kernel_name, cfg.kernel_value) == (
            "gauss", "constant", 0.5)
        assert (cfg.model_name, cfg.coupling_strength, cfg.damping,
                cfg.omega_mode, cfg.omega_scale) == (
            "kuramoto_inertia", 2.5, 0.25, "zero", 3.0)
        assert (cfg.levels, cfg.ell_levels, cfg.sublevel) == ((3, 5), (1, 2), 1)
        assert (cfg.T, cfg.dt, cfg.output_stride) == (2.0, 0.5, 3)
        assert (cfg.quad_level, cfg.quad_samples, cfg.quad_tail) == (7, 123, 11)
        assert (cfg.graph_kind, cfg.graph_symmetric) == ("bernoulli", False)
        assert (cfg.modulus_p, cfg.modulus_max_ell) == (1.5, 6)
        assert (cfg.seeds, cfg.output_dir) == ((4, 5), "elsewhere")
        assert validate(cfg, "simulate") == []

    def test_absent_keys_take_the_defaults(self, tmp_path):
        path = tmp_path / "bare.ini"
        path.write_text("[ifs]\npreset = sg\n")
        cfg = parse_config(path)
        assert (cfg.function_name, cfg.kernel_name, cfg.kernel_value) == (
            "expdiff", "expdist", 1.0)
        assert (cfg.levels, cfg.ell_levels, cfg.sublevel) == ((2, 3, 4, 5), (2, 3, 4), 2)
        assert (cfg.T, cfg.dt, cfg.output_stride, cfg.seeds) == (1.0, 1e-3, 10, (1,))
        assert (cfg.graph_symmetric, cfg.modulus_p, cfg.output_dir) == (True, 2.0, "out")

    @pytest.mark.parametrize("line", ["output_stride = ten", "T = soon"])
    def test_bad_value_is_config_error(self, tmp_path, line):
        path = tmp_path / "bad.ini"
        path.write_text(f"[ifs]\npreset = sg\n[time]\n{line}\n")
        with pytest.raises(ConfigError, match="bad numeric value"):
            parse_config(path)

    def test_bad_boolean_is_config_error(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[ifs]\npreset = sg\n[graph]\nsymmetric = maybe\n")
        with pytest.raises(ConfigError, match="Not a boolean: maybe"):
            parse_config(path)

    @pytest.mark.parametrize(
        "line", ["ratio=abc translation=0.0", "ratio=0.5 translation=0.0 junk",
                 "ratio=0.5 matrix=0.5,0,0 translation=0.0"]
    )
    def test_bad_map_line_is_config_error(self, tmp_path, line):
        path = tmp_path / "bad.ini"
        path.write_text(
            f"[ifs]\ndimension = 1\nmaps = 2\nmap1 = {line}\n"
            "map2 = ratio=0.5 translation=0.5\n"
        )
        with pytest.raises(ConfigError, match="map definition"):
            parse_config(path)
        assert main(["validate", "--config", str(path)]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_translation_is_refused(self, tmp_path, capsys, value):
        path = tmp_path / "bad.ini"
        path.write_text(
            f"[experiment]\noutput_dir = {tmp_path / 'out'}\n"
            "[ifs]\ndimension = 2\nmaps = 2\n"
            "map1 = ratio=0.5 translation=0.0,0.0\n"
            f"map2 = ratio=0.5 translation={value},0.0\n"
            "[levels]\nlevels = 2,3,4\n"
        )
        for subcommand in ("validate", "simulate"):
            assert main([subcommand, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert f"translation={value},0.0" in err and "must be finite" in err

    def test_matrix_map_lines_equal_the_homothety_form(self, tmp_path):
        # sg's maps written inline, as homotheties or with their matrix
        maps = ("dimension = 2\nmaps = 3\n"
                "map1 = ratio=0.5 {matrix}translation=0.0,0.0\n"
                "map2 = ratio=0.5 {matrix}translation=0.25,0.4330127018922193\n"
                "map3 = ratio=0.5 {matrix}translation=0.5,0.0")
        runs = {}
        for name, matrix in (("homothety", ""), ("matrix", "matrix=0.5,0,0,0.5 ")):
            cfgp = write_config(tmp_path, name=f"{name}.ini", out=name, levels="2,3")
            text = Path(cfgp).read_text()
            Path(cfgp).write_text(text.replace("preset = sg", maps.format(matrix=matrix)))
            assert main(["simulate", "--config", cfgp]) == 0
            runs[name] = {}
            for path in sorted((tmp_path / name).iterdir()):
                data = path.read_bytes()
                if path.suffix == ".json":  # the config text differs, so its hash does
                    data = json.loads(data)
                    data.pop("config_hash"), data.pop("wall_time_s", None)
                runs[name][path.name] = data
        assert len(runs["matrix"]) == 5  # two levels, a CSV and a sidecar each
        assert runs["matrix"] == runs["homothety"]

    def test_lone_percent_is_config_error(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\noutput_dir = out100%\n[ifs]\npreset = sg\n")
        with pytest.raises(ConfigError, match="malformed config"):
            parse_config(path)
        assert main(["validate", "--config", str(path)]) == 2

    def test_hash_tracks_semantic_fields_only(self, tmp_path):
        a = parse_config(write_config(tmp_path, name="a.ini", out="out_a"))
        b = parse_config(write_config(tmp_path, name="b.ini", out="out_b"))
        c = parse_config(write_config(tmp_path, name="c.ini", levels="2,3,4,5"))
        assert a.config_hash() == b.config_hash()  # output dir is not semantic
        assert a.config_hash() != c.config_hash()


class TestValidate:
    def test_clean_config(self, tmp_path):
        assert validate(parse_config(write_config(tmp_path))) == []

    def test_unknown_key_reported(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, model_extra="wibble = 3"))
        diags = validate(cfg)
        assert any("wibble" in d for d in diags)

    def test_quadrature_method_is_an_unknown_key(self, tmp_path):
        cfgp = write_config(tmp_path)
        text = Path(cfgp).read_text().replace("level = 6", "method = qmc\nlevel = 6")
        Path(cfgp).write_text(text)
        assert "unknown key quadrature.method" in validate(parse_config(cfgp))
        assert main(["integrate", "--config", cfgp]) == 2

    @pytest.mark.parametrize("stride", ["0", "-2"])
    def test_output_stride_below_one_reported(self, tmp_path, stride):
        cfgp = write_config(tmp_path)
        text = Path(cfgp).read_text().replace("output_stride = 5",
                                              f"output_stride = {stride}")
        Path(cfgp).write_text(text)
        assert any("output_stride" in d for d in validate(parse_config(cfgp)))
        assert main(["simulate", "--config", cfgp]) == 2

    def test_omega_must_be_field_or_zero(self, tmp_path):
        cfgp = write_config(tmp_path)
        text = Path(cfgp).read_text().replace("omega = field", "omega = feild")
        Path(cfgp).write_text(text)
        assert any("'feild'" in d for d in validate(parse_config(cfgp)))
        assert main(["simulate", "--config", cfgp]) == 2
        Path(cfgp).write_text(text.replace("omega = feild", "omega = zero"))
        assert validate(parse_config(cfgp)) == []

    def test_rate_runs_the_configured_model(self, tmp_path):
        cfgp = write_config(tmp_path)
        text = Path(cfgp).read_text().replace("name = kuramoto", "name = consensus")
        Path(cfgp).write_text(text)
        cfg = parse_config(cfgp)
        assert validate(cfg, "rate") == []
        assert validate(cfg) == []
        assert main(["rate", "--config", cfgp]) == 0

    @pytest.mark.parametrize("model, code", [("kuramoto_inertia", 2), ("consensus", 0)])
    def test_vlasov_refuses_non_scalar_models_only(self, tmp_path, model, code):
        cfgp = write_config(tmp_path)
        text = Path(cfgp).read_text().replace("name = kuramoto", f"name = {model}")
        Path(cfgp).write_text(text)
        cfg = parse_config(cfgp)
        refused = any("scalar states only" in d for d in validate(cfg, "vlasov"))
        assert refused == bool(code)
        assert validate(cfg, "simulate") == []
        assert main(["vlasov", "--config", cfgp]) == code
        if not code:
            lines = (tmp_path / "out" / "vlasov_summary.csv").read_text().splitlines()
            assert lines[0] == "ell_coarse,ell_fine,median_max_distance"
            assert np.isfinite(float(lines[1].split(",")[2]))

    @pytest.mark.parametrize("subcommand, levels, edit, diagnostic", [
        ("simulate", "2,3", ("sublevel = 2", "sublevel = -1"),
         "levels.sublevel must be >= 0, not -1"),
        ("simulate", "-1,2", None, "levels.levels must be >= 0, not -1"),
        ("simulate", "2,3", ("seeds = 1,2", "seeds = -1,2"),
         "seeds.seeds must be >= 0, not -1"),
        ("integrate", "2,3", ("samples = 5000", "samples = 0"),
         "quadrature.samples must be >= 1, not 0"),
        ("integrate", "2,3", ("tail = 30", "tail = 0"),
         "quadrature.tail must be >= 1, not 0"),
        ("integrate", "2,3", ("level = 6", "level = -1"),
         "quadrature.level must be >= 0, not -1"),
        ("modulus", "2,3,4", ("[graph]", "[modulus]\np = 0\n[graph]"),
         "modulus.p must be > 0, not 0.0"),
        ("vlasov", "2", ("ell_levels = 1,2", "ell_levels = 0,1"),
         "levels.ell_levels must be >= 1, not 0"),
        ("rate", "0,1,2", None, "it fits levels [2]"),
        ("rate", "2,2,2", None, "it fits levels [2]"),
        ("project", "0,1,2", None, "it fits levels [2]"),
        ("project", "2,3,4", ("name = expdiff", "name = one"),
         "zero for the constant function 'one'"),
        ("modulus", "2,3,4", ("name = expdiff", "name = one"),
         "zero for the constant function 'one'"),
        ("simulate", "2,3", ("name = expdist\nvalue = 1.0", "name = constant\nvalue = nan"),
         "kernel.value must be finite, not nan"),
        ("modulus", "2,3,4", ("[graph]", "[modulus]\np = inf\n[graph]"),
         "modulus.p must be finite, not inf"),
        ("simulate", "2,3", ("T = 0.1", "T = inf"), "the time grid needs"),
        ("rate", "2,3,4", ("kind = deterministic", "kind = bernoulli"),
         "rate mode integrates the deterministic graph only"),
        ("vlasov", "2", ("kind = deterministic", "kind = bernoulli"),
         "vlasov mode integrates the deterministic graph only"),
        ("transfer", "2,3,7", None, "transfer mode writes levels up to 6, not 7"),
    ])
    def test_run_that_would_fail_exits_two(self, tmp_path, capsys, subcommand,
                                           levels, edit, diagnostic):
        # run past validate, each of these ends in a traceback (exit 1) or
        # computes something else: for levels 2,2,2 it fits a rate to one
        # level, for modulus.p = inf it fits omega_p = 1 at every level,
        # rate and vlasov run the deterministic graph on a Bernoulli config,
        # and transfer writes level 6 for level 7
        cfgp = write_config(tmp_path, levels=levels)
        if edit:
            text = Path(cfgp).read_text()
            assert edit[0] in text
            Path(cfgp).write_text(text.replace(edit[0], edit[1]))
        assert any(diagnostic in d for d in validate(parse_config(cfgp), subcommand))
        assert main([subcommand, "--config", cfgp]) == 2
        assert diagnostic in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("subcommand, edit, diagnostic", [
        ("simulate", ("levels = 2,3,4", "levels = 2,2,3"),
         "levels.levels repeats a value: 2,2,3"),
        ("vlasov", ("ell_levels = 1,2", "ell_levels = 1,1,2"),
         "levels.ell_levels repeats a value: 1,1,2"),
        ("vlasov", ("seeds = 1,2", "seeds = 3,3"), "seeds.seeds repeats a value: 3,3"),
    ])
    def test_repeated_value_is_refused(self, tmp_path, capsys, subcommand, edit, diagnostic):
        # run past validate, simulate integrates level 2 twice and lists its
        # files twice in the manifest; vlasov writes a (1, 1) pair of zero
        # distances, or one row per seed twice
        self.assert_refused(tmp_path, capsys, subcommand, edit, diagnostic)

    @staticmethod
    def assert_refused(tmp_path, capsys, subcommand, edit, diagnostic):
        """With ``edit`` made to the config, the run exits 2 with the
        diagnostic and makes no output directory, and ``fractalips validate``
        prints the diagnostic."""
        cfgp = write_config(tmp_path)
        text = Path(cfgp).read_text()
        assert text.count(edit[0]) == 1
        Path(cfgp).write_text(text.replace(edit[0], edit[1]))
        assert main([subcommand, "--config", cfgp]) == 2
        assert f"error: {diagnostic}" in capsys.readouterr().err.splitlines()
        assert not (tmp_path / "out").exists()
        assert main(["validate", "--config", cfgp]) == 0
        assert diagnostic in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("subcommand, edit, diagnostic", [
        ("integrate", ("[seeds]", "[wibble]\nx = 1\n[seeds]"), "unknown section [wibble]"),
        ("project", ("name = expdiff", "name = cubic"), "unknown test function 'cubic'"),
        ("simulate", ("name = expdist", "name = linear"), "unknown kernel 'linear'"),
        ("simulate", ("kind = deterministic", "kind = lattice"),
         "unknown graph kind 'lattice'"),
        ("simulate", ("name = kuramoto", "name = voter"), "unknown model 'voter'"),
        ("vlasov", ("ell_levels = 1,2", "ell_levels = 2"),
         "vlasov mode needs at least 2 refinement levels"),
    ])
    def test_unknown_name_or_one_ell_level_is_refused(self, tmp_path, capsys, subcommand,
                                                      edit, diagnostic):
        self.assert_refused(tmp_path, capsys, subcommand, edit, diagnostic)

    @pytest.mark.parametrize("subcommand, levels, p, function", [
        ("modulus", "0,1,2", "natural", "expdiff"),  # the modulus fit keeps 0, 1
        ("project", "2,3,4", "0.6,0.2,0.2", "one"),  # skewed p: no modulus fit
        ("project", "2,3", "0.6,0.2,0.2", "expdiff"),  # and no rate to fit
    ])
    def test_runs_next_to_those_refused_stay_valid(self, tmp_path, subcommand, levels,
                                                   p, function):
        cfgp = write_config(tmp_path, levels=levels)
        text = Path(cfgp).read_text().replace("p = natural", f"p = {p}")
        Path(cfgp).write_text(text.replace("name = expdiff", f"name = {function}"))
        assert validate(parse_config(cfgp), subcommand) == []

    @pytest.mark.parametrize("edit, subcommands", [
        (("levels = 2,3,4", "levels = 0,1,2"), ("rate", "project")),
        (("name = expdiff", "name = one"), ("project", "modulus")),
        (("preset = sg", "dimension = 2\nmaps = 2\n"
          "map1 = ratio=0.5 translation=0.0,0.0 angle=0.5\n"
          "map2 = ratio=0.5 translation=0.5,0.0"), ("modulus",)),
        (("name = kuramoto", "name = consensus"), ()),
        (("name = kuramoto", "name = kuramoto_inertia"), ("vlasov",)),
        (("kind = deterministic", "kind = bernoulli"), ("rate", "vlasov")),
    ])
    def test_validate_reports_every_refusal(self, tmp_path, capsys, edit, subcommands):
        # without a subcommand, validate prints each message that a run
        # refusing the config prints, and "config ok" when no run refuses it
        cfgp = write_config(tmp_path)
        text = Path(cfgp).read_text()
        assert text.count(edit[0]) == 1
        Path(cfgp).write_text(text.replace(edit[0], edit[1]))
        assert main(["validate", "--config", cfgp]) == 0
        report = capsys.readouterr().out.splitlines()
        assert ("config ok" in report) == (not subcommands)
        for subcommand in subcommands:
            assert main([subcommand, "--config", cfgp]) == 2
            refusals = capsys.readouterr().err.splitlines()
            assert refusals
            for line in refusals:
                assert line.removeprefix("error: ") in report

    def test_cap_violation(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, levels="2,3,20"))
        assert any("cap" in d for d in validate(cfg))

    def test_modulus_needs_common_linear_part(self, tmp_path):
        path = tmp_path / "rot.ini"
        path.write_text(
            """
[ifs]
dimension = 2
maps = 2
map1 = ratio=0.5 translation=0.0,0.0 angle=0.5
map2 = ratio=0.5 translation=0.5,0.0
[levels]
levels = 2,3,4
"""
        )
        cfg = parse_config(path)
        diags = validate(cfg, "modulus")
        assert any("common linear part" in d for d in diags)

    def test_horizon_not_multiple_of_step_reported(self, tmp_path):
        cfgp = write_config(tmp_path)
        text = Path(cfgp).read_text().replace("dt = 0.01", "dt = 0.03")
        Path(cfgp).write_text(text)
        assert any("whole multiple" in d for d in validate(parse_config(cfgp)))
        assert main(["simulate", "--config", cfgp]) == 2

    @pytest.mark.parametrize("edit", [("T = 0.1", "T = inf"), ("dt = 0.01", "dt = nan")])
    def test_time_grid_reported_once(self, tmp_path, edit):
        # step_count owns T and dt: the finite-float rule leaves them alone
        cfgp = write_config(tmp_path)
        Path(cfgp).write_text(Path(cfgp).read_text().replace(*edit))
        (diag,) = validate(parse_config(cfgp))
        assert diag.startswith("the time grid needs")

    def test_bernoulli_unit_constant_with_skewed_p(self, tmp_path):
        # the projected unit kernel may round a few ulps past 1; sampling
        # must still accept it
        cfgp = write_config(tmp_path, levels="3", graph="bernoulli",
                            kernel="constant", kernel_value="1.0")
        text = Path(cfgp).read_text().replace("p = natural", "p = 0.6,0.2,0.2")
        Path(cfgp).write_text(text)
        assert main(["simulate", "--config", cfgp]) == 0
        assert (tmp_path / "out" / "trajectory_m3_seed2.csv").exists()

    def test_bernoulli_kernel_range_diagnostic(self, tmp_path):
        cfg = parse_config(
            write_config(tmp_path, graph="bernoulli", kernel="constant",
                         kernel_value="3.0")
        )
        assert any("[0, 1]" in d for d in validate(cfg))


class TestRunSubcommands:
    def test_integrate_total_mass_exact(self, tmp_path):
        cfgp = write_config(tmp_path)
        assert main(["integrate", "--config", cfgp]) == 0
        lines = (tmp_path / "out" / "integrate.csv").read_text().splitlines()
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert row["quantity"] == "total_mass"
        assert row["value"] == "1"

    def test_project_below_max_ell_runs(self, tmp_path):
        # modulus.max_ell below the top level is raised to it, as modulus does
        cfgp = write_config(tmp_path)
        text = Path(cfgp).read_text().replace("[graph]", "[modulus]\nmax_ell = 3\n[graph]")
        Path(cfgp).write_text(text)
        assert main(["project", "--config", cfgp]) == 0
        assert (tmp_path / "out" / "projection.csv").exists()

    def test_project_without_a_modulus_fit_runs_on_two_levels(self, tmp_path):
        # a skewed p fits no modulus, so the bound and fitted_alpha stay empty
        cfgp = write_config(tmp_path, levels="2,3")
        Path(cfgp).write_text(Path(cfgp).read_text().replace("p = natural", "p = 0.6,0.2,0.2"))
        assert main(["project", "--config", cfgp]) == 0
        lines = (tmp_path / "out" / "projection.csv").read_text().splitlines()
        assert lines[0] == "level,p,error,bound,fitted_alpha"
        assert [line.split(",")[:2] + line.split(",")[3:] for line in lines[1:]] == [
            ["2", "2", "", ""], ["3", "2", "", ""]]
        assert all(float(line.split(",")[2]) > 0 for line in lines[1:])

    def test_transfer_writes_the_step_function_and_the_graphon(self, tmp_path):
        cfgp = write_config(tmp_path)
        assert main(["transfer", "--config", cfgp]) == 0
        out = tmp_path / "out"
        cfg = parse_config(cfgp)
        meas = cfg.measure()
        # the top level, 4, for the field; the graphon at level min(4, 4)
        step = transfer_to_interval(martingale_level(meas, cfg.test_function(), 4, 2), cfg.p)
        img = kernel_to_graphon(project_kernel(meas, cfg.kernel(), 4, 2), cfg.p)

        def table(name):
            lines = (out / name).read_text().splitlines()
            return lines[0], np.array([[float(v) for v in line.split(",")]
                                       for line in lines[1:]])

        header, rows = table("transfer_step.csv")
        assert header == "cell_index,left,right,width,value"
        np.testing.assert_array_equal(rows, np.column_stack([
            np.arange(step.n_cells), step.breakpoints[:-1], step.breakpoints[1:],
            step.widths, step.values[:, 0]]))
        header, rows = table("graphon_pixels.csv")
        assert header == "row,col,value"
        n_rows, n_cols = img.values.shape
        grid = np.indices((n_rows, n_cols)).reshape(2, -1)
        np.testing.assert_array_equal(rows, np.column_stack([*grid, img.values.ravel()]))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["graphon_pixels.csv", "transfer_step.csv"]

    def test_validate_subcommand_exit_zero(self, tmp_path, capsys):
        cfgp = write_config(tmp_path)
        assert all(validate(parse_config(cfgp), s) == [] for s in SUBCOMMANDS)
        assert main(["validate", "--config", cfgp]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_invalid_config_exit_two(self, tmp_path):
        cfgp = write_config(tmp_path, levels="2,3,20")
        assert main(["project", "--config", cfgp]) == 2

    def test_missing_config_exit_two(self, tmp_path):
        assert main(["integrate", "--config", str(tmp_path / "no.ini")]) == 2

    def test_rate_csv_schema(self, tmp_path):
        cfgp = write_config(tmp_path)
        assert main(["rate", "--config", cfgp]) == 0
        lines = (tmp_path / "out" / "rate.csv").read_text().splitlines()
        assert lines[0] == "level,error,bound,fitted_alpha"
        errs = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(e > 0 for e in errs)
        alphas = {l.split(",")[3] for l in lines[1:]}
        assert len(alphas) == 1

    @pytest.mark.parametrize("subcommand", ["rate", "simulate", "vlasov"])
    def test_subcommands_read_the_frequency_settings(self, tmp_path, subcommand):
        # omega = zero and omega_scale = 0 both make the frequencies exactly
        # zero; a strong frequency field over a longer horizon gives other
        # tables (for rate at scale 1, or up to T = 0.1, the largest error is
        # the one at t = 0, which the frequencies do not touch).  The CSVs
        # are compared: the JSON artifacts also carry the config hash
        base = Path(write_config(tmp_path, model_extra="omega_scale = 5")).read_text()
        base = base.replace("T = 0.1", "T = 1.0")

        def tables(name, text):
            path = tmp_path / f"{name}.ini"
            path.write_text(text)
            out = tmp_path / name
            assert main([subcommand, "--config", str(path), "--output", str(out)]) == 0
            return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}

        field = tables("field", base)
        zero = tables("zero", base.replace("omega = field", "omega = zero"))
        unscaled = tables("unscaled", base.replace("omega_scale = 5", "omega_scale = 0"))
        assert zero and zero == unscaled
        assert zero.keys() == field.keys() and zero != field

    @pytest.mark.parametrize("pipeline", ["simulate", "rate", "vlasov", "bernoulli"])
    def test_each_pipeline_builds_its_data_in_one_call(self, tmp_path, monkeypatch,
                                                       pipeline):
        calls, original = [], fractalips.experiments.level_data

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(fractalips.experiments, "level_data", counting)
        monkeypatch.setattr(fractalips.cli, "level_data", counting)
        cfgp = write_config(tmp_path)
        if pipeline == "bernoulli":
            bernoulli_gap_medians(parse_config(cfgp).measure(), builtin_kernels(2)["expdist"],
                                  [2, 3], (1, 2), T=0.1, dt=1e-2, output_stride=5)
        else:
            assert main([pipeline, "--config", cfgp]) == 0
        assert len(calls) == 1

    def test_rate_runs_a_model_with_two_state_components(self, tmp_path):
        cfgp = write_config(tmp_path)
        text = Path(cfgp).read_text()
        Path(cfgp).write_text(text.replace("name = kuramoto", "name = kuramoto_inertia"))
        assert main(["rate", "--config", cfgp]) == 0
        lines = (tmp_path / "out" / "rate.csv").read_text().splitlines()
        assert lines[0] == "level,error,bound,fitted_alpha"
        assert [int(line.split(",")[0]) for line in lines[1:]] == [2, 3, 4]
        assert all(float(line.split(",")[1]) > 0 for line in lines[1:])

    def test_simulate_trajectory_schema_and_sidecar(self, tmp_path):
        cfgp = write_config(tmp_path, levels="2")
        assert main(["simulate", "--config", cfgp]) == 0
        out = tmp_path / "out"
        csvp = out / "trajectory_m2.csv"
        assert csvp.exists()
        lines = csvp.read_text().splitlines()
        assert lines[0] == "t,cell_index,component,value"
        meta = json.loads((out / "trajectory_m2.meta.json").read_text())
        assert meta == self.sidecar(cfgp, "deterministic", None)

    @staticmethod
    def sidecar(cfgp, coupling, seed):
        """The .meta.json a level-2 run of ``write_config``'s model writes."""
        return {"model": "kuramoto", "level": 2, "k": 3, "dt": 0.01, "T": 0.1,
                "output_stride": 5, "coupling": coupling, "seed": seed,
                "config_hash": parse_config(cfgp).config_hash()}

    def test_simulate_bernoulli_writes_per_seed(self, tmp_path):
        cfgp = write_config(tmp_path, levels="2", graph="bernoulli")
        assert main(["simulate", "--config", cfgp]) == 0
        out = tmp_path / "out"
        for seed in (1, 2):
            assert (out / f"trajectory_m2_seed{seed}.csv").exists()
            meta = json.loads((out / f"trajectory_m2_seed{seed}.meta.json").read_text())
            assert meta == self.sidecar(cfgp, "bernoulli", seed)

    def test_consensus_honours_coupling_strength(self, tmp_path):
        csvs = {}
        for strength in ("1.0", "3.0"):
            cfgp = write_config(tmp_path, name=f"k{strength}.ini", out=strength, levels="2")
            text = Path(cfgp).read_text().replace("name = kuramoto", "name = consensus")
            Path(cfgp).write_text(text.replace("coupling_strength = 1.0",
                                               f"coupling_strength = {strength}"))
            assert main(["simulate", "--config", cfgp]) == 0
            csvs[strength] = (tmp_path / strength / "trajectory_m2.csv").read_bytes()
        assert csvs["1.0"] != csvs["3.0"]

    @pytest.mark.parametrize("model, omega, projected", [
        ("kuramoto", "field", True),
        ("kuramoto", "zero", False),
        ("kuramoto_inertia", "field", True),
        ("consensus", "field", False),  # it has no params to hold frequencies
    ])
    def test_levels_share_the_one_model(self, tmp_path, model, omega, projected):
        cfgp = write_config(tmp_path)
        text = Path(cfgp).read_text().replace("name = kuramoto", f"name = {model}")
        Path(cfgp).write_text(text.replace("omega = field", f"omega = {omega}"))
        cfg = parse_config(cfgp)
        one = cfg.model()
        omega_fn, _ = kuramoto_fields(cfg.seeds[0], 2, cfg.omega_scale)
        level_model, _ = level_data(cfg.measure(), one, cfg.seeds[0], cfg.omega_amplitude(),
                                    cfg.sublevel)
        for m in (2, 3):
            at_m = level_model(m)
            assert (at_m is one) != projected
            assert (at_m.drift, at_m.coupling_term) == (one.drift, one.coupling_term)
            if projected:
                np.testing.assert_array_equal(
                    at_m.params, martingale_level(cfg.measure(), omega_fn, m, 2).values)

    def test_zero_frequency_field_is_not_projected(self, tmp_path, monkeypatch):
        # simulate on sg levels 2 and 3 projects the initial phases at each
        # level, and the frequencies only when their amplitude is not 0
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return martingale_level(*args, **kwargs)

        monkeypatch.setattr(fractalips.experiments, "martingale_level", counting)
        for scale, levels in (("1.0", [2, 3, 2, 3]), ("0", [2, 3])):
            calls.clear()
            cfgp = write_config(tmp_path, levels="2,3", model_extra=f"omega_scale = {scale}")
            assert main(["simulate", "--config", cfgp]) == 0
            assert sorted(calls) == sorted(levels)

    def test_vlasov_outputs(self, tmp_path):
        cfgp = write_config(tmp_path)
        assert main(["vlasov", "--config", cfgp]) == 0
        out = tmp_path / "out"
        assert (out / "vlasov.csv").exists()
        summary = (out / "vlasov_summary.csv").read_text().splitlines()
        assert summary[0] == "ell_coarse,ell_fine,median_max_distance"

    def test_modulus_reports_both_scalings(self, tmp_path):
        cfgp = write_config(tmp_path)
        assert main(["modulus", "--config", cfgp]) == 0
        out = tmp_path / "out"
        lines = (out / "modulus.csv").read_text().splitlines()
        assert lines[0] == "level,omega_p,omega_p_shifted,fitted_alpha"
        rep = json.loads((out / "modulus.json").read_text())
        assert "tau_scalings" in rep

    def test_manifest_contents(self, tmp_path):
        cfgp = write_config(tmp_path)
        assert main(["project", "--config", cfgp]) == 0
        man = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert man["subcommand"] == "project"
        assert man["outputs"] == ["projection.csv"]
        assert man["seeds"] == [1, 2]
        assert "wall_time_s" in man

    def test_budget_exceeded_exit_three(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRACTALIPS_MAX_EVALS", "100")
        cfgp = write_config(tmp_path)
        assert main(["project", "--config", cfgp]) == 3

    def test_refused_simulate_writes_no_trajectory(self, tmp_path, monkeypatch):
        # maps that share no linear part: level 2 makes 81^2 kernel
        # evaluations, level 5 2187^2, over the budget
        monkeypatch.setenv("FRACTALIPS_MAX_EVALS", "1000000")
        cfgp = write_config(tmp_path, levels="2,5", graph="bernoulli")
        text = Path(cfgp).read_text().replace("preset = sg", "\n".join([
            "dimension = 2", "maps = 3",
            "map1 = ratio=0.5 angle=3.141592653589793 translation=0.5,0.4330127018922193",
            "map2 = ratio=0.5 translation=0.5,0.0",
            "map3 = ratio=0.5 translation=0.25,0.4330127018922193"]))
        Path(cfgp).write_text(text)
        assert main(["simulate", "--config", cfgp]) == 3
        assert not list((tmp_path / "out").glob("trajectory_*"))

    def test_numerical_abort_exit_four(self, tmp_path, capsys):
        # anti-damping: the velocities grow by a factor of about 1e298 a step
        cfgp = write_config(tmp_path, levels="2", model_extra="damping = -1e300")
        text = Path(cfgp).read_text()
        Path(cfgp).write_text(text.replace("name = kuramoto", "name = kuramoto_inertia"))
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["simulate", "--config", cfgp]) == 4
        assert capsys.readouterr().err.startswith("error: non-finite state after step")

    def test_numerical_abort_in_a_union_names_its_levels(self, tmp_path, capsys):
        # levels 2-4 run as one union of 9 + 27 + 81 cells, which the strong
        # coupling drives out of the finite range
        cfgp = write_config(tmp_path, model_extra="")
        text = Path(cfgp).read_text().replace("T = 0.1", "T = 1.0")
        Path(cfgp).write_text(text.replace("name = kuramoto", "name = consensus").replace(
            "coupling_strength = 1.0", "coupling_strength = 1e6"))
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["simulate", "--config", cfgp]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite state after step")
        assert "of 117 cells), the union of levels 2 (9 cells), 3 (27 cells), 4 (81 cells)" in err

    def test_output_path_is_a_file_exit_five(self, tmp_path, capsys):
        cfgp = write_config(tmp_path)
        (tmp_path / "taken").write_text("")
        assert main(["integrate", "--config", cfgp, "--output",
                     str(tmp_path / "taken")]) == 5
        assert capsys.readouterr().err.startswith("error: [Errno")


class TestWriteCsv:
    def test_columns_match_the_row_writer(self, tmp_path):
        # awkward floats: signed zero, subnormal, huge, non-finite, 17 digits
        # each float field reads as format(x, ".17g") and each integer as str;
        # the text column is one value broadcast to every line
        values = np.array([[0.1, -0.0, 5e-324, 1.7976931348623157e308],
                           [np.nan, -np.inf, 1.0 / 3.0, 2.0]])
        times = np.array([0.0, 1e-3 * 3])
        ti, ci = np.indices(values.shape)
        rows = "".join(
            f"run,{format(times[i], '.17g')},{j},{format(values[i, j], '.17g')}\r\n"
            for i in range(2) for j in range(4)
        )
        write_csv(tmp_path / "cols.csv", ("name", "t", "cell", "value"),
                  _columns("%s,%.17g,%d,%.17g", "run", times[ti], ci, values))
        assert (tmp_path / "cols.csv").read_bytes() == (
            "name,t,cell,value\r\n" + rows).encode()

        # the CLI's templates on broadcastable columns, against every column
        # materialized at the full shape and one %-template per line
        def materialized(template, *columns):
            values = (c.ravel().tolist() for c in np.broadcast_arrays(*columns))
            return [(template + "\r\n") % row for row in zip(*values)]

        cube = np.concatenate([values, -values[:, ::-1]]).reshape(2, 2, 4)
        pairs = np.array([[1, 2], [2, 3]])
        cases = {
            "trajectory": ("%.17g,%d,%d,%.17g", times[:, None, None],
                           np.arange(2)[:, None], np.arange(4), cube),
            "vlasov": ("%d,%d,%d,%.17g,%.17g", np.array([7, 9])[:, None, None],
                       pairs[:, :1], pairs[:, 1:], np.arange(4) * 0.1, cube),
            "graphon": ("%d,%d,%.17g", np.arange(2)[:, None], np.arange(4), values),
            "projection": ("%d,%.17g,%.17g,,", [2, 3, 4], 2.0, values[1, 1:]),
            "integrate": ("%s,%s,%d,%.17g,%.17g,%.17g",
                          ("total_mass", "barycenter"), ("qmc", "mc"), (0, 1),
                          values[0, :2], 1.0, values[1, 2:]),
            "scalar": ("%d,%.17g", 3, 0.1),
        }
        for name, (template, *columns) in cases.items():
            # a sized iterable, which yields its lines again on every pass
            lines = _columns(template, *columns)
            assert len(lines) == np.broadcast(*columns).size, name
            assert list(lines) == materialized(template, *columns), name
            assert list(lines) == materialized(template, *columns), name

    def test_trajectory_builds_no_full_size_index_columns(self, tmp_path):
        # level-5 and level-6 trajectories on sg: 101 times x 243 or 729
        # cells, 24,543 or 73,629 lines.  Held as one list, the lines took
        # the write's peak to 2.5 and 7.3 MiB; streamed, it stays near
        # 0.2 MiB at both levels, with no full-size column or list of lines
        cfg = parse_config(write_config(tmp_path))
        model = fractalips.builtin_models()["kuramoto"](1.0, 1.0, 0.0)
        for level in (5, 6):
            rng = np.random.Generator(np.random.Philox(5))
            traj = Trajectory(3, level, np.linspace(0.0, 1.0, 101),
                              rng.uniform(-1.0, 1.0, (101, 3**level, 1)))
            tracemalloc.start()
            try:
                _write_trajectory(tmp_path, "traj", traj, model, None, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**19, level
            lines = (tmp_path / "traj.csv").read_bytes().splitlines()
            assert len(lines) == 1 + traj.values.size, level


class TestDeterminism:
    def _data_bytes(self, directory: Path) -> dict:
        out = {}
        for p in sorted(directory.iterdir()):
            if p.name == "manifest.json":
                man = json.loads(p.read_text())
                man.pop("wall_time_s")
                out[p.name] = json.dumps(man, sort_keys=True)
            else:
                out[p.name] = p.read_bytes()
        return out

    @pytest.mark.parametrize("subcommand", ["integrate", "rate", "simulate", "vlasov"])
    def test_rerun_is_byte_identical(self, tmp_path, subcommand):
        cfgp = write_config(tmp_path, levels="2,3,4",
                            graph="bernoulli" if subcommand == "simulate" else
                            "deterministic")
        assert main([subcommand, "--config", cfgp,
                     "--output", str(tmp_path / "run1")]) == 0
        assert main([subcommand, "--config", cfgp,
                     "--output", str(tmp_path / "run2")]) == 0
        a = self._data_bytes(tmp_path / "run1")
        b = self._data_bytes(tmp_path / "run2")
        assert a == b


def test_import_loads_no_scipy():
    # the package and its CLI start, and solve for a natural measure, on
    # numpy and the stdlib alone
    src = str(Path(fractalips.__file__).resolve().parent.parent)
    code = (
        "import fractalips, fractalips.cli, sys; "
        "from fractalips import IFS, SelfSimilarMeasure, Similitude; "
        "ifs = IFS((Similitude.homothety(0.5, [0.0]), "
        "Similitude.homothety(0.25, [0.75]))); "
        "SelfSimilarMeasure.natural_measure(ifs); "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_pipelines_load_no_numpy_ma(tmp_path):
    # np.median and np.unique without index outputs import numpy.ma (12 ms
    # and 1.25 MB of RSS per process); every subcommand, on sg and on the
    # 1-D cantor preset (whose class table ranks displacements), a
    # Bernoulli simulate and the Bernoulli gap medians run without them
    sg = write_config(tmp_path, levels="2,3,4")
    cantor = tmp_path / "cantor.ini"
    cantor.write_text(Path(sg).read_text().replace("preset = sg", "preset = cantor"))
    runs = [(cfg, sub) for cfg in (str(sg), str(cantor)) for sub in SUBCOMMANDS]
    runs.append((write_config(tmp_path, name="bernoulli.ini", graph="bernoulli"), "simulate"))
    src = str(Path(fractalips.__file__).resolve().parent.parent)
    code = f"""
import sys
from fractalips import SelfSimilarMeasure, builtin_kernels, preset
from fractalips.cli import main
from fractalips.experiments import bernoulli_gap_medians
for i, (cfg, sub) in enumerate({runs!r}):
    assert main([sub, "--config", cfg, "--output", f"{tmp_path}/run{{i}}"]) == 0, (cfg, sub)
bernoulli_gap_medians(SelfSimilarMeasure.uniform(preset("sg")), builtin_kernels(2)["expdist"],
                      [2, 3], [1, 2], T=0.1, dt=0.01)
print("numpy.ma" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


RATE_CONFIG = """
[ifs]
preset = {preset}

[measure]
p = {p}

[levels]
levels = {levels}
sublevel = 1

[time]
T = 1.0
dt = 0.01
output_stride = 10

[seeds]
seeds = 0
"""


@pytest.mark.parametrize("preset, p, levels, alpha", [
    ("sg", "natural", "4,5,6", 0.9859),
    ("cantor", "natural", "7,8,9", 0.9999),
    ("cantor", "0.8,0.2", "7,8,9", 1.0032),
    ("interval-3", "0.5,0.3,0.2", "4,5,6", 0.8985),
    ("pentagasket", "natural", "2,3,4", 0.9625),
])
def test_rate_is_one_on_the_finest_three_levels(tmp_path, preset, p, levels, alpha):
    # the continuum-limit rate of Lipschitz kernels and data is alpha = 1 in
    # the common ratio: rate (expdist, Kuramoto K = 1 with the frequency
    # field, seed 0) fits it on the finest three levels it affords in about
    # half a second each.  Measured alphas are in the parameters; 0.15 is
    # the tolerance.  Left out: skewed sg, still at 0.82 on levels 4-6 and
    # needing level 7 (4 s and more), and sg3, whose levels 2-4 integrate
    # level 5's 7,776 cells (3 s)
    cfg = tmp_path / "rate.ini"
    cfg.write_text(RATE_CONFIG.format(preset=preset, p=p, levels=levels))
    assert main(["rate", "--config", str(cfg), "--output", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "rate.json").read_text())
    assert report["levels"] == [int(m) for m in levels.split(",")]
    assert report["fitted_alpha"] == pytest.approx(alpha, abs=1e-3)
    assert abs(report["fitted_alpha"] - 1.0) <= 0.15
