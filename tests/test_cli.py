"""Config parsing, artifacts, exit codes, and the check/report commands."""

from pathlib import Path

import numpy as np
import pytest

from gaussflow import cli, flow
from gaussflow.errors import ConfigError, NonConvergenceError
from gaussflow.geometry import eigenvalues_many

BASE_CONFIG = """\
# 1D reference run
signature = minkowski
omega = interval 0 1
omega_tilde = interval -0.5 0.5
n = 101
cadence = 2
output_dir = {out}
"""


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """One converged CLI run shared by the artifact tests."""
    base = tmp_path_factory.mktemp("run")
    cfg = base / "run.cfg"
    out = base / "out"
    cfg.write_text(BASE_CONFIG.format(out=out))
    code = cli.main(["run", "--config", str(cfg)])
    return code, out


class TestConfigParsing:
    def test_readme_example_runs(self, tmp_path, monkeypatch, capsys):
        # the README's ini block, as written, parses and converges
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = tmp_path / "readme.cfg"
        cfg.write_text(example)
        monkeypatch.chdir(tmp_path)
        config = cli.parse_config(cfg)
        assert (config.signature, config.grid_spec, config.cadence) == (
            "minkowski", 401, 1)
        assert cli.main(["run", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "converged: C_inf = 1.098605792 after 3 steps" in out
        assert (tmp_path / "out" / "monitors.csv").is_file()

    def test_roundtrip_of_domain_specs(self):
        for text in ("interval 0 1", "ball 0 0 0.5",
                     "ellipse 0 0 6.25 0 16"):
            d = cli.parse_domain_spec(text)
            again = cli.parse_domain_spec(cli.domain_spec_string(d))
            assert d.spec == again.spec
            assert d.spec[0] == text.split()[0]
            assert np.allclose(d.center, again.center)

    def test_parsed_domains_compare_by_value(self):
        d = cli.parse_domain_spec("ball 0 0 0.5")
        assert d == cli.parse_domain_spec("ball 0 0 0.5")
        assert hash(d) == hash(cli.parse_domain_spec("ball 0 0 0.5"))
        assert d != cli.parse_domain_spec("ball 0 0 0.4")
        assert len({d, cli.parse_domain_spec("ball 0 0 0.5"),
                    cli.parse_domain_spec("ball 0 0 0.4")}) == 2

    def test_missing_key(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("signature = minkowski\nomega = interval 0 1\n")
        with pytest.raises(ConfigError, match="omega_tilde"):
            cli.parse_config(cfg)

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(BASE_CONFIG.format(out=tmp_path) + "bogus = 1\n")
        with pytest.raises(ConfigError, match="bogus"):
            cli.parse_config(cfg)

    def test_nonpositive_tolerance(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(BASE_CONFIG.format(out=tmp_path) + "tol_c = -1\n")
        with pytest.raises(ConfigError, match="tol_c"):
            cli.parse_config(cfg)

    def test_dimension_consistency(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(BASE_CONFIG.format(out=tmp_path) + "dimension = 2\n")
        with pytest.raises(ConfigError, match="dimension"):
            cli.parse_config(cfg)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            cli.parse_config(tmp_path / "nope.cfg")

    def test_comment_after_whitespace(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(BASE_CONFIG.format(out=tmp_path).replace(
            "n = 101", "n = 40  # cells\n  # indented comment"))
        assert cli.parse_config(cfg).grid_spec == 40

    def test_hash_inside_a_value_is_not_a_comment(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        out = tmp_path / "out"
        cfg.write_text(BASE_CONFIG.format(out=out).replace("n = 101",
                                                           "n = 40#x"))
        assert cli.main(["run", "--config", str(cfg)]) == 1
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()


GRID_KEYS = {"n", "n_rho", "n_theta"}


class TestStepControlValidation:
    """Bad step controls end in exit 1 before any step is taken."""

    @pytest.mark.parametrize("extra, key", [
        ("tau0 = -0.001", "tau0"),
        ("tau_max = -1", "tau_max"),
        ("tol_newton = nan", "tol_newton"),
        ("tau_min = inf", "tau_min"),
        ("tau_min = 0.5\ntau_max = 0.1", "tau_min"),
        ("tau0 = 2\ntau_max = 1", "tau0"),
        ("max_steps = 0", "max_steps"),
        ("max_newton = 0", "max_newton"),
        ("cadence = 0", "cadence"),
        ("anchor = 5000", "anchor"),
        ("anchor = -3", "anchor"),
        # a line whose key the base config sets replaces that line
        pytest.param("no equals sign", "expected 'key = value'",
                     id="line-without-equals"),
        pytest.param("signature = lorentz", "signature must be one of",
                     id="unknown-signature"),
        pytest.param("omega =", "omega: empty domain spec", id="empty-domain"),
        pytest.param("omega = interval 0 1 2", "omega: interval needs 2 numbers",
                     id="interval-count"),
        pytest.param("omega_tilde = ball 0.5",
                     "omega_tilde: ball needs center and radius",
                     id="ball-count"),
        pytest.param("omega = ellipse 0 0 1 0",
                     "omega: ellipse needs cx cy q11 q12 q22", id="ellipse-count"),
        pytest.param("omega = disk 0 0 1", "omega: unknown domain kind 'disk'",
                     id="unknown-domain-kind"),
        pytest.param("omega = interval 1 0", "omega: interval needs a < b",
                     id="reversed-interval"),
        pytest.param("omega_tilde = interval 0.5 -0.5",
                     "omega_tilde: interval needs a < b",
                     id="reversed-image-interval"),
        pytest.param("omega_tilde = ellipse 0 0 1 2 1",
                     "omega_tilde: ellipse: shape matrix must be positive definite",
                     id="indefinite-ellipse"),
        pytest.param("omega = ball 0 0 -1", "omega: ball needs radius > 0",
                     id="negative-radius"),
        pytest.param("n = 1e3", "n: '1e3' is not an integer",
                     id="malformed-grid-size"),
        pytest.param("max_steps = 2.5", "max_steps: '2.5' is not an integer",
                     id="fractional-max-steps"),
        pytest.param("n = 2", "n: line grid needs at least 4 cells",
                     id="too-few-cells"),
        pytest.param("omega = ball 0 0 abc", "omega: 'abc' is not a number",
                     id="malformed-domain-number"),
        pytest.param("omega = ball 0 0 1\nomega_tilde = ball 0 0 0.5",
                     "2D runs need keys: n_rho, n_theta", id="2d-without-grid"),
        # a 3D domain is refused by its key before the grid keys are read
        pytest.param("omega = ball 0 0 0 1\nomega_tilde = ball 0 0 0 0.5",
                     "omega: a 3D domain; grids cover n <= 2",
                     id="3d-without-grid"),
        pytest.param("omega = ball 0 0 0 1\nomega_tilde = ball 0 0 0 0.5\n"
                     "n_rho = 8\nn_theta = 16",
                     "omega: a 3D domain; grids cover n <= 2",
                     id="3d-with-disk-grid"),
        # an image of another dimension is refused by its key, before
        # the grid keys are read
        pytest.param("omega = ball 0 0 1\nomega_tilde = interval -0.5 0.5",
                     "omega_tilde: a 1D domain; omega is 2D",
                     id="image-of-lower-dimension"),
        pytest.param("omega = ball 0 0 1\nomega_tilde = ball 0 0 0 0.5",
                     "omega_tilde: a 3D domain; omega is 2D",
                     id="image-of-higher-dimension"),
        # a directory under the configuration file, a regular file
        pytest.param("output_dir = {cfg}/out", "output_dir",
                     id="output-dir-under-a-file"),
    ])
    def test_exits_one_with_configuration_error(self, tmp_path, capsys,
                                                extra, key):
        cfg = tmp_path / "bad.cfg"
        out = tmp_path / "out"
        extra = extra.format(cfg=cfg)
        keys = {line.split("=")[0].strip() for line in extra.splitlines()}
        if keys & GRID_KEYS:  # a grid in extra replaces the base grid
            keys |= GRID_KEYS
        base = [line for line in BASE_CONFIG.format(out=out).splitlines()
                if line.split("=")[0].strip() not in keys]
        cfg.write_text("\n".join([*base, extra]) + "\n")
        assert cli.main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and key in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_repeated_key_exits_one(self, tmp_path, capsys):
        # a key set twice is an error, not the later value
        cfg = tmp_path / "twice.cfg"
        out = tmp_path / "out"
        cfg.write_text(BASE_CONFIG.format(out=out).replace(
            "n = 101", "n = 100\nn = 4"))
        assert cli.main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == f"configuration error: {cfg}:6: duplicate key n\n"
        assert not out.exists()

    @pytest.mark.parametrize("drop, message", [
        ("signature", "missing key: signature"),
        ("n", "1D runs need key: n"),
    ])
    def test_missing_required_key_exits_one(self, tmp_path, capsys, drop,
                                            message):
        cfg = tmp_path / "bad.cfg"
        out = tmp_path / "out"
        lines = BASE_CONFIG.format(out=out).splitlines(keepends=True)
        cfg.write_text("".join(ln for ln in lines
                               if not ln.startswith(f"{drop} =")))
        assert cli.main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"configuration error: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("grid, message", [
        ("n_rho = 3\nn_theta = 7", "n_rho, n_theta: n_theta must be even"),
        ("n_rho = 3\nn_theta = 8", "n_rho, n_theta: disk grid needs n_rho >= 4"),
    ])
    def test_disk_grid_error_names_its_keys(self, tmp_path, capsys, grid,
                                            message):
        cfg = tmp_path / "bad.cfg"
        out = tmp_path / "out"
        cfg.write_text(f"signature = minkowski\nomega = ball 0 0 1\n"
                       f"omega_tilde = ball 0 0 0.5\n{grid}\n"
                       f"output_dir = {out}\n")
        assert cli.main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"configuration error: {message}" in err
        assert not out.exists()

    @pytest.mark.parametrize("omega, omega_tilde, grid", [
        ("ball 0 0 1", "ball nan 0 0.5", "n_rho = 8\nn_theta = 16"),
        ("ball 0 0 1", "ellipse 0 0 inf 0 1", "n_rho = 8\nn_theta = 16"),
        ("ball 0 inf 1", "ball 0 0 0.5", "n_rho = 8\nn_theta = 16"),
        ("interval 0 1", "interval -0.5 inf", "n = 20"),
    ])
    def test_non_finite_domain_exits_one(self, tmp_path, capsys, recwarn,
                                         omega, omega_tilde, grid):
        cfg = tmp_path / "bad.cfg"
        out = tmp_path / "out"
        cfg.write_text(f"signature = minkowski\nomega = {omega}\n"
                       f"omega_tilde = {omega_tilde}\n{grid}\n"
                       f"output_dir = {out}\n")
        assert cli.main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "must be finite" in err
        assert "Traceback" not in err
        assert not [str(w.message) for w in recwarn]
        assert not out.exists()

    def test_last_node_is_a_valid_anchor(self, tmp_path):
        cfg = tmp_path / "edge.cfg"
        out = tmp_path / "out"
        cfg.write_text(BASE_CONFIG.format(out=out) + "anchor = 101\n")
        assert cli.main(["run", "--config", str(cfg)]) == 0


class TestRunCommand:
    def test_converged_run_writes_artifacts(self, finished_run):
        code, out = finished_run
        assert code == 0
        for name in ("monitors.csv", "fields.csv", "snapshot.txt",
                     "report.txt"):
            assert (out / name).is_file()

    def test_monitor_row_count(self, finished_run):
        _, out = finished_run
        lines = (out / "monitors.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == list(cli.mon.CSV_COLUMNS)
        # cadence 2: rows = 1 + ceil(steps / 2), the last one the final
        # state; steps recoverable from report
        report = (out / "report.txt").read_text()
        steps = int(next(ln for ln in report.splitlines()
                         if ln.startswith("steps")).split(":")[1])
        assert len(lines) - 1 == 1 + -(-steps // 2)

    def test_report_prints_every_estimate_verdict(self, finished_run):
        _, out = finished_run
        report = (out / "report.txt").read_text().splitlines()
        assert "converged     : yes" in report
        assert "cone margin ok: yes" in report
        assert "sandwich ok   : yes" in report

    def test_report_names_the_units_of_the_controls(self, finished_run,
                                                    tmp_path):
        # the unit interval applies the controls as given
        _, out = finished_run
        report = (out / "report.txt").read_text().splitlines()
        assert "length unit   : 1 (tau ceiling 10)" in report
        # the ball of radius 2 has area 4 pi: tau_max = 1 is applied as 4 pi
        cfg = tmp_path / "disk.cfg"
        cfg.write_text("signature = minkowski\nomega = ball 0 0 2\n"
                       "omega_tilde = ball 0 0 0.5\nn_rho = 8\nn_theta = 16\n"
                       f"tau_max = 1\noutput_dir = {tmp_path / 'out'}\n")
        assert cli.main(["run", "--config", str(cfg)]) == 0
        ell = cli.parse_domain_spec("ball 0 0 2").length_unit
        assert ell == pytest.approx(2.0 * np.sqrt(np.pi), rel=1e-15)
        report = (tmp_path / "out" / "report.txt").read_text().splitlines()
        assert (f"length unit   : {cli._fmt(ell)} "
                f"(tau ceiling {cli._fmt(4.0 * np.pi)})") in report

    @pytest.mark.parametrize("omega", ["ball 0 0 1e8", "ball 1e7 0 1",
                                       "ball 0 0 1e100"])
    def test_far_or_large_base_ball_converges(self, omega, tmp_path,
                                              capsys):
        # the audits take the boundary normals from the grid's map, so no
        # membership test on h, whose absolute size grows with the
        # domain, refuses the run; the volume stays finite at 1e100
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"signature = minkowski\nomega = {omega}\n"
                       "omega_tilde = ball 0 0 0.5\nn_rho = 16\nn_theta = 32\n"
                       f"output_dir = {tmp_path / 'out'}\n")
        assert cli.main(["run", "--config", str(cfg)]) == 0
        radius = float(omega.split()[-1])
        speed = f"{1.07272163410977 / radius:.10g}"
        assert f"C_inf = {speed} after 3 steps" in capsys.readouterr().out
        for name in ("monitors.csv", "fields.csv", "snapshot.txt",
                     "report.txt"):
            assert (tmp_path / "out" / name).is_file()

    def test_snapshot_roundtrip_bit_exact(self, finished_run):
        _, out = finished_run
        header, coords, u = cli.read_snapshot(out / "snapshot.txt")
        assert header["signature"] == "minkowski"
        # rewrite from the parsed data and compare byte for byte
        text = (out / "snapshot.txt").read_text()
        lines = text.splitlines()
        table = [ln for ln in lines if "=" not in ln and not
                 ln.startswith("#")]
        for k, ln in enumerate(table):
            toks = ln.split()
            assert float(toks[-1]) == u[k]
            assert float(toks[1]) == coords[k, 0]
            # 17 significant digits round-trip: formatting again is identical
            assert cli._fmt(u[k]) == toks[-1]

    @pytest.mark.parametrize("text,match", [
        ("dimension = 1\ncolumns = index x u\n0 0.0 1.0 2.0\n",
         "has 4 fields, expected 3"),
        ("dimension = 1\ncolumns = index x u\n0 0.0 1.0\n1 0.5\n",
         "row 2 has 2 fields, expected 3"),
        ("dimension = 1\n0 0.0 1.0\n", "no header key 'columns'"),
        ("dimension = 1\ncolumns = index x u\n0 0.0 one\n",
         "could not convert string to float: 'one'"),
    ], ids=["wide-row", "ragged", "no-columns", "non-numeric"])
    def test_snapshot_with_wrong_column_count(self, tmp_path, text, match):
        path = tmp_path / "snapshot.txt"
        path.write_text(text)
        with pytest.raises(ConfigError, match=match) as err:
            cli.read_snapshot(path)
        assert str(err.value).startswith(f"snapshot {path}: ")

    def test_fields_csv_schema(self, finished_run):
        _, out = finished_run
        lines = (out / "fields.csv").read_text().splitlines()
        assert lines[0] == "i,x,u,du_x,hess_min"
        assert len(lines) - 1 == 102  # 101 cells -> 102 nodes

    def test_spacelike_config_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            "signature = minkowski\n"
            "omega = ball 0 0 1\n"
            "omega_tilde = ball 0 0 1.5\n"
            "n_rho = 8\nn_theta = 16\n"
        )
        assert cli.main(["run", "--config", str(cfg)]) == 1
        assert "spacelike" in capsys.readouterr().err

    def test_max_steps_one_exits_two_with_artifacts(self, tmp_path):
        cfg = tmp_path / "part.cfg"
        out = tmp_path / "out"
        cfg.write_text(BASE_CONFIG.format(out=out) + "max_steps = 1\n")
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert (out / "monitors.csv").is_file()
        assert (out / "snapshot.txt").is_file()
        lines = (out / "monitors.csv").read_text().splitlines()
        assert len(lines) >= 2  # header + initial record at least

    @staticmethod
    def _nonconverged_run(tmp_path):
        """A cadence-3 run cut after 5 steps, plus the states it accepted.

        Started at the default tau_max the run would converge within 5
        steps, so it starts at tau0 = 0.1 h^2 and ramps up, still far
        from converged after 5 steps.
        """
        cfg = tmp_path / "cut.cfg"
        out = tmp_path / "out"
        h = flow.build_grid(cli.parse_domain_spec("interval 0 1"), 101).h_ref
        cfg.write_text(BASE_CONFIG.format(out=out).replace("cadence = 2",
                                                           "cadence = 3")
                       + f"max_steps = 5\ntau0 = {0.1 * h**2!r}\n")
        assert cli.main(["run", "--config", str(cfg)]) == 2
        config = cli.parse_config(cfg)
        accepted = []
        state0 = flow.initialize(config.omega, config.omega_tilde,
                                 config.grid_spec, config.signature)
        with pytest.raises(NonConvergenceError):
            flow.run_to_translator(state0, config.controls,
                                   on_accept=accepted.append)
        assert len(accepted) == 5
        return out, accepted[-1]

    def test_nonconverged_artifacts_describe_last_accepted_state(self, tmp_path):
        out, last = self._nonconverged_run(tmp_path)
        header, coords, u = cli.read_snapshot(out / "snapshot.txt")
        assert float(header["t"]) == last.t
        assert np.array_equal(u, last.u)
        rows = (out / "fields.csv").read_text().splitlines()[1:]
        assert [float(ln.split(",")[2]) for ln in rows] == list(last.u)
        # 1 + ceil(5 / 3) records: steps 0 and 3 at the cadence, then the
        # final state, step 5
        records = (out / "monitors.csv").read_text().splitlines()[1:]
        assert len(records) == 3
        assert float(records[-1].split(",")[0]) == last.t

    def test_nonconverged_c_inf_is_interior_mean_rate(self, tmp_path):
        out, last = self._nonconverged_run(tmp_path)
        header, _, _ = cli.read_snapshot(out / "snapshot.txt")
        interior_mean = float(np.mean(last.u_dot[last.grid.interior]))
        assert float(header["c_inf"]) == interior_mean
        assert interior_mean != float(np.mean(last.u_dot))

    def test_step_failure_exits_two(self, tmp_path, capsys):
        # one Newton iteration from u0 never meets tol_newton, so every
        # attempt fails and tau halves below tau_min
        cfg = tmp_path / "fail.cfg"
        out = tmp_path / "out"
        cfg.write_text(BASE_CONFIG.format(out=out)
                       + "max_newton = 1\ntau_min = 1e-6\n")
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert "non-convergence" in capsys.readouterr().err
        assert (out / "report.txt").is_file()

    def test_unwritable_artifact_exits_one(self, tmp_path, capsys):
        # the run converges; fields.csv, a directory, cannot be written
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "out"
        (out / "fields.csv").mkdir(parents=True)
        cfg.write_text(BASE_CONFIG.format(out=out))
        assert cli.main(["run", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        err = captured.err
        assert err.startswith(f"cannot write {out / 'fields.csv'}: ")
        assert "Traceback" not in err
        # the converged result is still printed and the other artifacts
        # are still written
        assert captured.out.startswith("converged: C_inf = ")
        for name in ("monitors.csv", "snapshot.txt", "report.txt"):
            assert (out / name).is_file()
        assert "converged     : yes" in (out / "report.txt").read_text()

    def test_every_unwritable_artifact_is_named(self, tmp_path, capsys):
        # a run cut at max_steps = 1 with two artifacts that cannot be
        # written: the stall is reported, both files are named, the two
        # others are written, and the write failure sets the exit code
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "out"
        for name in ("monitors.csv", "report.txt"):
            (out / name).mkdir(parents=True)
        cfg.write_text(BASE_CONFIG.format(out=out) + "max_steps = 1\n")
        assert cli.main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("non-convergence: no translator after 1 steps")
        assert [line.split(": ")[0] for line in err[1:]] == [
            f"cannot write {out / 'monitors.csv'}",
            f"cannot write {out / 'report.txt'}"]
        assert (out / "fields.csv").is_file()
        assert (out / "snapshot.txt").is_file()

    def test_two_dimensional_run_artifacts(self, tmp_path):
        cfg = tmp_path / "disk.cfg"
        out = tmp_path / "out2d"
        cfg.write_text(
            "signature = minkowski\n"
            "omega = ball 0 0 1\n"
            "omega_tilde = ellipse 0 0 6.25 0 16\n"
            "n_rho = 12\nn_theta = 24\n"
            f"output_dir = {out}\n"
        )
        assert cli.main(["run", "--config", str(cfg)]) == 0
        lines = (out / "fields.csv").read_text().splitlines()
        assert lines[0] == "i,j,x,y,u,du_x,du_y,hess_min"
        assert len(lines) - 1 == 1 + 12 * 24
        header, coords, u = cli.read_snapshot(out / "snapshot.txt")
        assert header["grid"] == "12 24"
        assert coords.shape == (1 + 12 * 24, 2)
        assert cli.main(["report", str(out / "monitors.csv")]) == 0

    def test_output_dir_with_hash(self, tmp_path):
        cfg = tmp_path / "hash.cfg"
        out = tmp_path / "x" / "run#1"
        cfg.write_text(BASE_CONFIG.format(out=out))
        assert cli.main(["run", "--config", str(cfg)]) == 0
        for name in ("monitors.csv", "fields.csv", "snapshot.txt",
                     "report.txt"):
            assert (out / name).is_file()
        assert not (tmp_path / "x" / "run").exists()

    def test_anchor_override(self, tmp_path):
        cfg = tmp_path / "anchor.cfg"
        out = tmp_path / "outa"
        cfg.write_text(BASE_CONFIG.format(out=out) + "anchor = 7\n")
        assert cli.main(["run", "--config", str(cfg)]) == 0
        config = cli.parse_config(cfg)
        assert config.anchor == 7

    def test_anchor_override_leaves_a_shared_grid_alone(self, tmp_path,
                                                        monkeypatch):
        # a state held beside the run shares its grid; the run's anchor
        # must not move that state's anchor
        omega = cli.parse_domain_spec("interval 0 1")
        omega_tilde = cli.parse_domain_spec("interval -0.5 0.5")
        alone = flow.run_to_translator(
            flow.initialize(omega, omega_tilde, 101, "minkowski"))
        want = repr(alone.c_inf), alone.u_inf.tobytes()
        del alone
        held = flow.initialize(omega, omega_tilde, 101, "minkowski")
        default = held.grid.anchor
        built = []
        initialize = cli.initialize

        def recorded(*args):
            built.append(initialize(*args))
            return built[-1]

        monkeypatch.setattr(cli, "initialize", recorded)
        cfg = tmp_path / "anchor.cfg"
        cfg.write_text(BASE_CONFIG.format(out=tmp_path / "out") + "anchor = 7\n")
        assert cli.main(["run", "--config", str(cfg)]) == 0
        assert built[0].grid is held.grid
        assert held.grid.anchor == default != 7
        result = flow.run_to_translator(held)
        assert (repr(result.c_inf), result.u_inf.tobytes()) == want


# ---------------------------------------------------------------------------
# The node artifacts share one table; these writers are the per-row
# f-string ones it replaced, kept as the byte-for-byte reference (they
# take p and the Hessian eigenvalues from the grid, not the jets; the
# eigenvalues from the solver's kernel, geometry.eigenvalues_many).
# ---------------------------------------------------------------------------

def ref_node_indices(grid):
    if grid.dim == 1:
        return [(i,) for i in range(grid.n_nodes)]
    out = [(0, 0)]
    for j in range(1, grid.n_rho + 1):
        for m in range(grid.n_theta):
            out.append((j, m))
    return out


def ref_write_fields_csv(path, state):
    grid = state.grid
    p = state.grid.gradient(state.u)
    lam_min = eigenvalues_many(state.grid.derivative_rows(state.u)[1])[0]
    idx = ref_node_indices(grid)
    fmt = cli._fmt
    with open(path, "w") as f:
        if grid.dim == 1:
            f.write("i,x,u,du_x,hess_min\n")
            for k in range(grid.n_nodes):
                f.write(f"{idx[k][0]},{fmt(grid.nodes[k, 0])},{fmt(state.u[k])},"
                        f"{fmt(p[k, 0])},{fmt(lam_min[k])}\n")
        else:
            f.write("i,j,x,y,u,du_x,du_y,hess_min\n")
            for k in range(grid.n_nodes):
                f.write(f"{idx[k][0]},{idx[k][1]},{fmt(grid.nodes[k, 0])},"
                        f"{fmt(grid.nodes[k, 1])},{fmt(state.u[k])},"
                        f"{fmt(p[k, 0])},{fmt(p[k, 1])},{fmt(lam_min[k])}\n")


def ref_write_snapshot(path, state, c_inf):
    grid = state.grid
    if grid.dim == 1:
        grid_line = f"grid = {grid.n_nodes - 1}"
    else:
        grid_line = f"grid = {grid.n_rho} {grid.n_theta}"
    idx = ref_node_indices(grid)
    fmt, spec = cli._fmt, cli.domain_spec_string
    with open(path, "w") as f:
        f.write("# gaussflow snapshot\n")
        f.write(f"signature = {state.sig}\n")
        f.write(f"dimension = {grid.dim}\n")
        f.write(f"omega = {spec(state.omega)}\n")
        f.write(f"omega_tilde = {spec(state.omega_tilde)}\n")
        f.write(grid_line + "\n")
        f.write(f"t = {fmt(state.t)}\n")
        f.write(f"c_inf = {fmt(c_inf)}\n")
        f.write(f"nodes = {grid.n_nodes}\n")
        cols = "i x u" if grid.dim == 1 else "i j x y u"
        f.write(f"columns = {cols}\n")
        for k in range(grid.n_nodes):
            coords = " ".join(fmt(c) for c in grid.nodes[k])
            tags = " ".join(str(i) for i in idx[k])
            f.write(f"{tags} {coords} {fmt(state.u[k])}\n")


NODE_TABLE_CASES = {
    "line": ("interval -0.3 1.2", "interval -0.5 0.7", 60),
    # shifted ellipses whose axes are turned off the coordinate axes
    "rotated-ellipse": ("ellipse 0.1 -0.2 1.2 0.3 2.1",
                        "ellipse 0.05 0.1 8 2 14", (8, 16)),
}


class TestNodeTable:
    @pytest.mark.parametrize("case", sorted(NODE_TABLE_CASES))
    def test_writers_match_per_row_reference(self, case, tmp_path):
        omega, omega_tilde, spec = NODE_TABLE_CASES[case]
        state = flow.initialize(cli.parse_domain_spec(omega),
                                cli.parse_domain_spec(omega_tilde), spec,
                                "minkowski")
        for _ in range(2):  # leave the initial quadratic
            state = flow.step_implicit(state)
        c_inf = flow.mean_rate(state)
        for write, ref, args in (
                (cli.write_fields_csv, ref_write_fields_csv, ()),
                (cli.write_snapshot, ref_write_snapshot, (c_inf,))):
            write(tmp_path / "got", state, *args)
            ref(tmp_path / "want", state, *args)
            got = (tmp_path / "got").read_bytes()
            assert got == (tmp_path / "want").read_bytes(), write.__name__


class TestOracleCommand:
    def test_closed1d_minkowski(self, capsys):
        assert cli.main(["oracle", "closed1d", "0", "1", "-0.5", "0.5",
                         "minkowski"]) == 0
        assert "C = 1.0986123" in capsys.readouterr().out

    def test_closed1d_euclidean(self, capsys):
        assert cli.main(["oracle", "closed1d", "0", "1", "-1", "1",
                         "euclidean"]) == 0
        assert "C = 1.5707963" in capsys.readouterr().out

    def test_radial_writes_profile(self, tmp_path, capsys):
        out = tmp_path / "prof.csv"
        assert cli.main(["oracle", "radial", "1", "0.5", "2", "minkowski",
                         "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "C = 1.0735826836" in captured
        lines = out.read_text().splitlines()
        assert lines[0] == "r,phi"
        assert len(lines) > 1000

    def test_unwritable_profile_exits_one(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        out = afile / "p.csv"
        assert cli.main(["oracle", "radial", "1", "0.5", "2", "minkowski",
                         "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "C = 1.0735826836" in captured.out
        assert f"oracle error: cannot write {out}: " in captured.err
        assert "Traceback" not in captured.err

    def test_bad_parameters_exit_one(self, capsys):
        assert cli.main(["oracle", "closed1d", "0", "1", "-1.5", "0.5",
                         "minkowski"]) == 1
        assert "oracle error" in capsys.readouterr().err

    @pytest.mark.parametrize("params, message", [
        (["closed1d", "0", "1"], "closed1d needs 4 numbers"),
        (["closed1d", "0", "1", "-0.5", "0.5", "0.7"], "closed1d needs 4 numbers"),
        (["radial", "1", "0.5"], "radial needs 3 numbers"),
        (["radial", "1", "0.5", "2", "2"], "radial needs 3 numbers"),
        (["radial", "1", "0.5", "nan"], "radial needs a positive integer n"),
        (["radial", "1", "0.5", "2.7"], "radial needs a positive integer n"),
        (["radial", "1", "0.5", "0"], "radial needs a positive integer n"),
        (["radial", "nan", "0.5", "2"], "radius must be finite and positive"),
        (["radial", "inf", "0.5", "2"], "radius must be finite and positive"),
    ])
    def test_malformed_arguments_exit_one(self, tmp_path, capsys, params,
                                          message):
        out = tmp_path / "prof.csv"
        assert cli.main(["oracle", *params, "minkowski",
                         "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert f"oracle error: {message}" in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestCheckCommand:
    def test_fresh_build_passes(self, capsys):
        assert cli.main(["check"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_debug_paper_signs_fails_suite(self, capsys):
        assert cli.main(["check", "--debug-paper-signs"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  geometry-identities" in out
        assert "FAIL  derivative-fd" in out
        assert "ratio -2.000" in out

    def test_row_names_in_order(self, capsys):
        assert cli.main(["check"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert [row.split()[1] for row in rows] == [
            "geometry-identities", "trace-identity", "normal-pairing",
            "derivative-fd", "hessian-slot-exact", "legendre-involution",
            "oracle-consistency", "duality-sign",
        ]
        assert all(row.startswith("PASS  ") for row in rows)


class TestReportCommand:
    def test_summary_and_series_files(self, finished_run, capsys):
        _, out = finished_run
        assert cli.main(["report", str(out / "monitors.csv")]) == 0
        captured = capsys.readouterr().out
        assert "C_inf=" in captured
        assert (out / "monitor_obliq_min.dat").is_file()
        assert (out / "monitor_udot_min.dat").is_file()

    def test_speed_line_names_its_estimate(self, finished_run, capsys):
        # run reports the interior mean rate; report only sees the final
        # udot range, so its C_inf says which estimate it is
        _, out = finished_run
        assert cli.main(["report", str(out / "monitors.csv")]) == 0
        lines = capsys.readouterr().out.splitlines()
        speed = [ln for ln in lines if ln.startswith("C_inf=")]
        assert len(speed) == 1
        assert speed[0].endswith(" (midpoint of final udot_min/udot_max)")
        value = float(speed[0].split("=")[1].split()[0])
        last = (out / "monitors.csv").read_text().splitlines()
        header, final = last[0].split(","), [float(t) for t in last[-1].split(",")]
        mid = 0.5 * (final[header.index("udot_min")]
                     + final[header.index("udot_max")])
        assert value == pytest.approx(mid, rel=1e-9)

    def test_final_oscillation_below_tolerance(self, finished_run):
        _, out = finished_run
        lines = (out / "monitors.csv").read_text().splitlines()
        header = lines[0].split(",")
        last = [float(t) for t in lines[-1].split(",")]
        osc = (last[header.index("udot_max")]
               - last[header.index("udot_min")])
        assert osc < 1e-8

    def test_empty_csv_exits_one(self, tmp_path, capsys):
        empty = tmp_path / "monitors.csv"
        empty.write_text("")
        assert cli.main(["report", str(empty)]) == 1
        assert "no data" in capsys.readouterr().err

    def test_non_utf8_csv_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "monitors.csv"
        bad.write_bytes(b"t,udot_min\n\xff\xfe,1\n")
        assert cli.main(["report", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("report error: ") and "utf-8" in err
        assert "Traceback" not in err

    def test_unwritable_series_exits_one(self, finished_run, tmp_path, capsys):
        csv = tmp_path / "monitors.csv"
        csv.write_text((finished_run[1] / "monitors.csv").read_text())
        (tmp_path / "monitor_udot_min.dat").mkdir()
        assert cli.main(["report", str(csv)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"report error: cannot write {tmp_path / 'monitor_udot_min.dat'}: ")
        assert "Traceback" not in err

    def test_missing_csv_exits_one(self, tmp_path):
        assert cli.main(["report", str(tmp_path / "nope.csv")]) == 1

    @pytest.mark.parametrize("text, message", [
        ("t,udot_min,udot_max,obliq_min,hess_min,hess_max\n"
         "0.1,1,1,abc,1,2\n", "data row 1: could not convert string"),
        ("t,udot_min,udot_max,obliq_min,hess_min,hess_max\n"
         "0.1,1,1,0.5,1,2\n0.2,1,1\n", "data row 2 has 3 fields"),
        ("t,osc\n1,2\n", "lacks column(s) udot_min, udot_max"),
    ], ids=["non-numeric-token", "wrong-row-width", "missing-column"])
    def test_malformed_csv_exits_one(self, tmp_path, capsys, text, message):
        bad = tmp_path / "monitors.csv"
        bad.write_text(text)
        assert cli.main(["report", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("report error: ")
        assert message in err
