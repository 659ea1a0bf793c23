import dataclasses
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import quadzero
from quadzero import OrientationClass, sweep
from quadzero.cli import ZEROS_HEADER, build_parser, main
from quadzero.solver import ZeroRecord
from quadzero.sweep import SWEEP_HEADER

QUINTET = ["--b", "0", "--c", "0", "--k", "1", "--n", "3", "--m", "1"]

# Every flag of each subcommand, by config key.
EVERY_FLAG = [
    ("radius", {"b": "0.5", "c": "2", "k": "4", "n": "2", "m": "1"}),
    ("zeros", {"b": "2", "c": "3", "k": "4", "n": "3", "m": "1",
               "format": "json"}),
    ("classify", {"b": "0", "c": "0", "k": "1", "n": "3", "m": "1",
                  "re": "0.1", "im": "-0.2"}),
    ("winding", {"b": "0", "c": "0", "k": "1", "n": "3", "m": "1",
                 "radius": "0.5", "center_re": "0.9", "center_im": "-0.1"}),
    ("critical-circle", {"b": "2", "c": "3", "k": "2"}),
    ("circle-image", {"b": "0", "c": "0", "k": "1", "n": "3", "m": "1",
                      "radius": "1", "samples": "16"}),
    ("sweep", {"b_range": "0.5:2:2", "c_range": "-1:1:2", "k": "3",
               "n": "2", "m": "1", "threads": "1"}),
]


def as_flags(flags: dict) -> list[str]:
    return [f"--{k.replace('_', '-')}={v}" for k, v in flags.items()]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRadius:
    def test_theorem_route_json(self, capsys):
        code, out, _ = run(
            capsys,
            ["radius", "--b", "0.5", "--c", "2", "--k", "4", "--n", "2", "--m", "1"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["source"] == "Thm31"
        assert 1.0 <= doc["radius"] < doc["delta"]

    def test_fallback_route(self, capsys):
        code, out, _ = run(
            capsys,
            ["radius", "--b", "0", "--c", "3", "--k", "1", "--n", "3", "--m", "1"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["source"] == "FallbackCauchy"
        assert doc["radius"] == pytest.approx(2.0)
        assert doc["delta"] is None

    def test_missing_flag_exits_2(self, capsys):
        code, _, err = run(capsys, ["radius", "--b", "1", "--c", "1", "--k", "4"])
        assert code == 2
        assert "--n" in err

    def test_root_beyond_500_doublings_and_halvings(self, capsys):
        # The root is near 2^465: bracketing and bisection together take
        # more than 500 steps.
        code, out, _ = run(
            capsys,
            ["radius", "--b", "0", "--c", "1e140", "--k", "1", "--n", "2", "--m", "1"],
        )
        assert code == 0
        assert json.loads(out)["radius"] >= 1e140

    def test_delta_where_b_dwarfs_c(self, capsys):
        # |b| = 1e16, C = 1: -(|b| + C) rounds to -|b|, so deflating the
        # radius equation numerically loses the constant; the exact
        # quotient keeps it.
        code, out, _ = run(
            capsys,
            ["radius", "--b", "1e16", "--c", "0.5", "--k", "4", "--n", "3", "--m", "1"],
        )
        assert code == 0
        assert json.loads(out)["delta"] == 0.00010000250021877501

    def test_unavailable_is_strict_json(self, capsys):
        code, out, _ = run(
            capsys,
            ["radius", "--b", "1", "--c", "2", "--k", "3", "--n", "3", "--m", "1"],
        )
        assert code == 0

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        doc = json.loads(out, parse_constant=reject)
        assert doc == {"radius": None, "delta": None, "source": "Unavailable"}


class TestZeros:
    def test_csv_five_rows(self, capsys):
        code, out, _ = run(capsys, ["zeros", *QUINTET])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ZEROS_HEADER
        assert len(lines) == 6
        orientations = [line.split(",")[4] for line in lines[1:]]
        assert orientations.count("sense-preserving") == 1
        assert orientations.count("sense-reversing") == 4

    def test_json_counts(self, capsys):
        code, out, _ = run(capsys, ["zeros", "--format", "json", *QUINTET])
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 5
        assert doc["n_plus"] == 1
        assert doc["n_minus"] == 4
        assert doc["winding_check"] == "passed"
        assert len(doc["zeros"]) == 5
        assert doc["n_certified"] == sum(z["certified"] for z in doc["zeros"]) == 5

    def test_svg_output_is_valid_xml(self, capsys, tmp_path):
        svg = tmp_path / "zeros.svg"
        code, _, _ = run(capsys, ["zeros", *QUINTET, "--svg", str(svg)])
        assert code == 0
        root = ET.parse(svg).getroot()
        assert root.tag.endswith("svg")
        assert root.get("version") == "1.1"

    @pytest.mark.parametrize(
        "degrees, circles",
        [
            (["--k", "3", "--n", "3", "--m", "1"], 1),
            (["--k", "4", "--n", "3", "--m", "1"], 0),
            (["--k", "4", "--n", "3", "--m", "2"], 0),
            # A later --b or --c overrides the one before.  At b = 1e9 the
            # circle's radius is 2.24e-13, which rounds to 0 at 12 digits
            # and is left out, or 7.07e-13, which rounds to 1e-12.
            pytest.param(
                ["--k", "2", "--n", "2", "--m", "1", "--b", "1e9", "--c", "1.0000001"],
                0, id="rounded-to-0",
            ),
            pytest.param(
                ["--k", "2", "--n", "2", "--m", "1", "--b", "1e9", "--c", "1.000001"],
                1, id="rounded-to-1e-12",
            ),
        ],
    )
    def test_svg_critical_circle_only_for_n_eq_k_m_1(
        self, capsys, tmp_path, degrees, circles
    ):
        # Theorem 3.4's circle belongs to the n = k, m = 1 family only.
        svg = tmp_path / "zeros.svg"
        code, _, _ = run(
            capsys, ["zeros", "--b", "2", "--c", "3", *degrees, "--svg", str(svg)]
        )
        assert code == 0
        assert svg.read_text().count("stroke-dasharray") == circles

    def test_unwritable_svg_path_exits_2(self, capsys, tmp_path):
        svg = tmp_path / "no" / "such" / "dir" / "z.svg"
        code, out, err = run(capsys, ["zeros", *QUINTET, "--svg", str(svg)])
        assert code == 2
        assert out == ""
        assert err.startswith("quadzero: ") and len(err.splitlines()) == 1
        assert "No such file or directory" in err

    def test_unavailable_bound_exits_2(self, capsys):
        code, _, err = run(
            capsys,
            ["zeros", "--b", "1", "--c", "2", "--k", "3", "--n", "3", "--m", "1"],
        )
        assert code == 2
        assert "disk" in err


class TestClassify:
    def test_interior_point(self, capsys):
        code, out, _ = run(
            capsys, ["classify", *QUINTET, "--re", "0.1", "--im", "0.0"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["orientation"] == "sense-preserving"
        assert doc["jacobian"] == pytest.approx(1 - 9 * 0.1**4)
        assert doc["dilatation_abs"] == pytest.approx(3 * 0.1**2)

    def test_im_defaults_to_zero(self, capsys):
        code, out, _ = run(capsys, ["classify", *QUINTET, "--re", "2"])
        assert code == 0
        assert json.loads(out)["orientation"] == "sense-reversing"

    def test_no_dilatation_where_h_prime_vanishes(self, capsys):
        # h'(z) = 2z + 1 = 0 at z = -1/2, where g'(z) = 2 conj(z) = -1.
        code, out, _ = run(
            capsys,
            ["classify", "--b", "1", "--c", "0", "--k", "2", "--n", "2",
             "--m", "1", "--re", "-0.5"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["dilatation_abs"] is None
        assert doc["jacobian"] == -1.0
        assert doc["orientation"] == "sense-reversing"

    @pytest.mark.parametrize(
        "params", ["2,1.0000000000001,3,3,1", "0.5,1.0000000000001,4,2,1"]
    )
    def test_agrees_with_certified_zeros(self, capsys, params):
        # |c| just above 1 with m = 1: J(0) = 1 - c^2 is about -2e-13, which
        # the certificate proves negative.  classify reads the same
        # rounding bound, so it gives each certified zero its orientation.
        flags = [f"--{name}={v}" for name, v in zip("bcknm", params.split(","))]
        code, out, _ = run(capsys, ["zeros", *flags, "--format", "json"])
        assert code == 0
        certified = [z for z in json.loads(out)["zeros"] if z["certified"]]
        assert any(z["re"] == z["im"] == 0.0 for z in certified)
        for z in certified:
            code, out, _ = run(
                capsys,
                ["classify", *flags, f"--re={z['re']!r}", f"--im={z['im']!r}"],
            )
            assert code == 0
            assert json.loads(out)["orientation"] == z["orientation"]


class TestWinding:
    def test_circle(self, capsys):
        code, out, _ = run(capsys, ["winding", *QUINTET, "--radius", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["winding"] == -3
        assert doc["min_modulus"] > 0

    def test_rectangle(self, capsys):
        code, out, _ = run(capsys, ["winding", *QUINTET, "--rect=-2,-2,2,2"])
        assert code == 0
        assert json.loads(out)["winding"] == -3

    def test_zeros_next_to_the_contour(self, capsys):
        # 1e-10 outside the four unimodular zeros: proven, not refused
        code, out, _ = run(capsys, ["winding", *QUINTET, "--radius", "1.0000000001"])
        assert code == 0
        assert json.loads(out)["winding"] == -3

    def test_zero_on_contour_exits_3(self, capsys):
        code, _, err = run(capsys, ["winding", *QUINTET, "--radius", "1"])
        assert code == 3
        assert "contour" in err

    def test_bad_rect_exits_2(self, capsys):
        code, out, err = run(capsys, ["winding", *QUINTET, "--rect", "1,2,3"])
        assert code == 2
        assert out == ""
        assert "--rect" in err and "loRe,loIm,hiRe,hiIm" in err

    def test_no_contour_exits_2(self, capsys):
        code, out, err = run(capsys, ["winding", *QUINTET])
        assert code == 2
        assert out == ""
        assert err == "quadzero: winding needs --radius or --rect\n"


class TestCriticalCircle:
    def test_worked_example(self, capsys):
        code, out, _ = run(
            capsys, ["critical-circle", "--b", "2", "--c", "3", "--k", "2"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["exists"] is True
        assert doc["radius"] == pytest.approx(math.sqrt(2.0 / 3.0))
        assert doc["k"] == 2

    @pytest.mark.parametrize(
        "b, c, k, radius",
        [("2", "1e160", "2", 1e160 / (2.0 * math.sqrt(3.0))), ("1e200", "1e200", "3", 3.0**-0.5)],
        ids=["ratio-inf", "ratio-nan"],
    )
    def test_radius_where_the_squares_overflow(self, capsys, b, c, k, radius):
        code, out, _ = run(capsys, ["critical-circle", "--b", b, "--c", c, "--k", k])
        assert code == 0
        doc = json.loads(out)
        assert doc["exists"] is True
        assert doc["radius"] == pytest.approx(radius, rel=1e-14)

    def test_large_k(self, capsys):
        # The root's degree, 2k - 2 = 1198, is past the float exponent range.
        code, out, _ = run(
            capsys, ["critical-circle", "--b", "3", "--c", "2", "--k", "600"]
        )
        assert code == 0
        radius = (3.0 / 8.0 / 600**2) ** (1 / 1198)
        assert json.loads(out)["radius"] == pytest.approx(radius)

    def test_b_equals_one_exits_2(self, capsys):
        code, _, err = run(
            capsys, ["critical-circle", "--b", "1", "--c", "3", "--k", "2"]
        )
        assert code == 2
        assert "Theorem 3.4 requires b ≠ ±1" in err


class TestCircleImage:
    def test_csv_closed_curve(self, capsys):
        code, out, _ = run(
            capsys, ["circle-image", *QUINTET, "--radius", "1", "--samples", "64"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "re,im"
        assert len(lines) == 66
        assert lines[1] == lines[-1]

    @pytest.mark.parametrize("radius", ["0", "-1"])
    def test_radius_not_positive_exits_2(self, capsys, radius):
        code, out, err = run(
            capsys,
            ["circle-image", *QUINTET, f"--radius={radius}", "--samples", "16"],
        )
        assert code == 2
        assert out == ""
        assert "circle radius must be positive" in err


class TestConfigFile:
    def test_flags_override_config(self, capsys, tmp_path):
        cfgfile = tmp_path / "quad.cfg"
        cfgfile.write_text(
            "# a comment line\nb = 0.5\nc = 2\n\n"
            "k = 4\nn = 2\n m = 1  # trailing comment\n"
        )
        code, out_cfg, _ = run(capsys, ["radius", "--config", str(cfgfile)])
        assert code == 0
        code, out_override, _ = run(
            capsys, ["radius", "--config", str(cfgfile), "--c", "0.5"]
        )
        assert code == 0
        assert json.loads(out_cfg)["source"] == "Thm31"
        assert json.loads(out_override)["source"] == "Thm32"

    def test_bad_config_line_exits_2(self, capsys, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        for line in ["this is not key value", "= 3"]:
            cfgfile.write_text(f"{line}\n")
            code, _, err = run(capsys, ["radius", "--config", str(cfgfile)])
            assert code == 2
            assert err == f"quadzero: bad config line (want key=value): {line!r}\n"

    @pytest.mark.parametrize(
        "key", ["max_depth", "accept-tol", "b_rnage", "config", "singular_tol"]
    )
    def test_unknown_key_exits_2(self, capsys, tmp_path, key):
        cfgfile = tmp_path / "quad.cfg"
        cfgfile.write_text(f"b = 0.5\nc = 2\nk = 4\nn = 2\nm = 1\n{key} = 3\n")
        code, out, err = run(capsys, ["radius", "--config", str(cfgfile)])
        assert code == 2
        assert out == ""
        assert key.replace("-", "_") in err

    def test_bad_value_names_its_flag(self, capsys, tmp_path):
        cfgfile = tmp_path / "quad.cfg"
        cfgfile.write_text("b = 0.5\nc = 2\nk = four\nn = 2\nm = 1\n")
        code, out, err = run(capsys, ["radius", "--config", str(cfgfile)])
        assert code == 2
        assert out == ""
        assert "--k" in err and "'four'" in err

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_config_exits_2(self, capsys, tmp_path, kind):
        path = tmp_path / "nope.cfg" if kind == "missing" else tmp_path
        code, out, err = run(capsys, ["radius", "--config", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("quadzero: ") and len(err.splitlines()) == 1
        assert str(path) in err

    def test_abbreviated_config_flag(self, capsys, tmp_path):
        cfgfile = tmp_path / "quad.cfg"
        cfgfile.write_text("b = 0.5\nc = 2\nk = 4\nn = 2\nm = 1\n")
        code, out, _ = run(capsys, ["radius", "--conf", str(cfgfile)])
        assert code == 0
        assert json.loads(out)["source"] == "Thm31"

    @pytest.mark.parametrize("command, flags", EVERY_FLAG)
    def test_every_flag_from_config(self, capsys, tmp_path, command, flags):
        cfgfile = tmp_path / "all.cfg"
        cfgfile.write_text("".join(f"{k} = {v}\n" for k, v in flags.items()))
        code, out_flags, _ = run(capsys, [command, *as_flags(flags)])
        assert code == 0
        code, out_cfg, _ = run(capsys, [command, "--config", str(cfgfile)])
        assert code == 0
        assert out_cfg == out_flags != ""

    def test_keys_of_other_subcommands_accepted(self, capsys, tmp_path):
        # n, m belong to zeros/radius; threads to sweep; one shared file
        # serves critical-circle too.
        cfgfile = tmp_path / "shared.cfg"
        cfgfile.write_text("b = 2\nc = 3\nk = 2\nn = 3\nm = 1\nthreads = 2\n")
        code, out, _ = run(capsys, ["critical-circle", "--config", str(cfgfile)])
        assert code == 0
        assert json.loads(out)["radius"] == pytest.approx(math.sqrt(2.0 / 3.0))


class TestSweep:
    def test_csv_shape_and_svg(self, capsys, tmp_path):
        svg = tmp_path / "sweep.svg"
        code, out, _ = run(
            capsys,
            [
                "sweep",
                "--b-range", "0.5:2:3",
                "--c-range", "1.5:3:2",
                "--k", "4", "--n", "2", "--m", "1",
                "--threads", "2",
                "--svg", str(svg),
            ],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 1 + 3 * 2
        root = ET.parse(svg).getroot()
        assert root.tag.endswith("svg")
        # n != k: no cell has a critical circle to draw.
        assert "stroke-dasharray" not in svg.read_text()

    def test_svg_critical_circles_of_the_cells(self, capsys, tmp_path):
        # The b = 1 cells have no disk and draw nothing; at c = 1 the
        # circle degenerates to 0, so only (2, 3) draws one.
        svg = tmp_path / "sweep.svg"
        code, _, _ = run(
            capsys,
            ["sweep", "--b-range", "1:2:2", "--c-range", "1:3:2",
             "--k", "3", "--n", "3", "--m", "1", "--threads", "1", "--svg", str(svg)],
        )
        assert code == 0
        assert svg.read_text().count("stroke-dasharray") == 1

    @pytest.mark.parametrize("b, c, k, n, m", [(2, 3, 3, 3, 1), (0.5, 2, 4, 2, 1)])
    def test_one_cell_svg_is_the_zeros_svg(self, capsys, tmp_path, b, c, k, n, m):
        degrees = ["--k", str(k), "--n", str(n), "--m", str(m)]
        zeros_svg, sweep_svg = tmp_path / "zeros.svg", tmp_path / "sweep.svg"
        run(capsys, ["zeros", "--b", str(b), "--c", str(c), *degrees,
                     "--svg", str(zeros_svg)])
        run(capsys, ["sweep", "--b-range", f"{b}:{b}:1", f"--c-range={c}:{c}:1",
                     *degrees, "--svg", str(sweep_svg)])
        assert sweep_svg.read_text() == zeros_svg.read_text()

    def test_violation_needs_certified_zeros_beyond_a_proven_bound(
        self, capsys, monkeypatch
    ):
        # 0,-2,1,5,2 has the proven bound 3n - 2 = 13.  Its report is padded
        # with 14 more entries: uncertified ones do not refute the bound,
        # certified ones do.
        solve = sweep.find_zeros
        for orientation, violation in [
            (OrientationClass.SINGULAR, "false"),
            (OrientationClass.SENSE_REVERSING, "true"),
        ]:

            def padded(p):
                report = solve(p)
                extra = ZeroRecord(location=3 + 0j, residual=0.0, jacobian=-1.0,
                                   orientation=orientation)
                zeros = report.zeros + (extra,) * 14
                kinds = [z.orientation for z in zeros]
                return dataclasses.replace(
                    report,
                    zeros=zeros,
                    count=len(zeros),
                    n_minus=kinds.count(OrientationClass.SENSE_REVERSING),
                    n_singular=kinds.count(OrientationClass.SINGULAR),
                )

            monkeypatch.setattr(sweep, "find_zeros", padded)
            code, out, _ = run(
                capsys,
                ["sweep", "--b-range", "0:0:1", "--c-range=-2:-2:1",
                 "--k", "1", "--n", "5", "--m", "2", "--threads", "1"],
            )
            assert code == 0
            row = dict(zip(SWEEP_HEADER.split(","), out.splitlines()[1].split(",")))
            assert row["bound_proven"] == "true"
            assert int(row["count"]) > int(row["bound_upper"]) == 13
            assert row["violation"] == violation

    def test_bad_range_exits_2(self, capsys):
        code, _, err = run(
            capsys,
            ["sweep", "--b-range", "0:1", "--c-range", "1:2:2",
             "--k", "4", "--n", "2", "--m", "1"],
        )
        assert code == 2
        assert "lo:hi:steps" in err

    def test_zero_steps_exits_2(self, capsys):
        code, out, err = run(
            capsys,
            ["sweep", "--b-range", "0:1:0", "--c-range", "1:2:2",
             "--k", "4", "--n", "2", "--m", "1"],
        )
        assert code == 2
        assert out == ""
        assert "--b-range" in err and "steps must be >= 1" in err

    def test_unwritable_svg_path_exits_2(self, capsys, tmp_path):
        svg = tmp_path / "no" / "such" / "dir" / "s.svg"
        code, out, err = run(
            capsys,
            ["sweep", "--b-range", "1:2:2", "--c-range", "2:3:2",
             "--k", "4", "--n", "2", "--m", "1", "--threads", "1", "--svg", str(svg)],
        )
        assert code == 2
        assert out == ""
        assert err.startswith("quadzero: ") and len(err.splitlines()) == 1
        assert "No such file or directory" in err

    @pytest.mark.parametrize(
        "threads",
        [["--threads", "0"], ["--threads", "-2"], ["--threads", "two"]],
        ids=["flag-0", "flag-negative", "flag-text"],
    )
    def test_threads_below_one_is_usage_error(self, capsys, threads):
        code, out, err = run(
            capsys,
            ["sweep", "--b-range", "1:2:2", "--c-range", "2:3:2",
             "--k", "4", "--n", "2", "--m", "1", *threads],
        )
        assert code == 2
        assert out == ""
        assert "--threads" in err and "positive integer" in err


@pytest.mark.parametrize("command, flags", EVERY_FLAG)
def test_command_returns_its_answer_and_main_prints_it(capsys, command, flags):
    # A command writes nothing; main alone prints what it returns, a dict
    # as one line of JSON or a list as CSV lines.
    argv = [command, *as_flags(flags)]
    ns = build_parser().parse_args(argv)
    answer = ns.func(ns)
    assert capsys.readouterr() == ("", "")
    lines = [json.dumps(answer)] if isinstance(answer, dict) else answer
    assert run(capsys, argv) == (0, "".join(f"{line}\n" for line in lines), "")


@pytest.mark.parametrize(
    "argv",
    [
        ["zeros", "--b", "1e-90", "--c", "2", "--k", "4", "--n", "3", "--m", "1"],
        ["classify", "--b", "1", "--c", "1", "--k", "3", "--n", "2", "--m", "1",
         "--re", "1e200"],
        # q is finite, the Jacobian is inf - inf = nan
        ["classify", "--b", "1", "--c", "2", "--k", "3", "--n", "3", "--m", "1",
         "--re", "1e100"],
        ["winding", *QUINTET, "--radius", "1e200"],
        ["circle-image", *QUINTET, "--radius", "1e200"],
        # every z^3 is finite, b*z^3 is not
        ["circle-image", "--b", "1e300", "--c", "1", "--k", "3", "--n", "2", "--m", "1",
         "--radius", "1e10", "--samples", "16"],
        ["sweep", "--b-range", "1e-90:1e-90:1", "--c-range", "2:2:1",
         "--k", "4", "--n", "3", "--m", "1", "--threads", "1"],
        # the radius itself, about 2^1024.05, overflows
        ["critical-circle", "--b", "1.1", "--c", "1.7e308", "--k", "2"],
    ],
    ids=["zeros", "classify", "classify-nan", "winding", "circle-image",
         "circle-image-inf", "sweep", "critical-circle"],
)
def test_overflow_exits_3(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert err.startswith("quadzero: ") and len(err.splitlines()) == 1
    assert "overflow" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["classify", *QUINTET, "--re", "nan"], "--re"),
        (["radius", "--b", "abc", *QUINTET[2:]], "--b"),
        (["critical-circle", "--b", "2", "--c", "nan", "--k", "3"], "--c"),
        (["winding", *QUINTET, "--radius", "inf"], "--radius"),
        (["circle-image", *QUINTET, "--radius=-inf"], "--radius"),
        (["winding", *QUINTET, "--rect=-inf,-1,1,1"], "--rect"),
        (["sweep", "--b-range", "0:inf:2", "--c-range", "2:2:1",
          "--k", "4", "--n", "3", "--m", "1"], "--b-range"),
    ],
    ids=["re", "b-text", "critical-circle", "winding", "circle-image", "rect",
         "b-range"],
)
def test_non_finite_number_exits_2(capsys, argv, flag):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert f"argument {flag}: " in err and "not a finite number" in err


@pytest.mark.parametrize("argv", [[], ["bogus"]], ids=["none", "unknown"])
def test_missing_or_unknown_subcommand_exits_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage: quadzero")


@pytest.mark.parametrize(
    "argv, lines_read",
    [
        (["circle-image", *QUINTET, "--radius", "1", "--samples", "50000"], 1),
        (["radius", *QUINTET], 0),
    ],
    ids=["mid-output", "before-output"],
)
def test_closed_pipe_exits_1_quietly(argv, lines_read):
    # The reader closes stdout after one line of a 2 MB answer, or before
    # a small answer is written, which then fails at the final flush.
    # stdout is block-buffered, as it is for a user's pipe.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(quadzero.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "quadzero.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    for _ in range(lines_read):
        proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""
