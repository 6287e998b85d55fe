import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oudiff
from oudiff.cli import CLONE_FIELDS, SUBCOMMANDS, TOY_FIELDS, build_parser, dispatch
from oudiff.collapse import CollapseParams, collapse_time_det
from oudiff.moments import MixtureInit, ModeMeans, ModelSpec, Symmetric


def run_json(capsys, argv):
    code = dispatch(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestScalarCommands:
    def test_speciation_reference(self, capsys):
        code, payload = run_json(
            capsys,
            ["speciation", "--beta", "1", "--g", "0", "--sigma-w2", "2",
             "--sigma2", "1", "--m-plus2", "1", "--m-minus2", "0"],
        )
        assert code == 0
        assert payload["regime"] == "speciates"
        assert payload["t_s"] == pytest.approx(0.346574, abs=1e-6)

    def test_collapse_reference(self, capsys):
        code, payload = run_json(
            capsys, ["collapse", "--alpha", "1", "--ratio", "1", "--beta", "1",
                     "--g", "0"],
        )
        assert code == 0
        t_ref = 0.5 * math.log(1.0 + 2.0 / (math.e**2 - 1.0))
        assert payload["t_c"] == pytest.approx(t_ref, abs=1e-9)
        assert payload["t_c_plus"] == pytest.approx(t_ref, abs=1e-9)
        assert payload["t_c_minus"] == pytest.approx(t_ref, abs=1e-9)
        assert payload["t_max"] == pytest.approx(
            1.0 / (math.e**2 - 1.0), abs=1e-9
        )

    @pytest.mark.parametrize("alpha", [0.0014, 0.001])
    @pytest.mark.parametrize("g", [0.0, 0.5])
    def test_collapse_small_alpha(self, capsys, alpha, g):
        # the bracket top collapse_bound + 1/beta puts tau t past e^709.8
        code, payload = run_json(
            capsys, ["collapse", "--alpha", str(alpha), "--ratio", "1", "--g", str(g)],
        )
        assert code == 0
        assert payload["t_c"] <= payload["t_max"]
        spec = ModelSpec(beta=1.0, coupling=Symmetric(g), sigma_w2=1.0)
        init = MixtureInit(1.0, 1.0, ModeMeans(0.0, 0.0))
        det = collapse_time_det(CollapseParams(alpha, 1.0, spec, init)).t_c
        assert payload["t_c"] == pytest.approx(det, rel=1e-9)

    @pytest.mark.parametrize(
        "coupling", [[], ["--coupling", "anisotropic", "--g", "0.5"]]
    )
    def test_collapse_huge_alpha_exits_2(self, capsys, coupling):
        # collapse_bound's expm1(2 alpha) overflows past alpha ~ 354.9
        assert dispatch(["collapse", "--alpha", "400", "--ratio", "1", *coupling]) == 2
        err = capsys.readouterr().err
        assert err.startswith("oudiff: invalid configuration: root not bracketed")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "coupling", [[], ["--coupling", "anisotropic", "--g", "0.5"]]
    )
    def test_collapse_last_normal_root_solves(self, capsys, coupling):
        # the bound e^-708 ~ 3.3e-308 is still normal; a little further out
        # the root is subnormal and refused as an underflow
        code, payload = run_json(
            capsys, ["collapse", "--alpha", "354", "--ratio", "1", *coupling]
        )
        assert code == 0
        assert payload["t_c"] == pytest.approx(math.exp(-708.0), rel=1e-9)

    @pytest.mark.parametrize(
        "coupling, expected",
        [
            ([], '{\n  "t_c": 5.109089028061548e-12,\n  "t_c_plus": 5.109089028063325e-12,\n'
                 '  "t_c_minus": 5.109089028063325e-12,\n  "t_max": 5.109089028089428e-12\n}\n'),
            (["--coupling", "anisotropic", "--g", "0.5"],
             '{\n  "t_c": 5.109089028070842e-12,\n  "t_c_conditional": 5.109089028070842e-12,\n'
             '  "t_max": 5.109089028089428e-12\n}\n'),
        ],
    )
    def test_collapse_past_the_bracket_floor(self, capsys, coupling, expected):
        # the bracket [t, 2t] is found in factors of 2 from the bound, so t_c
        # may lie far below 1 / beta: 5e-12 at alpha = 13, 4e-18 at 20
        assert dispatch(["collapse", "--alpha", "13", "--ratio", "1", *coupling]) == 0
        assert capsys.readouterr().out == expected
        for alpha in ("14", "20"):
            code, payload = run_json(
                capsys, ["collapse", "--alpha", alpha, "--ratio", "1", *coupling]
            )
            assert code == 0
            assert 0.0 < payload["t_c"] < 1e-12

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["speciation", "--coupling", "anisotropic", "--beta", "1e308", "--g", "1",
              "--sigma-w2", "1.001"], "kappa is nan on the scan grid"),
            (["collapse", "--coupling", "anisotropic", "--alpha", "1", "--ratio", "1",
              "--beta", "1e308", "--g", "0.5"], "leave the float range"),
        ],
    )
    def test_huge_beta_exits_2(self, capsys, argv, message):
        # 2 beta leaves the float range: a typed error on one line, not an
        # OverflowError traceback
        assert dispatch(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("oudiff: invalid configuration: ")
        assert message in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            # tau t underflows to 0 in chi
            (["--beta=2.7e-165", "--ratio=6.4e-259"], "collapse equation not solved"),
            # the bound ratio / (e^(2 alpha) - 1) ~ 5e-315, and with it t_c, is subnormal
            (["--coupling", "anisotropic", "--beta=1e-10", "--ratio=1e-290",
              "--alpha=28"], "collapse time underflows at alpha=28.0, ratio=1e-290"),
            # 2 beta s2 / sW2 below the normal range, (g / beta)^2 past it
            (["--coupling", "anisotropic", "--beta=2.7e-165", "--ratio=6.4e-259"],
             "leave the float range"),
            (["--coupling", "anisotropic", "--g=1e200", "--ratio=1"],
             "leave the float range"),
            (["--coupling", "anisotropic", "--alpha=1e-300", "--ratio=1e10"],
             "collapse bound overflows"),
            (["--beta=1.56e74", "--alpha=1.35e-160", "--ratio=1.56e74"],
             "ratio tau / (e^(2 alpha) - 1) overflows"),
        ],
    )
    def test_collapse_outside_the_float_range_exits_2(self, capsys, argv, message):
        # refused on one line, not a ZeroDivisionError or OverflowError
        # traceback, nor a null (an inf) in the output
        assert dispatch(["collapse", "--alpha=1", *argv]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("ratio", ["-1", "0", "nan", "inf"])
    def test_collapse_bad_ratio_names_ratio(self, capsys, ratio):
        assert dispatch(["collapse", "--alpha", "1", "--ratio", ratio]) == 2
        assert capsys.readouterr().err == (
            f"oudiff: invalid configuration: ratio={float(ratio)!r} must be finite and > 0\n"
        )

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["--sigma2", "nan"], "sigma2_x"),
            (["--sigma2", "inf"], "sigma2_x"),
            (["--m-plus2", "nan"], "m_plus2"),
            (["--m-plus2", "inf"], "m_plus2"),
            (["--coupling", "anisotropic", "--sigma2", "nan"], "sigma2_x"),
            (["--coupling", "anisotropic", "--m-x2", "nan"], "m_x2"),
            (["--coupling", "anisotropic", "--m-x2", "inf"], "m_x2"),
        ],
    )
    def test_non_finite_model_input_exits_2(self, capsys, argv, field):
        assert dispatch(["speciation", *argv]) == 2
        err = capsys.readouterr().err
        assert f"{field}={argv[-1]} must be finite" in err
        assert "Warning" not in err

    def test_collapse_anisotropic(self, capsys):
        code, payload = run_json(
            capsys, ["collapse", "--alpha", "1", "--ratio", "1",
                     "--coupling", "anisotropic", "--g", "0.5"],
        )
        assert code == 0
        assert payload["t_c_conditional"] < payload["t_c"]

    def test_stability(self, capsys):
        code, payload = run_json(
            capsys, ["stability", "--beta", "1", "--g", "0.5",
                     "--sigma-w2", "2", "--sigma2", "1"],
        )
        assert code == 0
        assert payload["stable"] is True

    def test_stability_has_no_t_max(self, capsys):
        # the report is decided at t = 0, so there is no scan horizon to set
        argv = ["stability", "--g", "0.5", "--sigma2", "1.6"]
        assert dispatch(argv + ["--t-max", "5"]) == 2
        capsys.readouterr()
        code, payload = run_json(capsys, argv)
        assert code == 0
        assert payload == {
            "stable": False, "sufficient": False, "first_violation": 0.0,
        }

    def test_unknown_flag_exits_2(self, capsys):
        assert dispatch(["speciation", "--not-a-flag", "1"]) == 2

    def test_unknown_command_exits_2(self, capsys):
        assert dispatch(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["--g", "0.5", "--sigma2", "2"],
            # |g| >= beta: no stationary law, including the boundary
            ["--g", "1.2", "--sigma2", "0.5", "--m-plus2", "1", "--m-minus2", "1"],
            ["--g", "1", "--sigma2", "0.5", "--m-plus2", "1", "--m-minus2", "1"],
        ],
    )
    def test_unstable_exits_3(self, capsys, argv):
        code, payload = run_json(capsys, ["speciation", "--beta", "1", *argv])
        assert code == 3
        assert payload["regime"] == "unstable"
        assert payload["unstable_t"] == 0.0

    def test_invalid_domain_exits_2(self, capsys):
        code = dispatch(["speciation", "--beta", "-1"])
        assert code == 2

    def test_dry_run(self, capsys):
        code, payload = run_json(
            capsys, ["speciation", "--beta", "1", "--g", "0.2", "--dry-run"],
        )
        assert code == 0
        assert payload["dry_run"] is True
        assert payload["resolved"]["g"] == 0.2

    def test_every_subcommand_has_dry_run(self, capsys, tmp_path):
        commands = [
            ["speciation"],
            ["collapse", "--alpha", "1", "--ratio", "1"],
            ["stability"],
            ["phase-diagram"],
            ["sample"],
            ["toy-conditional"],
            ["clone-speciation"],
        ]
        for argv in commands:
            code = dispatch(argv + ["--dry-run"])
            capsys.readouterr()
            assert code == 0, argv


# the 384 runs of the collapse pin
COLLAPSE_GRID = [
    ["collapse", "--coupling", coupling, f"--beta={beta}", f"--g={g}",
     f"--alpha={alpha}", f"--ratio={ratio}"]
    for coupling, beta, g, alpha, ratio in itertools.product(
        ("symmetric", "anisotropic"), ("0.5", "1", "3", "7"),
        ("0", "0.2", "-0.4", "1.5"), ("0.1", "1", "5", "13"), ("0.3", "1", "4"),
    )
]


class TestOutputBytes:
    """Output bytes pinned before the speciation closed forms were shared
    and before the samplers shared one Euler-Maruyama loop; a change to the
    solvers, closed forms or sampler loops must reproduce them exactly."""

    @pytest.mark.parametrize(
        "argv, code, expected",
        [
            (["speciation", "--beta", "1.3", "--g", "-0.6", "--sigma-w2", "1.7",
              "--sigma2", "0.4", "--m-plus2", "1.5", "--m-minus2", "0.2"], 0,
             '{\n  "t_s": 0.5495260822418901,\n  "regime": "speciates",\n'
             '  "kappa0": 7.380506442912793,\n  "sup_kappa": 7.380506442912793\n}\n'),
            (["speciation", "--g", "0.4", "--m-plus2", "0.1", "--m-minus2", "0.2"], 0,
             '{\n  "t_s": null,\n  "regime": "no-speciation",\n'
             '  "kappa0": 0.8095238095238093,\n  "sup_kappa": 0.8095238095238093\n}\n'),
            (["speciation", "--g", "0.5", "--sigma2", "2"], 3,
             '{\n  "t_s": null,\n  "regime": "unstable",\n  "kappa0": null,\n'
             '  "sup_kappa": null,\n  "unstable_t": 0.0\n}\n'),
            (["speciation", "--coupling", "anisotropic", "--g", "0.5", "--theta", "0.4"], 0,
             '{\n  "t_s": 0.6991318251150286,\n  "regime": "speciates",\n'
             '  "kappa0": 3.078939005997115,\n  "sup_kappa": 3.078939005997115\n}\n'),
            (["stability", "--g", "0.5", "--sigma-w2", "2", "--sigma2", "1"], 0,
             '{\n  "stable": true,\n  "sufficient": true,\n  "first_violation": null\n}\n'),
            (["stability", "--g", "0.5", "--sigma2", "1.6"], 0,
             '{\n  "stable": false,\n  "sufficient": false,\n  "first_violation": 0.0\n}\n'),
        ],
    )
    def test_scalar_commands(self, capsys, argv, code, expected):
        assert dispatch(argv) == code
        assert capsys.readouterr().out == expected

    def test_phase_diagram_csv(self, tmp_path):
        out = tmp_path / "pd.csv"
        assert dispatch(
            ["phase-diagram", "--g-points", "25", "--theta-points", "12", "--out", str(out)]
        ) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "16536c1871d44285d0a5418f3d8dffd58d7d9b1e218572597c55129285b5b229"
        )

    @pytest.mark.parametrize(
        "config, digest",
        [
            # the phase-grid benchmark's config file
            ({"g_points": 25, "theta_points": 12},
             "16536c1871d44285d0a5418f3d8dffd58d7d9b1e218572597c55129285b5b229"),
            # the defaults: 21 x 9
            ({}, "0ae66556472bd96cec4e89be0dd06f43cb3313ea74872c21ea9dbe7b058c8ea8"),
        ],
    )
    def test_phase_diagram_csv_from_config(self, tmp_path, config, digest):
        # pinned before the time-only parts of Q(t) were shared by the scan
        cfg_path = tmp_path / "phase.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "pd.csv"
        assert dispatch(
            ["phase-diagram", "--config", str(cfg_path), "--jobs", "1", "--out", str(out)]
        ) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_toy_conditional_csv(self, tmp_path):
        # d > 2 and three chunks (16, 16, 8): the off-plane fill and a partial
        # chunk.  Pinned again when the moments became the exact step map:
        # only d_mse and d_nll moved, by RK4's error at h = 1/15
        cfg = {"theta_points": 2, "trials": 40, "steps": 30, "dim_d": 5, "chunk": 16}
        cfg_path = tmp_path / "toy.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "toy.csv"
        assert dispatch(
            ["toy-conditional", "--config", str(cfg_path), "--seed", "11", "--out", str(out)]
        ) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "4df4b7bb0605075194329f2e6b4d8094d83fb5356f7a38da99a94caeb238ee42"
        )

    # reverse and flow pinned again when Phi(t) and Q(t) became one closed
    # form on numpy's exp: 2 to 27 of 126 values moved, by at most 1e-15
    # relative
    @pytest.mark.parametrize(
        "coupling, mode, digest",
        [
            ("symmetric", "forward",
             "186974c298f73d2ca5d3d8615b55ea0237a1fe41ec841af7f90af99fa8a36edf"),
            ("symmetric", "reverse",
             "d00e10528c677097b34391ef37544d608f90874be2602f825ab92136d8fa54ff"),
            ("symmetric", "flow",
             "89797f027a2897f130c475c7ee5002bb1deb93911130136757f17c3ab80cef95"),
            ("anisotropic", "forward",
             "8b2a314a142a8b4ef908e480b8563a24116951de55fe7c8108bf25ff63e2a02b"),
            ("anisotropic", "reverse",
             "36abcfde70a2d25e3f15b401874a7c3f90b32a32fa2a71e7f370f56865311ad9"),
            ("anisotropic", "flow",
             "b7ee4a95a922690bac7079d33783260c03c5de046d50eff19b54aeca536a5b1c"),
        ],
    )
    def test_sample_csv(self, tmp_path, coupling, mode, digest):
        out = tmp_path / "sample.csv"
        assert dispatch(
            ["sample", "--mode", mode, "--coupling", coupling, "--g", "0.5", "--dim", "3",
             "--paths", "16", "--steps", "20", "--seed", "7", "--out", str(out)]
        ) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_collapse_grid(self, capsys):
        # pinned when the collapse solver took its one [t, 2t] bracket, which
        # moved t_c and t_c_conditional by at most 1.3e-11 relative, each
        # within 5e-11 of its 50-digit root (test_collapse_grid_against_mpmath).
        # alpha = 20 is left out: f is a difference of logarithms near 76
        # that rounds at ~1e-14, so which midpoint first meets |f| <= 1e-12
        # can change with the rounding; test_root_below_the_default_floor
        # checks alpha = 20 to rel 1e-9
        digest = hashlib.sha256()
        for argv in COLLAPSE_GRID:
            code = dispatch(argv)
            digest.update(f"{code}\n{capsys.readouterr().out}".encode())
        assert digest.hexdigest() == (
            "7fb40e1ff53885d8f1408feada58e75a344bbfc7bf4d60f0b431c2ab0c2d66ee"
        )

    def test_collapse_grid_against_mpmath(self, capsys):
        # every solved run of the pinned grid, against the 50-digit root of
        # its closed form: chi_pm for the symmetric route, and for the det
        # and conditional routes C = Phi Sigma0 Phi^T + Q with
        # Phi = e^{-beta t} [[1, 0], [g t, 1]], Sigma0 = ratio I and sW2 = 1
        mp = pytest.importorskip("mpmath")
        solved = 0
        for argv in COLLAPSE_GRID:
            if dispatch(argv) != 0:
                continue
            out = json.loads(capsys.readouterr().out)
            coupling = argv[2]
            beta, g, alpha, ratio = (float(a.split("=")[1]) for a in argv[3:])
            with mp.workdps(50):
                b, gg, al, r = (mp.mpf(v) for v in (beta, g, alpha, ratio))

                def f_sym(t):
                    return sum(mp.log1p(r * tau / mp.expm1(tau * t))
                               for tau in (2 * (b - gg), 2 * (b + gg))) - 4 * al

                def blocks(t):
                    a = 2 * b * t
                    e = mp.exp(-a)
                    q11 = -mp.expm1(-a) / (2 * b)
                    q12 = gg * (1 - e * (1 + a)) / (4 * b**2)
                    q22 = q11 + gg**2 * (1 - e * (1 + a + a * a / 2)) / (4 * b**3)
                    c11, c12 = q11 + r * e, q12 + r * e * gg * t
                    c22 = q22 + r * e * (1 + (gg * t) ** 2)
                    return (c11, c12, c22), (q11, q12, q22)

                def f_det(t):
                    (c11, c12, c22), (q11, q12, q22) = blocks(t)
                    return mp.log((c11 * c22 - c12**2) / (q11 * q22 - q12**2)) / 4 - al

                def f_cond(t):
                    (c11, c12, c22), (q11, q12, q22) = blocks(t)
                    return mp.log((c22 - c12**2 / c11) / (q22 - q12**2 / q11)) / 2 - al

                routes = (
                    [("t_c", f_sym)] if coupling == "symmetric"
                    else [("t_c", f_det), ("t_c_conditional", f_cond)]
                )
                for key, f in routes:
                    # in x = beta t, secant steps from the solver's root
                    x0 = mp.mpf(out[key]) * b
                    root = mp.findroot(lambda x: f(x / b), (x0, x0 * (1 + mp.mpf(1e-9)))) / b
                    assert abs(out[key] - root) <= 5e-11 * root, (argv, key)
            solved += 1
        assert solved == 360

    @pytest.mark.parametrize(
        "config, jobs, csv_digest, json_digest",
        [
            # the clone-sweep benchmark's config at seed 1
            ({"g_list": [0.0, 0.5], "dim_d": 16, "scan_count": 12, "batch": 128,
              "steps": 200, "repeats": 1, "horizon": 4.0, "baseline_factor": 4,
              "seed": 1}, "1",
             "e7773cb4e1199360fe22568f21299fdc2e32341bdcb121d926e5a0c0efe87003",
             "30c66977dfa7e27466a38f41e046c06348584f17e9e076248ef9400faf056099"),
            # h = 0.8: the scan times 4/3 and 2 both snap to step 2
            ({"g_list": [0.0, 0.3], "dim_d": 4, "scan_count": 7, "batch": 16,
              "steps": 5, "repeats": 2, "horizon": 4.0, "seed": 3}, "2",
             "8c1ded430d863a41294e6aa50941619bd974f14d68979c76698669ff5827b73d",
             "1ffdc2f0b478cd5988a96a2c89e6b0f1f6cf4d89ca11b368833f3faa93726187"),
        ],
    )
    def test_clone_speciation_outputs(self, tmp_path, config, jobs, csv_digest,
                                      json_digest):
        # pinned before the clone loop ran its steps in place
        cfg_path = tmp_path / "clone.json"
        cfg_path.write_text(json.dumps(config))
        out, summary = tmp_path / "curves.csv", tmp_path / "summary.json"
        assert dispatch(
            ["clone-speciation", "--config", str(cfg_path), "--jobs", jobs,
             "--out", str(out), "--summary-out", str(summary)]
        ) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_digest
        assert hashlib.sha256(summary.read_bytes()).hexdigest() == json_digest

    # pinned before the phase-diagram flags and fields became one table:
    # the help text keeps each subcommand's flag order, the dry run its
    # resolved config
    @pytest.mark.parametrize(
        "command, digest",
        [
            ("speciation",
             "4561daeb3fd081ea05bf53774a838e14d225e26f0c83026177abcc8a24574bef"),
            ("collapse",
             "29f4790589ad915da48b5deb66a6237854542d0d14e3717a3dfa159267802ae4"),
            ("stability",
             "19dce1ab1ba74c312041b9c0294338786962595d39bd061592b46f12fa5e226c"),
            ("phase-diagram",
             "ae212a709d0be798eda1b8e0f1f79abefc38317d54f6a614a61f5f6a5f956138"),
            ("sample",
             "8d0f7bfed9a70a8b34cf2a4033ebe7c11870577089b19a3547d940413b7c8209"),
            ("toy-conditional",
             "3010b008eb854bc18cc6a4c616c6412a8b9dfcdd195ea42099cf8e8a1596f3db"),
            ("clone-speciation",
             "607f113c9d67957765066af45c092511851f8e016d20d5b9b9cd56d79daee433"),
        ],
    )
    def test_help_text(self, capsys, monkeypatch, command, digest):
        # argparse wraps its help to the terminal width
        monkeypatch.setenv("COLUMNS", "80")
        assert dispatch([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["speciation"],
             "688f23b42777f6884be377385448d7f2b4a49a4fefa32ff8d77f1668ee2861a2"),
            (["collapse", "--alpha", "1", "--ratio", "1"],
             "e399b1ea3d2e6daa0bb7c7a4f3e4b066c5810b7c5c4c0fefec8c72be1ce46244"),
            (["stability"],
             "c44965f78a5ef9970a6affefa5d84e8339e54d88a2a4f698955131880da1246c"),
            (["phase-diagram"],
             "22436ad702dc59971b62a74e32ac24962f6a485fb9374410ad47092da343a382"),
            (["sample"],
             "0c78f8527139050c47e49a94ef3ba4080c026180a044144d078681664fbcc4d9"),
            (["toy-conditional"],
             "25cae4728b029f608797850338f841aed1ba316337ba96f1c0c6e851eecef6b3"),
            (["clone-speciation"],
             "0746f2825a3fdd634dc9734c12bc23354e54bc7b00bdf4ce5876b8bb255072dd"),
        ],
        ids=lambda v: v[0] if isinstance(v, list) else None,
    )
    def test_dry_run_json(self, capsys, monkeypatch, argv, digest):
        monkeypatch.delenv("OUDIFF_SEED", raising=False)
        assert dispatch([*argv, "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSweeps:
    def test_phase_diagram_header_and_values(self, tmp_path):
        out = tmp_path / "pd.csv"
        code = dispatch(
            ["phase-diagram", "--g-points", "2", "--theta-points", "2",
             "--g-max", "1.0", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "g,theta,regime,t_s,kappa0,g_crit"
        first = lines[1].split(",")
        assert first[2] == "speciates"
        assert float(first[5]) == pytest.approx(1.5)

    def test_phase_diagram_reports_failed_cells(self, tmp_path, capsys):
        argv = ["phase-diagram", "--g-points", "3", "--theta-points", "2",
                "--t-max-search", "0.1"]
        assert dispatch(argv) == 0
        out, err = capsys.readouterr()
        rows = [line.split(",") for line in out.splitlines()[1:]]
        failed = [(row[0], row[1]) for row in rows if row[2] == "error"]
        assert failed
        assert err.splitlines() == [
            f"oudiff: phase cell g={g}, theta={theta}: kappa > 1 at the end of "
            "the search window; increase t_max_search"
            for g, theta in failed
        ]
        # the messages go to stderr only: the CSV is the same with --out
        path = tmp_path / "pd.csv"
        assert dispatch(argv + ["--out", str(path)]) == 0
        assert path.read_text() == out
        assert capsys.readouterr() == ("", err)

    def test_toy_csv_schema(self, tmp_path):
        cfg = {
            "theta_points": 2, "g0_set": [0.5], "schedules": ["constant"],
            "trials": 20, "steps": 20, "dim_d": 4, "chunk": 10,
        }
        cfg_path = tmp_path / "toy.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "toy.csv"
        code = dispatch(
            ["toy-conditional", "--config", str(cfg_path), "--seed", "3",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "theta,g0,schedule,d_accuracy,d_mse,d_nll,acc_ci_lo,acc_ci_hi,n"
        )
        assert len(lines) == 3

    def test_clone_csv_schema(self, tmp_path, capsys):
        cfg = {
            "g_list": [0.0], "dim_d": 4, "scan_count": 3,
            "repeats": 1, "batch": 8, "steps": 20,
        }
        cfg_path = tmp_path / "clone.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "clone.csv"
        code = dispatch(
            ["clone-speciation", "--config", str(cfg_path), "--seed", "3",
             "--out", str(out), "--summary-out", str(tmp_path / "s.json")]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "g,scan_t,phi_u,phi_u_lo,phi_u_hi,phi_u_ex,"
            "phi_v,phi_v_lo,phi_v_hi,phi_v_ex"
        )
        summary = json.loads((tmp_path / "s.json").read_text())
        assert summary[0]["g"] == 0.0

    @pytest.mark.parametrize(
        "command, bad",
        [
            ("toy-conditional", {"steps": 0}),
            ("toy-conditional", {"chunk": 0}),
            ("clone-speciation", {"steps": 0}),
        ],
    )
    def test_non_positive_size_exits_2(self, tmp_path, capsys, command, bad):
        # the check runs when the config is built, before any sampling or
        # worker pool, so a zero chunk cannot loop
        cfg = (
            {"theta_points": 1, "g0_set": [0.5], "schedules": ["constant"],
             "trials": 4, "steps": 4, "dim_d": 2, "chunk": 4}
            if command == "toy-conditional"
            else {"g_list": [0.0], "dim_d": 2, "scan_count": 2,
                  "repeats": 1, "batch": 4, "steps": 4}
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**cfg, **bad}))
        code = dispatch(
            [command, "--config", str(cfg_path), "--jobs", "2",
             "--out", str(tmp_path / "o.csv"),
             *(["--summary-out", str(tmp_path / "s.json")]
               if command == "clone-speciation" else [])]
        )
        assert code == 2
        name = next(iter(bad))
        assert f"{name} must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("dry_run", [False, True])
    @pytest.mark.parametrize(
        "command, bad",
        [
            ("toy-conditional", {"trials": 2.5}),
            ("toy-conditional", {"trials": True}),
            ("toy-conditional", {"chunk": 4.0}),
            ("clone-speciation", {"batch": 2.5}),
            ("clone-speciation", {"steps": True}),
        ],
    )
    def test_non_integer_size_exits_2(self, tmp_path, capsys, command, bad, dry_run):
        cfg = (
            {"theta_points": 1, "g0_set": [0.5], "schedules": ["constant"],
             "trials": 4, "steps": 4, "dim_d": 2, "chunk": 4}
            if command == "toy-conditional"
            else {"g_list": [0.0], "dim_d": 2, "scan_count": 2,
                  "repeats": 1, "batch": 4, "steps": 4}
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**cfg, **bad}))
        code = dispatch(
            [command, "--config", str(cfg_path), "--jobs", "2",
             "--out", str(tmp_path / "o.csv"),
             *(["--dry-run"] if dry_run else [])]
        )
        assert code == 2
        name = next(iter(bad))
        assert f"{name} must be an integer, got {bad[name]!r}" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("dry_run", [False, True])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize(
        "command", ["toy-conditional", "clone-speciation", "speciation"]
    )
    def test_jobs_below_one_exits_2(self, tmp_path, capsys, command, jobs, dry_run):
        out = tmp_path / "o.csv"
        code = dispatch(
            [command, "--jobs", jobs, "--out", str(out),
             *(["--dry-run"] if dry_run else [])]
        )
        assert code == 2
        assert f"jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dry_run", [False, True])
    @pytest.mark.parametrize(
        "config, flags, message",
        [
            ({"g_points": 2.5}, [], "g_points must be an integer, got 2.5"),
            ({"theta_points": True}, [], "theta_points must be an integer, got True"),
            ({}, ["--g-points", "0", "--theta-points", "2"],
             "g_points must be >= 1, got 0"),
            ({"theta_points": -1}, [], "theta_points must be >= 1, got -1"),
        ],
    )
    def test_phase_grid_size_checked(
        self, tmp_path, capsys, config, flags, message, dry_run
    ):
        cfg_path = tmp_path / "pd.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "pd.csv"
        code = dispatch(
            ["phase-diagram", "--config", str(cfg_path), *flags, "--out", str(out),
             *(["--dry-run"] if dry_run else [])]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dry_run", [False, True])
    def test_non_finite_clone_threshold_exits_2(self, tmp_path, capsys, dry_run):
        # a NaN threshold would report every crossing censored
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            '{"g_list": [0.0], "dim_d": 2, "scan_count": 2, "repeats": 1, '
            '"batch": 4, "steps": 4, "threshold": NaN}'
        )
        code = dispatch(
            ["clone-speciation", "--config", str(cfg_path),
             "--out", str(tmp_path / "o.csv"),
             "--summary-out", str(tmp_path / "s.json"),
             *(["--dry-run"] if dry_run else [])]
        )
        assert code == 2
        assert "threshold must be finite, got nan" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "command, empty",
        [
            ("toy-conditional", "g0_set"),
            ("toy-conditional", "schedules"),
            ("clone-speciation", "g_list"),
        ],
    )
    def test_empty_sweep_list_exits_2(self, tmp_path, capsys, command, empty):
        # an empty list would leave nothing to sweep: a header-only CSV
        cfg = (
            {"theta_points": 1, "g0_set": [0.5], "schedules": ["constant"],
             "trials": 4, "steps": 4, "dim_d": 2, "chunk": 4}
            if command == "toy-conditional"
            else {"g_list": [0.0], "dim_d": 2, "scan_count": 2,
                  "repeats": 1, "batch": 4, "steps": 4}
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**cfg, empty: []}))
        code = dispatch(
            [command, "--config", str(cfg_path), "--out", str(tmp_path / "o.csv"),
             *(["--summary-out", str(tmp_path / "s.json")]
               if command == "clone-speciation" else [])]
        )
        assert code == 2
        assert f"{empty} must hold at least one value" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_diverged_toy_run_exits_2(self, tmp_path, capsys):
        # a noise variance at the edge of the float range drives the
        # reverse loop to inf and nan, means there overflow the
        # log-density, and a relaxation rate there overflows the off-plane
        # weights; the pairs or the metrics are refused, not reduced to
        # nan metrics
        base = {"theta_points": 1, "g0_set": [0.5], "schedules": ["constant"],
                "trials": 4, "steps": 4, "dim_d": 4, "chunk": 4}
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "o.csv"
        for extra in ({"sigma_w2": 1e308}, {"m2": 1e308}, {"beta": 1e300}):
            cfg_path.write_text(json.dumps({**base, **extra}))
            code = dispatch(
                ["toy-conditional", "--config", str(cfg_path), "--out", str(out)]
            )
            assert code == 2, extra
            assert "non-finite values" in capsys.readouterr().err
            assert not out.exists()

    def test_accepted_config_fields(self):
        assert TOY_FIELDS == {
            "theta_points", "g0_set", "schedules", "trials", "steps", "dim_d",
            "horizon", "t0", "beta", "sigma_w2", "sigma2", "m2", "seed", "chunk",
        }
        assert CLONE_FIELDS == {
            "g_list", "dim_d", "beta", "sigma_w2", "sigma2", "m_plus2", "m_minus2",
            "scan_count", "repeats", "batch", "steps", "horizon", "threshold",
            "baseline_factor", "seed",
        }

    def test_unknown_config_field_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"no_such_field": 1}))
        code = dispatch(["toy-conditional", "--config", str(cfg_path)])
        assert code == 2

    def test_jobs_determinism(self, tmp_path):
        cfg = {
            "theta_points": 2, "g0_set": [0.2, 0.5], "schedules": ["constant"],
            "trials": 16, "steps": 16, "dim_d": 4, "chunk": 8,
        }
        cfg_path = tmp_path / "toy.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for jobs in ("1", "2", "3"):
            out = tmp_path / f"toy-{jobs}.csv"
            code = dispatch(
                ["toy-conditional", "--config", str(cfg_path), "--seed", "9",
                 "--jobs", jobs, "--out", str(out)]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_unwritable_path_exits_4(self, capsys):
        code = dispatch(
            ["phase-diagram", "--g-points", "1", "--theta-points", "1",
             "--out", "/no/such/dir/pd.csv"]
        )
        assert code == 4

    def test_sample_reverse_and_flow(self, tmp_path, capsys):
        angled = ["--coupling", "anisotropic", "--g", "0.6",
                  "--m-x2", "1.2", "--m-y2", "0.8", "--theta", "0.7"]
        for mode in ("forward", "reverse", "flow"):
            for means in ([], angled):
                out = tmp_path / f"{mode}.csv"
                code = dispatch(
                    ["sample", "--mode", mode, "--paths", "16", "--steps", "10",
                     "--dim", "2", "--seed", "1", *means, "--out", str(out)]
                )
                assert code == 0
                lines = out.read_text().splitlines()
                assert lines[0] == "t,mean_x,mean_y,var_x,var_y,cov_xy"
                assert len(lines) == 12
                assert "nan" not in out.read_text()
        out = tmp_path / "both.csv"
        code = dispatch(
            ["sample", "--m-plus2", "1", "--m-x2", "1", "--out", str(out)]
        )
        assert code == 2
        assert "either mode norms or angled norms, not both" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dry_run", [False, True])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--mode", "reverse", "--paths", "0"], "paths must be >= 1, got 0"),
            (["--mode", "flow", "--paths", "0"], "paths must be >= 1, got 0"),
            (["--paths", "-2"], "paths must be >= 1, got -2"),
            (["--steps", "0"], "steps must be >= 1, got 0"),
            (["--dim", "0"], "dim must be >= 1, got 0"),
            (["--mode", "reverse", "--horizon", "-1"],
             "horizon must be finite and > 0, got -1.0"),
        ],
        ids=["reverse-paths-0", "flow-paths-0", "paths-neg", "steps-0", "dim-0",
             "reverse-horizon-neg"],
    )
    def test_sample_sizes_checked_on_entry(self, tmp_path, capsys, flags, message, dry_run):
        out = tmp_path / "s.csv"
        code = dispatch(
            ["sample", *flags, "--out", str(out), *(["--dry-run"] if dry_run else [])]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--mode", "flow", "--beta", "1e-300", "--sigma-w2", "1e308"],
             "stationary covariance out of float range at beta=1e-300"),
            (["--mode", "reverse", "--beta", "1e150"],
             "sample statistics hold non-finite values (mean_x, mean_y, var_x, var_y, "
             "cov_xy); the run diverged"),
            (["--mode", "forward", "--horizon", "1e308", "--dim", "2", "--paths", "2",
              "--steps", "3"],
             "sample statistics hold non-finite values (mean_x, mean_y, var_x, var_y, "
             "cov_xy); the run diverged"),
        ],
        ids=["flow-tiny-beta", "reverse-huge-beta", "forward-huge-horizon"],
    )
    def test_sample_out_of_range_exits_2(self, tmp_path, capsys, flags, message):
        # the stationary law overflows, or the paths do (from a finite start
        # law of variance 1e-150 at beta=1e150): refused on one line, with
        # no file written
        out = tmp_path / "s.csv"
        code = dispatch(["sample", "--coupling", "anisotropic", *flags, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"oudiff: invalid configuration: {message}\n"
        assert not out.exists()


class TestParser:
    """dispatch builds only the invoked subcommand's arguments; whatever
    argparse prints must read as it does from the full parser."""

    @pytest.mark.parametrize(
        "argv",
        [
            *([name, "--help"] for name in SUBCOMMANDS),
            ["--help"],
            ["-h", "speciation"],
            [],
            ["no-such-command"],
            ["speciation", "--no-such-flag"],
            ["clone-speciation", "extra"],
            ["sample", "--paths", "many"],
            ["sample", "--mode", "sideways"],
            ["collapse", "--alpha", "1"],
        ],
        ids=lambda argv: " ".join(argv) or "empty",
    )
    def test_messages_match_full_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        want = (exc.value.code or 0, *capsys.readouterr())
        code = dispatch(argv)
        assert (code, *capsys.readouterr()) == want

    @pytest.mark.parametrize(
        "argv, last_line",
        [
            (["frob"], "oudiff: error: argument command: invalid choice: 'frob' (choose "
             "from 'speciation', 'collapse', 'stability', 'phase-diagram', 'sample', "
             "'toy-conditional', 'clone-speciation')"),
            ([], "oudiff: error: the following arguments are required: command"),
        ],
    )
    def test_full_parser_errors_name_the_command(self, capsys, argv, last_line):
        assert dispatch(argv) == 2
        assert capsys.readouterr().err.splitlines()[-1] == last_line

    @pytest.mark.parametrize(
        "argv",
        [
            ["speciation", "--g", "0.3"],
            ["collapse", "--alpha", "1", "--ratio", "2"],
            ["stability"],
            ["phase-diagram", "--g-points", "3"],
            ["sample", "--paths", "3", "--jobs", "2", "--dry-run"],
            ["toy-conditional", "--trials", "4"],
            ["clone-speciation", "--summary-out", "s.json"],
        ],
    )
    def test_one_subcommand_parses_as_full(self, argv):
        assert build_parser(argv[0]).parse_args(argv) == build_parser().parse_args(argv)


class TestSeedResolution:
    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        cfg = {
            "theta_points": 1, "g0_set": [0.5], "schedules": ["constant"],
            "trials": 8, "steps": 8, "dim_d": 4, "chunk": 8,
        }
        cfg_path = tmp_path / "toy.json"
        cfg_path.write_text(json.dumps(cfg))

        def run(seed_env, extra):
            if seed_env is None:
                monkeypatch.delenv("OUDIFF_SEED", raising=False)
            else:
                monkeypatch.setenv("OUDIFF_SEED", seed_env)
            out = tmp_path / "o.csv"
            assert dispatch(
                ["toy-conditional", "--config", str(cfg_path), "--out", str(out)]
                + extra
            ) == 0
            return out.read_bytes()

        env7 = run("7", [])
        flag7 = run("99", ["--seed", "7"])  # flag wins over env
        assert env7 == flag7
        env8 = run("8", [])
        assert env8 != env7

    @pytest.mark.parametrize("dry_run", [False, True])
    @pytest.mark.parametrize(
        "config_seed, flags, env, message",
        [
            (2.7, [], None, "config seed must be an integer >= 0, got 2.7"),
            (True, [], None, "config seed must be an integer >= 0, got True"),
            (-1, [], None, "config seed must be an integer >= 0, got -1"),
            (None, ["--seed", "-1"], None, "--seed must be an integer >= 0, got -1"),
            (None, [], "-3", "OUDIFF_SEED must be an integer >= 0, got -3"),
            (None, [], "2.7", "OUDIFF_SEED must be an integer >= 0, got '2.7'"),
        ],
    )
    def test_bad_seed_exits_2(
        self, tmp_path, capsys, monkeypatch, config_seed, flags, env, message, dry_run
    ):
        cfg = {
            "theta_points": 1, "g0_set": [0.5], "schedules": ["constant"],
            "trials": 4, "steps": 4, "dim_d": 2, "chunk": 4,
        }
        if config_seed is not None:
            cfg["seed"] = config_seed
        cfg_path = tmp_path / "toy.json"
        cfg_path.write_text(json.dumps(cfg))
        if env is None:
            monkeypatch.delenv("OUDIFF_SEED", raising=False)
        else:
            monkeypatch.setenv("OUDIFF_SEED", env)
        out = tmp_path / "o.csv"
        code = dispatch(
            ["toy-conditional", "--config", str(cfg_path), *flags, "--out", str(out),
             *(["--dry-run"] if dry_run else [])]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sample", "clone-speciation"])
    def test_bad_seed_rejected_by_every_sampler(self, capsys, monkeypatch, command):
        monkeypatch.setenv("OUDIFF_SEED", "-3")
        assert dispatch([command, "--dry-run"]) == 2
        assert "OUDIFF_SEED must be an integer >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config", "env"])
    def test_seed_zero_is_valid(self, tmp_path, capsys, monkeypatch, source):
        cfg = {"theta_points": 1, "g0_set": [0.5], "schedules": ["constant"],
               "trials": 4, "steps": 4, "dim_d": 2, "chunk": 4}
        if source == "config":
            cfg["seed"] = 0
        cfg_path = tmp_path / "toy.json"
        cfg_path.write_text(json.dumps(cfg))
        monkeypatch.setenv("OUDIFF_SEED", "0" if source == "env" else "5")
        flags = ["--seed", "0"] if source == "flag" else []
        argv = ["toy-conditional", "--config", str(cfg_path), *flags]
        code, payload = run_json(capsys, argv + ["--dry-run"])
        assert code == 0
        assert payload["resolved"]["seed"] == 0
        assert dispatch(argv + ["--out", str(tmp_path / "o.csv")]) == 0

    def test_float_round_trip_in_csv(self, tmp_path):
        out = tmp_path / "pd.csv"
        dispatch(
            ["phase-diagram", "--g-points", "2", "--theta-points", "2",
             "--g-max", "0.7", "--out", str(out)]
        )
        lines = out.read_text().splitlines()[1:]
        for line in lines:
            t_s = line.split(",")[3]
            if t_s:
                v = float(t_s)
                assert repr(v) == t_s  # shortest round-trip form


def test_import_loads_no_scipy():
    # scipy's import costs more than every closed form of a CLI run; the
    # package needs numpy only, so a fresh interpreter must not load it
    src = Path(oudiff.__file__).resolve().parents[1]
    probe = (
        "import sys, oudiff, oudiff.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["speciation", "--coupling", "anisotropic", "--beta", "1e308", "--g", "1",
          "--sigma-w2", "1.001"],
         "kappa is nan on the scan grid; the closed forms left the float range"),
        (["speciation", "--beta=6.606718364637808e+16", "--g=1.959963984540054",
          "--sigma-w2=1.5074266548272768e+23", "--sigma2=2.1566302402241094e-297",
          "--m-plus2=1.5748310411821335e+134", "--m-minus2=2.1566302402241094e-297"],
         "kappa is infinite on the scan grid; the closed forms left the float range"),
        (["sample", "--mode", "forward", "--coupling", "anisotropic", "--horizon", "1e308",
          "--dim", "2", "--paths", "2", "--steps", "3"],
         "sample statistics hold non-finite values (mean_x, mean_y, var_x, var_y, "
         "cov_xy); the run diverged"),
        # the root, below the bound ratio e^(-2 alpha) ~ 5e-313, is subnormal
        (["collapse", "--alpha", "360", "--ratio", "1"],
         "collapse time underflows at alpha=360.0, ratio=1.0"),
        (["collapse", "--alpha", "360", "--ratio", "1", "--coupling", "anisotropic",
          "--g", "0.5"],
         "collapse time underflows at alpha=360.0, ratio=1.0"),
        # linspace(0, inf, 2) is [nan, inf]: the dry run checks the grid as the run does
        (["phase-diagram", "--theta-max=inf", "--theta-points=2", "--g-points=1", "--dry-run"],
         "theta=nan outside [0, pi]"),
    ],
    ids=["speciation-huge-beta", "speciation-symmetric-overflow",
         "sample-huge-horizon", "collapse-subnormal-root", "collapse-subnormal-root-anisotropic",
         "phase-diagram-infinite-theta-dry-run"],
)
def test_out_of_range_refusal_is_one_stderr_line(argv, message):
    # in a fresh interpreter, where numpy's RuntimeWarnings reach stderr as
    # they do from the command line instead of raising as errors here
    src = Path(oudiff.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", "from oudiff.cli import main; main()", *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"oudiff: invalid configuration: {message}\n"


def _mp_aniso_kappa(mp, beta, g, sw2, s2, stats, t):
    """50-digit kappa(t) = sW2 mu^T C^-1 (M + sW2 C^-1)^-1 C^-1 mu of one-way
    coupling, with C(t) = Phi diag(s2, s2) Phi^T + Q(t) and Q(t) by
    quadrature; ``stats`` are (mxx, myy, mxy) at t = 0."""
    b, g, sw2, s2, t = (mp.mpf(x) for x in (beta, g, sw2, s2, t))
    mxx, myy, mxy = (mp.mpf(x) for x in stats)
    phi = mp.exp(-b * t) * mp.matrix([[1, 0], [g * t, 1]])
    # the means at t are Phi mu, so their statistics are quadratic in Phi
    mxx, myy, mxy = (
        phi[0, 0] ** 2 * mxx,
        phi[1, 0] ** 2 * mxx + 2 * phi[1, 0] * phi[1, 1] * mxy + phi[1, 1] ** 2 * myy,
        phi[0, 0] * (phi[1, 0] * mxx + phi[1, 1] * mxy),
    )
    q = mp.matrix(2, 2)
    for i, j, w in ((0, 0, lambda s: 1), (0, 1, lambda s: g * s),
                    (1, 1, lambda s: 1 + g * g * s * s)):
        q[i, j] = q[j, i] = sw2 * mp.quad(lambda s: w(s) * mp.exp(-2 * b * s), [0, t])
    cinv = (s2 * phi * phi.T + q) ** -1
    k = cinv * (mp.matrix([[-b, 0], [g, -b]]) + sw2 * cinv) ** -1 * cinv * sw2
    return k[0, 0] * mxx + (k[0, 1] + k[1, 0]) * mxy + k[1, 1] * myy


def test_crossing_far_below_the_scan_solves():
    # with every value 5.18e-81 the crossing lies some 80 decades below
    # 1 / beta and below the deepest scan point (10 / beta) 2^-40 ~ 1.8e69;
    # the bisection follows its bracket down to it, in a fresh interpreter
    # so that a numpy RuntimeWarning would reach stderr
    mp = pytest.importorskip("mpmath")
    v = 5.179327711732039e-81
    src = Path(oudiff.__file__).resolve().parents[1]
    flags = ("beta", "g", "sigma-w2", "sigma2", "m-plus2", "m-minus2")
    done = subprocess.run(
        [sys.executable, "-c", "from oudiff.cli import main; main()", "speciation",
         "--coupling", "anisotropic", *(f"--{flag}={v!r}" for flag in flags)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True,
    )
    assert (done.returncode, done.stderr) == (0, "")
    payload = json.loads(done.stdout)
    assert payload["regime"] == "speciates"
    stats = MixtureInit(v, v, ModeMeans(v, v)).channel_stats()
    with mp.workdps(50):
        root = mp.findroot(lambda t: _mp_aniso_kappa(mp, v, v, v, v, stats, t) - 1, 1.0)
        assert abs(payload["t_s"] - root) <= 1e-10 * root


@pytest.mark.parametrize("window", ["1e30", "1e40", "1e300"])
def test_wide_speciation_window_solves(capsys, window):
    # the scan refines down to (10 / beta) 2^-40 in any window, as densely
    # near 0 as the default window, so it brackets the crossing at
    # ln(2) / 2 and the bisection sharpens it to the tolerance
    code, payload = run_json(
        capsys, ["speciation", "--m-plus2", "1", "--m-minus2", "0", "--t-max-search", window]
    )
    assert (code, payload["regime"]) == (0, "speciates")
    assert payload["t_s"] == pytest.approx(math.log(2.0) / 2.0, rel=1e-9)
