import hashlib
import json
import re
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

from nnapprox.cli import main
from nnapprox.network import network_from_json, path_matrix, path_norm


@pytest.fixture
def runner():
    return CliRunner()


def test_build_then_eval_mult(runner, tmp_path):
    net_path = tmp_path / "net.json"
    res = runner.invoke(main, ["build", "mult", "--m", "4", "--variant", "rescaled", "--out", str(net_path)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["eval", str(net_path), "--input", "1,0.5,0.5"])
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)
    assert abs(out["output"][0] - 0.25) <= 3 * 2.0**-10


def test_eval_bad_input_length_usage_error(runner, tmp_path):
    net_path = tmp_path / "net.json"
    runner.invoke(main, ["build", "sq", "--m", "1", "--out", str(net_path)])
    res = runner.invoke(main, ["eval", str(net_path), "--input", "1,2,3"])
    assert res.exit_code == 2


def test_path_norm_command(runner, tmp_path):
    net_path = tmp_path / "net.json"
    runner.invoke(main, ["build", "mult", "--m", "1", "--variant", "literal", "--out", str(net_path)])
    res = runner.invoke(main, ["path-norm", str(net_path)])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["path_norm"] == pytest.approx(3.75)


def test_verify_pass_and_fail_exit_codes(runner):
    res = runner.invoke(main, ["verify", "sq", "--m", "3"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["passed"] is True
    # impossible override bound forces a verification failure -> exit 1
    res = runner.invoke(main, ["verify", "sq", "--m", "3", "--bound", "1e-12"])
    assert res.exit_code == 1
    assert json.loads(res.output)["passed"] is False


def test_verify_grid_defaults_come_from_the_verifiers(runner):
    rep = json.loads(runner.invoke(main, ["verify", "sq", "--m", "3"]).output)
    assert rep["grid"] == {"points": 10000, "domain": "x in [0,1]"}
    rep = json.loads(runner.invoke(main, ["verify", "sq", "--m", "3", "--grid", "17"]).output)
    assert rep["grid"]["points"] == 17
    res = runner.invoke(main, ["verify", "mon", "--m", "3", "--gamma", "2", "--d", "2", "--variant", "literal"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["grid"] == {"points_per_axis": 51, "domain": "[0,0.5]^2"}


def test_verify_mon_example(runner):
    res = runner.invoke(
        main,
        ["verify", "mon", "--m", "6", "--gamma", "3", "--d", "2", "--variant", "rescaled", "--grid", "51"],
    )
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)
    assert rep["passed"] and rep["measured_max_error"] <= 3 * 9 * 4.0**-6


def test_entropy_bound_example(runner):
    res = runner.invoke(
        main,
        ["entropy", "bound", "--eps", "1", "--l", "0", "--p", "1,1", "--b", "1", "--r", "1", "--n", "8"],
    )
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["network_bound"] == pytest.approx(np.log2(3))


def test_entropy_empirical(runner, tmp_path):
    spec = {"eps": 0.5, "L": 1, "p": [1, 2, 1], "B": 1.0, "r": 1.0, "n": 8, "activation": "abs"}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    res = runner.invoke(main, ["entropy", "empirical", "--spec", str(spec_path), "--trials", "500"])
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)
    assert out["consistent"] is True
    assert out["margin_bits"] == out["network_bound"] - out["log2_cover_size"]
    assert out["margin_bits"] >= 0
    # no samples would give a cover of size 0 and an infinite margin
    res = runner.invoke(main, ["entropy", "empirical", "--spec", str(spec_path), "--trials", "0"])
    assert res.exit_code == 2


def test_approx_power_series(runner):
    res = runner.invoke(main, ["approx", "power-series", "--eps", "0.0625", "--delta", "0.25"])
    assert res.exit_code == 0, res.output
    cert = json.loads(res.output)
    assert cert["path_norm"] <= cert["path_norm_bound"]


def test_approx_power_series_from_file(runner, tmp_path):
    poly_path = tmp_path / "poly.json"
    poly_path.write_text(json.dumps({"d": 1, "terms": [[[0], 0.5], [[2], 1.0]]}))
    res = runner.invoke(
        main,
        ["approx", "power-series", "--series", str(poly_path), "--eps", "0.0625", "--delta", "0.5"],
    )
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["F"] == 1.5


def test_approx_cheb(runner):
    res = runner.invoke(main, ["approx", "cheb", "--target", "exp-sum", "--eps", "0.03125"])
    assert res.exit_code == 0, res.output
    cert = json.loads(res.output)
    assert cert["measured_sup_error"] < 0.05


def test_approx_cheb_polynomial_file_and_net_out(runner, tmp_path):
    from nnapprox import evaluate, network_from_json

    poly_path, net_path = tmp_path / "poly.json", tmp_path / "net.json"
    poly_path.write_text(json.dumps({"d": 1, "terms": [[[0], 0.25], [[2], 0.5]]}))
    res = runner.invoke(
        main, ["approx", "cheb", "--target", str(poly_path), "--eps", "0.0625", "--net-out", str(net_path)]
    )
    assert res.exit_code == 0, res.output
    cert = json.loads(res.output)
    assert cert["target"] == "poly.json" and cert["measured_sup_error"] < 0.0625
    net = network_from_json(net_path.read_text())
    assert (net.depth, net.max_width) == (cert["depth"], cert["max_width"])
    x = np.linspace(0, 1, 33)
    y = evaluate(net, np.column_stack([np.ones_like(x), x]))[:, 0]
    # x lies on the certificate's 513-point grid
    assert np.abs(y - (0.25 + 0.5 * x * x)).max() <= cert["measured_sup_error"] + 1e-12


@pytest.mark.parametrize(
    "args, builtin",
    [
        (["approx", "cheb", "--target", "inv2mx", "--eps", "0.0625"], {"target": "inv2mx", "rho": 3 + 2 * 2**0.5}),
        (["approx", "power-series", "--series", "inv2mx", "--eps", "0.0625", "--delta", "0.5"], {"F": 1.0}),
    ],
    ids=["cheb", "power-series"],
)
def test_approx_builtin_name_wins_over_a_file_of_that_name(runner, tmp_path, monkeypatch, args, builtin):
    # a polynomial file called inv2mx in the working directory (its F is 1.5)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "inv2mx").write_text(json.dumps({"d": 1, "terms": [[[0], 0.5], [[2], 1.0]]}))
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    cert = json.loads(res.output)
    assert {k: cert[k] for k in builtin} == pytest.approx(builtin)


def test_approx_cheb_d_may_repeat_the_polynomial_files_d(runner, tmp_path):
    poly_path = tmp_path / "p2.json"
    poly_path.write_text(json.dumps({"d": 2, "terms": [[[1, 1], 0.5]]}))
    args = ["approx", "cheb", "--target", str(poly_path), "--eps", "0.25"]
    plain, explicit = (runner.invoke(main, a) for a in (args, args + ["--d", "2"]))
    assert plain.exit_code == explicit.exit_code == 0, explicit.output
    assert json.loads(explicit.output) == json.loads(plain.output)
    assert json.loads(plain.output)["d"] == 2


@pytest.mark.parametrize(
    "args",
    [["approx", "power-series", "--eps", "0.0625", "--delta", "0.25"], ["regress", "--n", "16", "--epochs", "2"]],
    ids=["power-series", "regress"],
)
def test_net_out_writes_the_network(runner, tmp_path, args):
    from nnapprox import network_from_json

    net_path = tmp_path / "net.json"
    res = runner.invoke(main, [*args, "--net-out", str(net_path)])
    assert res.exit_code == 0, res.output
    net = network_from_json(net_path.read_text())
    assert (net.in_dim, net.out_dim) == (2, 1)


def test_build_mon_writes_the_network(runner, tmp_path):
    from nnapprox import build_mon, evaluate, network_from_json

    net_path = tmp_path / "mon.json"
    res = runner.invoke(main, ["build", "mon", "--m", "2", "--gamma", "3", "--d", "2", "--out", str(net_path)])
    assert res.exit_code == 0, res.output
    net = network_from_json(net_path.read_text())
    direct = build_mon(2, 3, 2, "rescaled")
    assert net.meta["construction"] == "mon" and net.out_dim == 6
    x = np.column_stack([np.ones(50), np.random.default_rng(0).uniform(0, 1, (50, 2))])
    assert np.array_equal(evaluate(net, x), evaluate(direct, x))


def test_cheb_fit_command(runner):
    res = runner.invoke(main, ["cheb", "fit", "--target", "exp-sum", "--d", "2", "--degree", "3"])
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)
    assert out["target"] == "exp-sum-2d" and out["degrees"] == [3, 3]
    assert out["domain"] == [[0.0, 1.0], [0.0, 1.0]]
    assert np.asarray(out["coeffs"]).shape == (4, 4)


def test_verify_mult_command(runner):
    for variant in ("literal", "rescaled"):
        res = runner.invoke(main, ["verify", "mult", "--m", "3", "--variant", variant, "--step", "0.05"])
        assert res.exit_code == 0, res.output
        rep = json.loads(res.output)
        assert rep["passed"] and rep["params"] == {"m": 3, "variant": variant}
        assert rep["grid"]["step"] == 0.05


def test_cheb_coeffs(runner):
    res = runner.invoke(main, ["cheb", "coeffs", "--n", "2"])
    assert json.loads(res.output)["monomial_coeffs"] == [-1.0, 0.0, 2.0]
    res = runner.invoke(main, ["cheb", "coeffs", "--n", "99"])
    assert res.exit_code == 2


# sha256 of the stdout of `cheb coeffs --n N`, recorded from an exact
# integer T_n recurrence
CHEB_COEFFS_STDOUT_SHA256 = {
    0: "e2346b8bf6c20f653617ade336307380b2b7da8fb883a64ef2f509fdf7017051",
    1: "40aa2e5ee47989e021943a0a99392277f3783e8649ec3519d9cef59e469d9fd6",
    2: "4a940633ac14027001f3d869ba2bd5c8c9264c59e1438c0972f1dced0510301d",
    9: "f69f731553948a9519fa3f74174a17eba4a9c79586e8367a89c4f59e55c0ca63",
    45: "f9869d9b348facb368fa40b0f778de3ea5ebf321c11d8c070b933b9e223df3e0",
    60: "95be948580128249a1ac9ec733a747febf0da308a74f513ba3f6a5a82d486fb1",
}


@pytest.mark.parametrize("n", sorted(CHEB_COEFFS_STDOUT_SHA256))
def test_cheb_coeffs_stdout_is_pinned(runner, n):
    res = runner.invoke(main, ["cheb", "coeffs", "--n", str(n)])
    assert res.exit_code == 0, res.output
    assert "-0.0" not in res.output
    assert hashlib.sha256(res.output.encode()).hexdigest() == CHEB_COEFFS_STDOUT_SHA256[n]


def test_regress_smoke(runner):
    res = runner.invoke(
        main,
        ["regress", "--target", "inv2mx", "--n", "64", "--noise", "0.05",
         "--arch", "4", "--lambda", "0.001", "--epochs", "200", "--seed", "1"],
    )
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)["report"]
    assert rep["objective"] == pytest.approx(rep["risk"] + rep["penalty"])


def test_regress_config_reruns_to_the_same_report(runner):
    args = ["regress", "--target", "exp-sum", "--d", "2", "--n", "32", "--noise", "0.2", "--arch", "4,3",
            "--lambda", "auto", "--lambda-scale", "0.5", "--epochs", "7", "--seed", "3"]
    first = json.loads(runner.invoke(main, args).output)
    cfg = first["config"]
    assert (cfg["target"], cfg["d"], cfg["lambda_scale"], cfg["max_epochs"]) == ("exp-sum", 2, 0.5, 7)
    rerun = ["regress", "--target", cfg["target"], "--d", str(cfg["d"]), "--n", str(cfg["n"]),
             "--noise", repr(cfg["noise_sd"]), "--arch", ",".join(map(str, cfg["widths"])),
             "--lambda", cfg["lambda"], "--lambda-scale", repr(cfg["lambda_scale"]),
             "--epochs", str(cfg["max_epochs"]), "--seed", str(cfg["seed"])]
    res = runner.invoke(main, rerun)
    assert res.exit_code == 0, res.output
    assert json.loads(res.output) == first


BAD_INPUTS = [
    ("eval non-numeric input", ["eval", "{net}", "--input", "1,abc"]),
    ("eval network the reader rejects", ["eval", "{ragged_net}", "--input", "1,0.5"]),
    ("eval network file not JSON", ["eval", "{not_json}", "--input", "1,0.5"]),
    ("eval network in format 1", ["eval", "{v1_net}", "--input", "1,0.5"]),
    ("eval network in format 2", ["eval", "{v2_net}", "--input", "1,0.5"]),
    ("eval network with a huge run count", ["eval", "{huge_net}", "--input", "1,0.5"]),
    ("path-norm network with a huge run count", ["path-norm", "{huge_net}"]),
    ("entropy bound non-integer width",
     ["entropy", "bound", "--eps", "1", "--l", "0", "--p", "1,x", "--b", "1", "--r", "1", "--n", "8"]),
    ("entropy empirical spec without n", ["entropy", "empirical", "--spec", "{spec_no_n}"]),
    ("entropy empirical p of wrong length", ["entropy", "empirical", "--spec", "{spec_short_p}"]),
    ("entropy bound nan eps",
     ["entropy", "bound", "--eps", "nan", "--l", "0", "--p", "1,1", "--b", "1", "--r", "1", "--n", "8"]),
    ("entropy bound inf b",
     ["entropy", "bound", "--eps", "1", "--l", "0", "--p", "1,1", "--b", "inf", "--r", "1", "--n", "8"]),
    ("entropy bound inf r",
     ["entropy", "bound", "--eps", "1", "--l", "0", "--p", "1,1", "--b", "1", "--r", "inf", "--n", "8"]),
    ("entropy bound b overflows the ceiling term",
     ["entropy", "bound", "--eps", "1", "--l", "0", "--p", "1,1", "--b", "1e200", "--r", "1", "--n", "8"]),
    ("entropy bound eps squared underflows",
     ["entropy", "bound", "--eps", "1e-300", "--l", "0", "--p", "1,1", "--b", "1", "--r", "1", "--n", "8"]),
    ("entropy empirical activation a list", ["entropy", "empirical", "--spec", "{spec_act_list}"]),
    ("entropy empirical activation an object", ["entropy", "empirical", "--spec", "{spec_act_obj}"]),
    ("regress zero hidden width", ["regress", "--arch", "8,0", "--n", "16", "--epochs", "1"]),
    ("build sq m below 1", ["build", "sq", "--m", "0"]),
    ("build multr r below 2", ["build", "multr", "--m", "2", "--r", "1"]),
    ("build mon m below 1", ["build", "mon", "--m", "0", "--gamma", "3", "--d", "1"]),
    ("build mult unknown variant", ["build", "mult", "--m", "2", "--variant", "bogus"]),
    ("verify sq m below 1", ["verify", "sq", "--m", "0"]),
    ("verify multr r below 2", ["verify", "multr", "--m", "2", "--r", "1"]),
    ("verify mon gamma below 2", ["verify", "mon", "--m", "2", "--gamma", "1", "--d", "1"]),
    ("cheb fit unknown target", ["cheb", "fit", "--target", "bogus", "--degree", "3"]),
    ("approx cheb eps above 1", ["approx", "cheb", "--eps", "1.5"]),
    ("approx power-series delta above 1", ["approx", "power-series", "--eps", "0.5", "--delta", "2"]),
    ("cheb fit negative degree", ["cheb", "fit", "--degree", "-1"]),
    ("regress n below 2", ["regress", "--n", "1"]),
    ("verify multr zero samples", ["verify", "multr", "--m", "2", "--r", "2", "--samples", "0"]),
    ("verify mult zero step", ["verify", "mult", "--m", "2", "--step", "0"]),
    ("verify mult step above 1", ["verify", "mult", "--m", "2", "--step", "3"]),
    ("verify sq zero grid", ["verify", "sq", "--m", "2", "--grid", "0"]),
    ("verify nan bound", ["verify", "sq", "--m", "3", "--bound", "nan"]),
    ("verify inf bound", ["verify", "sq", "--m", "3", "--bound", "inf"]),
    ("verify negative bound", ["verify", "mult", "--m", "2", "--bound", "-1"]),
    ("regress negative lambda", ["regress", "--n", "32", "--lambda", "-5", "--epochs", "1"]),
    ("regress nan lambda", ["regress", "--n", "32", "--lambda", "nan", "--epochs", "1"]),
    ("regress inf lambda", ["regress", "--n", "32", "--lambda", "inf", "--epochs", "1"]),
    ("regress negative lambda scale", ["regress", "--n", "32", "--lambda-scale", "-1", "--epochs", "1"]),
    ("regress negative noise", ["regress", "--n", "32", "--noise", "-0.1", "--epochs", "1"]),
    ("regress negative epochs", ["regress", "--n", "32", "--epochs", "-1"]),
    ("approx cheb d above 3", ["approx", "cheb", "--target", "exp-sum", "--d", "4", "--eps", "0.5"]),
    ("cheb fit d above 3", ["cheb", "fit", "--target", "exp-sum", "--d", "4", "--degree", "3"]),
    ("regress inv2mx with d 3", ["regress", "--target", "inv2mx", "--d", "3", "--n", "16", "--epochs", "1"]),
    ("approx cheb runge with d 2", ["approx", "cheb", "--target", "runge", "--d", "2", "--eps", "0.5"]),
    ("cheb fit inv2mx with d 3", ["cheb", "fit", "--target", "inv2mx", "--d", "3", "--degree", "3"]),
    ("regress negative seed", ["regress", "--n", "16", "--epochs", "1", "--seed", "-1"]),
    ("entropy empirical negative seed", ["entropy", "empirical", "--spec", "{spec}", "--seed", "-1"]),
    ("verify sq negative seed", ["verify", "sq", "--m", "2", "--seed", "-1"]),
    ("approx cheb polynomial file with d 4", ["approx", "cheb", "--target", "{poly_d4}", "--eps", "0.5"]),
    ("approx cheb polynomial file with d 0", ["approx", "cheb", "--target", "{poly_d0}", "--eps", "0.5"]),
    ("approx cheb d contradicts the polynomial file",
     ["approx", "cheb", "--target", "{poly_d1}", "--d", "3", "--eps", "0.5"]),
    ("approx cheb unknown target", ["approx", "cheb", "--target", "bogus", "--eps", "0.5"]),
    ("approx cheb target a directory", ["approx", "cheb", "--target", "{dir}", "--eps", "0.5"]),
    ("approx power-series unknown series", ["approx", "power-series", "--series", "bogus", "--eps", "0.5", "--delta", "0.5"]),
    ("approx power-series polynomial file with d 0",
     ["approx", "power-series", "--series", "{poly_d0}", "--eps", "0.5", "--delta", "0.5"]),
    ("approx cheb polynomial file whose values overflow", ["approx", "cheb", "--target", "{poly_huge}", "--eps", "0.5"]),
    ("approx power-series claimed error overflows",
     ["approx", "power-series", "--series", "{poly_1e308}", "--eps", "0.5", "--delta", "0.5"]),
    ("verify sq unknown variant", ["verify", "sq", "--m", "2", "--variant", "bogus"]),
    ("approx power-series degree with more monomials than a network may output",
     ["approx", "power-series", "--eps", "0.5", "--delta", "1e-6"]),
    ("build mon more monomials than a network may output",
     ["build", "mon", "--m", "2", "--gamma", "10000", "--d", "3"]),
    ("eval network file a directory", ["eval", "{dir}", "--input", "1,0.5"]),
    ("path-norm network file a directory", ["path-norm", "{dir}"]),
    ("entropy empirical spec a directory", ["entropy", "empirical", "--spec", "{dir}"]),
    ("build sq out a directory", ["build", "sq", "--m", "2", "--out", "{dir}"]),
    ("approx cheb out a directory", ["approx", "cheb", "--eps", "0.5", "--out", "{dir}"]),
    ("approx cheb net-out a directory", ["approx", "cheb", "--eps", "0.5", "--net-out", "{dir}"]),
    ("regress net-out a directory", ["regress", "--n", "16", "--epochs", "1", "--net-out", "{dir}"]),
]

# every option of verify that a construction does not read, given with a
# valid value: each is a usage error instead of being ignored
VERIFY_BASE = {
    "sq": ["verify", "sq", "--m", "2"],
    "mult": ["verify", "mult", "--m", "2"],
    "multr": ["verify", "multr", "--m", "2", "--r", "2"],
    "mon": ["verify", "mon", "--m", "2", "--gamma", "2", "--d", "1"],
}
VERIFY_VALUES = {
    "--r": "2", "--gamma": "2", "--d": "1", "--variant": "literal",
    "--grid": "100", "--step": "0.05", "--samples": "10", "--seed": "0",
}
VERIFY_IGNORED = [
    ("sq", "--r"), ("sq", "--gamma"), ("sq", "--d"), ("sq", "--variant"),
    ("sq", "--step"), ("sq", "--samples"), ("sq", "--seed"),
    ("mult", "--r"), ("mult", "--gamma"), ("mult", "--d"), ("mult", "--grid"),
    ("mult", "--samples"), ("mult", "--seed"),
    ("multr", "--gamma"), ("multr", "--d"), ("multr", "--grid"), ("multr", "--step"),
    ("mon", "--r"), ("mon", "--step"), ("mon", "--samples"), ("mon", "--seed"),
]


@pytest.mark.parametrize("construction, option", VERIFY_IGNORED, ids=[" ".join(p) for p in VERIFY_IGNORED])
def test_verify_refuses_an_option_its_construction_does_not_read(runner, construction, option):
    base = VERIFY_BASE[construction]
    assert runner.invoke(main, base).exit_code == 0
    res = runner.invoke(main, [*base, option, VERIFY_VALUES[option]])
    assert res.exit_code == 2, res.output
    (error,) = [line for line in res.output.splitlines() if line.startswith("Error:")]
    assert error == f"Error: verify {construction} does not read {option}"


def test_verify_accepts_every_option_its_construction_reads(runner):
    reads = {
        "sq": ["--grid"],
        "mult": ["--variant", "--step"],
        "multr": ["--variant", "--samples", "--seed"],
        "mon": ["--variant", "--grid"],
    }
    for construction, options in reads.items():
        args = [*VERIFY_BASE[construction]]
        for option in options:
            args += [option, VERIFY_VALUES[option]]
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output


@pytest.mark.parametrize("args", [pytest.param(a, id=name) for name, a in BAD_INPUTS])
def test_bad_input_is_usage_error(runner, tmp_path, args):
    spec = {"eps": 0.5, "L": 1, "p": [1, 2, 1], "B": 1.0, "r": 1.0, "n": 8}
    files = {
        "net": tmp_path / "net.json",
        "spec": tmp_path / "spec.json",
        "ragged_net": tmp_path / "ragged.json",
        "not_json": tmp_path / "not.json",
        "v1_net": tmp_path / "v1.json",
        "v2_net": tmp_path / "v2.json",
        "huge_net": tmp_path / "huge.json",
        "spec_no_n": tmp_path / "spec_no_n.json",
        "spec_short_p": tmp_path / "spec_short_p.json",
        "spec_act_list": tmp_path / "spec_act_list.json",
        "spec_act_obj": tmp_path / "spec_act_obj.json",
        "poly_d4": tmp_path / "poly_d4.json",
        "poly_d0": tmp_path / "poly_d0.json",
        "poly_d1": tmp_path / "p1.json",
        "poly_huge": tmp_path / "poly_huge.json",
        "poly_1e308": tmp_path / "poly_1e308.json",
        "dir": tmp_path,
    }
    runner.invoke(main, ["build", "sq", "--m", "1", "--out", str(files["net"])])
    files["ragged_net"].write_text(json.dumps({"format": 3, "activation": "abs", "layers": [[[1, [[1.0, 0.0], [1.0]]]]]}))
    files["spec"].write_text(json.dumps(spec))
    files["not_json"].write_text("{not json")
    files["v1_net"].write_text(json.dumps({"activation": "abs", "weights": [[[1.0, 0.0]]]}))
    files["v2_net"].write_text(json.dumps({"format": 2, "activation": "abs", "layers": [[[[1.0, 0.0]]]]}))
    files["huge_net"].write_text(json.dumps({"format": 3, "activation": "abs", "layers": [[[10**12, [[1.0]]]]]}))
    files["spec_no_n"].write_text(json.dumps({k: v for k, v in spec.items() if k != "n"}))
    files["spec_short_p"].write_text(json.dumps(dict(spec, p=[1, 2])))
    files["spec_act_list"].write_text(json.dumps(dict(spec, activation=["abs"])))
    files["spec_act_obj"].write_text(json.dumps(dict(spec, activation={"name": "abs"})))
    files["poly_d4"].write_text(json.dumps({"d": 4, "terms": [[[1, 0, 0, 0], 0.5]]}))
    files["poly_d0"].write_text(json.dumps({"d": 0, "terms": [[[], 0.5]]}))
    files["poly_d1"].write_text(json.dumps({"d": 1, "terms": [[[2], 0.5]]}))
    files["poly_huge"].write_text(json.dumps({"d": 1, "terms": [[[2], 1e308], [[1], 1e308]]}))
    files["poly_1e308"].write_text(json.dumps({"d": 1, "terms": [[[2], 1e308]]}))
    res = runner.invoke(main, [a.format(**files) for a in args])
    assert res.exit_code == 2, res.output
    assert "Traceback" not in res.output


def test_path_norm_refuses_an_oversized_path_matrix(runner, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an oversized path matrix was allocated")

    monkeypatch.setattr("nnapprox.network.np.eye", refuse)
    monkeypatch.setattr("nnapprox._kernels.eval_chain", refuse)
    net_path = tmp_path / "wide.json"
    net_path.write_text(json.dumps({"format": 3, "activation": "abs", "layers": [[[65536, [[1.0]]]]]}))
    res = runner.invoke(main, ["path-norm", str(net_path)])
    assert res.exit_code == 2, res.output
    (error,) = [line for line in res.output.splitlines() if line.startswith("Error:")]
    assert "path matrix" in error
    assert "Traceback" not in res.output


def test_path_norm_reports_one_value_per_output_not_the_path_matrix(runner, tmp_path):
    # 1,024 copies of a 1x1 block: the dense path matrix written as JSON was
    # 11.5 MB; its row sums are 1,024 numbers
    net_path = tmp_path / "copies.json"
    net_path.write_text(json.dumps({"format": 3, "activation": "abs", "layers": [[[1024, [[1.0]]]]]}))
    res = runner.invoke(main, ["path-norm", str(net_path)])
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)
    assert "path_matrix" not in out
    net = network_from_json(net_path.read_text())
    assert out["per_output_path_norm"] == path_matrix(net).sum(axis=1).tolist()
    assert len(out["per_output_path_norm"]) == 1024 and len(res.output) < 2**16
    assert out["path_norm"] == path_norm(net) == 1024.0


def test_an_error_that_is_not_a_value_error_is_not_a_usage_error(runner, monkeypatch):
    bug = RuntimeError("a bug, not bad input")

    def broken_build_sq(m):
        raise bug

    monkeypatch.setattr("nnapprox.constructions.build_sq", broken_build_sq)
    res = runner.invoke(main, ["build", "sq", "--m", "1"])
    assert res.exit_code == 1
    assert res.exception is bug


def _command_paths(group, path=()):
    """Every command path beneath group, groups included."""
    for name, cmd in group.commands.items():
        yield (*path, name)
        if isinstance(cmd, click.Group):
            yield from _command_paths(cmd, (*path, name))


TAKES_OUT = {
    ("build", "sq"), ("build", "mult"), ("build", "multr"), ("build", "mon"), ("eval",), ("path-norm",),
    ("verify",), ("entropy", "bound"), ("entropy", "empirical"), ("approx", "power-series"),
    ("approx", "cheb"), ("cheb", "coeffs"), ("cheb", "fit"), ("regress",),
}
TAKES_NET_OUT = {("approx", "power-series"), ("approx", "cheb"), ("regress",)}


@pytest.mark.parametrize("path", [(), *_command_paths(main)], ids=lambda p: " ".join(p) or "main")
def test_every_command_answers_help(runner, path):
    assert TAKES_OUT | TAKES_NET_OUT <= set(_command_paths(main))
    res = runner.invoke(main, [*path, "--help"])
    assert res.exit_code == 0, res.output
    for option, takers in (("--out", TAKES_OUT), ("--net-out", TAKES_NET_OUT)):
        if path in takers:
            assert f"{option} PATH" in res.output


def test_unknown_flag_exits_2(runner):
    res = runner.invoke(main, ["build", "sq", "--m", "1", "--bogus"])
    assert res.exit_code == 2


def test_seed_determinism_byte_identical(runner):
    args = ["verify", "multr", "--m", "3", "--r", "3", "--samples", "2000", "--seed", "7"]
    a = runner.invoke(main, args).output
    b = runner.invoke(main, args).output
    # strip the wall-clock field, everything else must match byte for byte
    da, db = json.loads(a), json.loads(b)
    da.pop("seconds"), db.pop("seconds")
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


def test_json_round_trip_through_cli_files(runner, tmp_path):
    from nnapprox import evaluate, network_from_json

    net_path = tmp_path / "net.json"
    runner.invoke(main, ["build", "multr", "--m", "2", "--r", "3", "--out", str(net_path)])
    net = network_from_json(net_path.read_text())
    rng = np.random.default_rng(0)
    x = np.column_stack([np.ones(100), rng.uniform(0, 1, (100, 3))])
    from nnapprox import build_multr

    direct = build_multr(2, 3, "rescaled")
    assert np.array_equal(evaluate(net, x), evaluate(direct, x))


REFUSALS = [
    ("verify multr without --r", ["verify", "multr", "--m", "2"], "multr needs --r"),
    ("verify mon without --gamma", ["verify", "mon", "--m", "2", "--d", "1"], "mon needs --gamma and --d"),
    ("verify mon without --d", ["verify", "mon", "--m", "2", "--gamma", "2"], "mon needs --gamma and --d"),
    ("approx cheb terms not [index, coeff] pairs", ["approx", "cheb", "--target", "{poly}", "--eps", "0.5"],
     "malformed polynomial file"),
    ("approx power-series terms missing", ["approx", "power-series", "--series", "{no_terms}", "--eps", "0.5",
                                           "--delta", "0.5"], "malformed polynomial file"),
    ("entropy empirical spec width 2.5", ["entropy", "empirical", "--spec", "{spec_p}"], "must be an integer"),
    ("entropy empirical spec n 4.5", ["entropy", "empirical", "--spec", "{spec_n}"], "must be an integer"),
    ("entropy empirical spec n 4.0", ["entropy", "empirical", "--spec", "{spec_n_float}"], "must be an integer"),
    ("entropy empirical spec L true", ["entropy", "empirical", "--spec", "{spec_l}"], "must be an integer"),
    ("entropy empirical spec eps true", ["entropy", "empirical", "--spec", "{spec_eps}"], "must be a real number in"),
    ("entropy empirical spec B true", ["entropy", "empirical", "--spec", "{spec_b}"], "must be a real number in"),
    ("entropy empirical spec r true", ["entropy", "empirical", "--spec", "{spec_r}"], "must be a real number in"),
    # the library's own message, since no option restates its domain
    ("build sq m 0", ["build", "sq", "--m", "0"], "Error: m must be an integer >= 1, got 0"),
    ("approx cheb eps 1.5", ["approx", "cheb", "--eps", "1.5"], "Error: eps must be a real number in (0, 1), got 1.5"),
    ("verify sq grid -1", ["verify", "sq", "--m", "2", "--grid", "-1"], "Error: n_points must be an integer >= 0, got -1"),
]


@pytest.mark.parametrize("args, message", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_refusals_exit_2_with_one_error_line(runner, tmp_path, args, message):
    spec = {"eps": 0.5, "L": 1, "p": [2, 3, 1], "B": 1.0, "r": 1.0, "n": 4}
    contents = {
        "poly": {"d": 1, "terms": [[1, 0.5]]},
        "no_terms": {"d": 1},
        "spec_p": dict(spec, p=[2.5, 3, 1]),
        "spec_n": dict(spec, n=4.5),
        "spec_n_float": dict(spec, n=4.0),
        "spec_l": dict(spec, L=True),
        "spec_eps": dict(spec, eps=True),
        "spec_b": dict(spec, B=True),
        "spec_r": dict(spec, r=True),
    }
    files = {}
    for name, content in contents.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(content))
    res = runner.invoke(main, [a.format(**files) for a in args])
    assert res.exit_code == 2, res.output
    assert "Traceback" not in res.output
    (error,) = [line for line in res.output.splitlines() if line.startswith("Error:")]
    assert message in error


def test_readme_cli_examples_run_in_order(runner, tmp_path, monkeypatch):
    # every line of the README's bash block, in a fresh directory, with the
    # spec file the README shows below the block
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```bash\n(nnapprox .*?)```", readme, re.S).group(1)
    lines = [line.split("#")[0].split() for line in block.splitlines()]
    spec = re.search(r"reads a spec file like\s*`(\{.*?\})`", readme, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    Path("spec.json").write_text(spec)
    outputs = {}
    for words in lines:
        assert words[0] == "nnapprox"
        res = runner.invoke(main, words[1:])
        assert res.exit_code == 0, (words, res.output)
        outputs[" ".join(words[1:])] = res.output
    assert len(outputs) == 11
    # the block's comment: "~0.25"
    (value,) = json.loads(outputs["eval net.json --input 1,0.5,0.5"])["output"]
    assert value == pytest.approx(0.25, abs=3 * 2.0**-10)


def test_verify_mult_reports_the_step_it_swept(runner):
    # --step 0.7 sweeps {0, 1}^2, so its report reads step 1.0
    rep = json.loads(runner.invoke(main, ["verify", "mult", "--m", "3", "--step", "0.7"]).output)
    assert rep["grid"]["step"] == 1.0


def test_verify_defaults_are_the_verifiers_own(runner, monkeypatch):
    # an option not given is not passed on, so each sweep takes verify.py's
    # defaults, and the report shows them
    import inspect

    from nnapprox import verify as ver

    rep = json.loads(runner.invoke(main, ["verify", "mult", "--m", "3"]).output)
    assert rep["grid"]["step"] == inspect.signature(ver.verify_mult).parameters["step"].default == 0.005
    calls = []
    for name in ("verify_sq", "verify_mult", "verify_multr", "verify_mon"):
        monkeypatch.setattr(ver, name, lambda *a, **kw: calls.append(kw) or ver.VerificationReport(
            "x", {}, {}, 0.0, 1.0, True, 0.0))
    for args in (["sq", "--m", "2"], ["mult", "--m", "2"], ["multr", "--m", "2", "--r", "2"],
                 ["mon", "--m", "2", "--gamma", "2", "--d", "1"]):
        assert runner.invoke(main, ["verify", *args]).exit_code == 0
    assert calls == [{"bound": None}] * 4
