"""Command-line entry point: build/evaluate networks, verify bounds,
evaluate entropy bounds, run the approximation pipelines and the
regression harness.  All reports are JSON on stdout or --out."""

from __future__ import annotations

import json
import os
import sys

import click
import numpy as np

from . import constructions as ctor
from . import entropy as ent
from . import regression as reg
from . import verify as ver
from .approximators import (
    BUILTIN_SERIES,
    BUILTIN_TARGETS,
    AnalyticTarget,
    build_cheb_net,
    build_power_series_net,
    builtin_target,
)
from .chebyshev import MonomialPolynomial, cheb_fit, cheb_poly_coeffs
from .network import (
    ACTIVATIONS,
    NetworkError,
    evaluate,
    network_from_dict,
    network_stats,
    network_to_dict,
    path_matrix,
    path_norm,
)


def _emit(payload, out):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


def _write_net(net, path):
    """Write net as one line of JSON to path (the --net-out file), if given."""
    if path:
        with open(path, "w") as fh:
            fh.write(json.dumps(network_to_dict(net)) + "\n")


def _read_json(path):
    """Parsed JSON file; a file that is not JSON is a usage error."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
            raise click.UsageError(f"{path} is not valid JSON: {e}")


def _load_net(path):
    try:
        return network_from_dict(_read_json(path))
    except NetworkError as e:
        raise click.UsageError(f"{path} is not a network: {e}")


def _parse_csv(s, kind):
    """Comma-separated values of type kind; a bad entry is a usage error."""
    try:
        return [kind(v) for v in s.split(",") if v.strip()]
    except ValueError:
        raise click.BadParameter(f"{s!r} is not a comma-separated list of {kind.__name__}s")


def _entropy_spec(raw, source):
    """EntropyBoundSpec from a dict with eps/L/p/B/r/n; bad values are usage errors."""
    try:
        return ent.EntropyBoundSpec(
            eps=raw["eps"], L=raw["L"], p=tuple(raw["p"]), B=raw["B"], r=raw["r"], n=raw["n"]
        )
    except (KeyError, TypeError, ValueError) as e:
        raise click.UsageError(f"bad {source}: {e!r}")


def _variant(ctx, param, value):
    """--variant parsed to a MultVariant; an unknown name is a usage error."""
    try:
        return ctor.MultVariant.parse(value)
    except ValueError as e:
        raise click.BadParameter(str(e))


VARIANT_OPTION = click.option("--variant", default="rescaled", show_default=True, callback=_variant)
M_OPTION = click.option("--m", type=click.IntRange(min=1), required=True)
UNIT_OPEN = click.FloatRange(0.0, 1.0, min_open=True, max_open=True)
CHEB_D = click.IntRange(1, 3)  # the dimensions cheb_fit supports


@click.group()
def main():
    """Constructive abs-activation network toolkit."""


# ---------------------------------------------------------------------------
# build


@main.group()
def build():
    """Build one of the explicit constructions and emit its JSON form."""


@build.command("sq")
@M_OPTION
@click.option("--out", type=click.Path(), default=None)
def build_sq_cmd(m, out):
    _emit(network_to_dict(ctor.build_sq(m)), out)


@build.command("mult")
@M_OPTION
@VARIANT_OPTION
@click.option("--out", type=click.Path(), default=None)
def build_mult_cmd(m, variant, out):
    _emit(network_to_dict(ctor.build_mult(m, variant)), out)


@build.command("multr")
@M_OPTION
@click.option("--r", type=click.IntRange(min=2), required=True)
@VARIANT_OPTION
@click.option("--out", type=click.Path(), default=None)
def build_multr_cmd(m, r, variant, out):
    _emit(network_to_dict(ctor.build_multr(m, r, variant)), out)


@build.command("mon")
@M_OPTION
@click.option("--gamma", type=click.IntRange(min=2), required=True)
@click.option("--d", type=click.IntRange(min=1), required=True)
@VARIANT_OPTION
@click.option("--out", type=click.Path(), default=None)
def build_mon_cmd(m, gamma, d, variant, out):
    _emit(network_to_dict(ctor.build_mon(m, gamma, d, variant)), out)


# ---------------------------------------------------------------------------
# eval / path-norm


@main.command("eval")
@click.argument("net_json", type=click.Path(exists=True))
@click.option("--input", "input_", required=True, help="comma-separated coordinates")
@click.option("--out", type=click.Path(), default=None)
def eval_cmd(net_json, input_, out):
    net = _load_net(net_json)
    x = np.asarray(_parse_csv(input_, float))
    try:
        y = evaluate(net, x)
    except NetworkError as e:
        raise click.UsageError(str(e))
    _emit({"input": x.tolist(), "output": np.atleast_1d(y).tolist()}, out)


@main.command("path-norm")
@click.argument("net_json", type=click.Path(exists=True))
@click.option("--out", type=click.Path(), default=None)
def path_norm_cmd(net_json, out):
    net = _load_net(net_json)
    stats = network_stats(net)
    _emit(
        {
            "path_norm": path_norm(net),
            "path_matrix": path_matrix(net).tolist(),
            "per_layer_l1": [lay["l1"] for lay in stats["layers"]],
            "l1_total": stats["l1"],
        },
        out,
    )


# ---------------------------------------------------------------------------
# verify


@main.command("verify")
@click.argument("construction", type=click.Choice(["sq", "mult", "multr", "mon"]))
@M_OPTION
@click.option("--r", type=click.IntRange(min=2), default=None)
@click.option("--gamma", type=click.IntRange(min=2), default=None)
@click.option("--d", type=click.IntRange(min=1), default=None)
@VARIANT_OPTION
@click.option("--grid", type=click.IntRange(min=1), default=None,
              help="points (sq) or points per axis (mon)")
@click.option("--step", type=click.FloatRange(0.0, 1.0, min_open=True), default=0.005,
              help="grid step (mult)")
@click.option("--samples", type=click.IntRange(min=1), default=100000,
              help="random samples (multr)")
@click.option("--seed", type=click.IntRange(min=0), default=0)
@click.option("--bound", type=float, default=None, help="override the claimed bound")
@click.option("--out", type=click.Path(), default=None)
def verify_cmd(construction, m, r, gamma, d, variant, grid, step, samples, seed, bound, out):
    """Sweep a construction against its claimed error bound; exit 1 on failure."""
    # --grid is passed on only when given, so the default sizes live in verify.py
    size = {} if grid is None else {"n_points" if construction == "sq" else "grid_points": grid}
    try:
        if construction == "sq":
            rep = ver.verify_sq(m, bound=bound, **size)
        elif construction == "mult":
            rep = ver.verify_mult(m, variant, step=step, bound=bound)
        elif construction == "multr":
            if r is None:
                raise click.UsageError("multr needs --r")
            rep = ver.verify_multr(m, r, variant, n_samples=samples, seed=seed, bound=bound)
        else:
            if gamma is None or d is None:
                raise click.UsageError("mon needs --gamma and --d")
            rep = ver.verify_mon(m, gamma, d, variant, bound=bound, **size)
    except ValueError as e:  # a --bound that is not a finite number >= 0
        raise click.UsageError(str(e))
    _emit(rep.to_dict(), out)
    if not rep.passed:
        sys.exit(1)


# ---------------------------------------------------------------------------
# entropy


@main.group("entropy")
def entropy_group():
    """Closed-form covering bounds and the empirical covering oracle."""


@entropy_group.command("bound")
@click.option("--eps", type=float, required=True)
@click.option("--l", "--L", "l_", type=int, required=True)
@click.option("--p", required=True, help="comma-separated width vector, length L+2")
@click.option("--b", "--B", "b_", type=float, required=True)
@click.option("--r", type=float, required=True)
@click.option("--n", type=int, required=True)
@click.option("--out", type=click.Path(), default=None)
def entropy_bound_cmd(eps, l_, p, b_, r, n, out):
    spec = _entropy_spec(dict(eps=eps, L=l_, p=_parse_csv(p, int), B=b_, r=r, n=n), "entropy spec")
    _emit({"spec": spec.to_dict(), "network_bound": ent.network_bound(spec)}, out)


@entropy_group.command("empirical")
@click.option("--spec", "spec_path", type=click.Path(exists=True), required=True)
@click.option("--trials", type=click.IntRange(min=1), default=5000, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0)
@click.option("--out", type=click.Path(), default=None)
def entropy_empirical_cmd(spec_path, trials, seed, out):
    """Greedy-cover a sampled class; spec JSON holds eps/L/p/B/r/n[/activation]."""
    raw = _read_json(spec_path)
    spec = _entropy_spec(raw, f"spec file {spec_path}")
    act_name = raw.get("activation", "abs")
    if not isinstance(act_name, str) or act_name not in ACTIVATIONS:
        raise click.UsageError(f"unknown activation {act_name!r}")
    cover, bound, _ = ent.empirical_vs_bound(
        spec, activation=ACTIVATIONS[act_name], trials=trials, seed=seed
    )
    _emit(
        {
            "spec": spec.to_dict(),
            "activation": act_name,
            "trials": trials,
            "seed": seed,
            "cover_size": cover.size,
            "log2_cover_size": cover.log2_size,
            "network_bound": bound,
            "margin_bits": bound - cover.log2_size,
            "consistent": cover.log2_size <= bound,
        },
        out,
    )


# ---------------------------------------------------------------------------
# approx


@main.group("approx")
def approx_group():
    """Analytic-function approximation pipelines."""


def _polynomial_unless_builtin(name, builtins):
    """None when name is one of builtins, else the polynomial in the JSON file
    name, {"d": d, "terms": [[[k...], coeff], ...]}.  A builtin name means
    the builtin even when a file of that name exists."""
    if name in builtins:
        return None
    if not os.path.isfile(name):
        raise click.UsageError(f"unknown {name!r}: not a builtin {sorted(builtins)} and not a file")
    raw = _read_json(name)
    try:
        terms = {tuple(k): float(c) for k, c in raw["terms"]}
        return MonomialPolynomial(int(raw["d"]), terms)
    except (KeyError, TypeError, ValueError) as e:
        raise click.UsageError(f"malformed polynomial file {name}: {e}")


@approx_group.command("power-series")
@click.option("--series", "series_name", default="inv2mx", show_default=True,
              help="builtin name or a polynomial JSON file")
@click.option("--eps", type=UNIT_OPEN, required=True)
@click.option("--delta", type=UNIT_OPEN, required=True)
@VARIANT_OPTION
@click.option("--net-out", type=click.Path(), default=None)
@click.option("--out", type=click.Path(), default=None)
def approx_power_series_cmd(series_name, eps, delta, variant, net_out, out):
    series = _polynomial_unless_builtin(series_name, BUILTIN_SERIES)
    if series is None:
        gen_factory, d, f_bound = BUILTIN_SERIES[series_name]
        series, kwargs = gen_factory(), {"d": d, "F": f_bound}
    else:
        kwargs = {}
    net, cert = build_power_series_net(series, eps=eps, delta=delta, variant=variant, **kwargs)
    _write_net(net, net_out)
    _emit(cert, out)


@approx_group.command("cheb")
@click.option("--target", "target_name", default="inv2mx", show_default=True,
              help="builtin name or a polynomial JSON file")
@click.option("--d", type=CHEB_D, default=None,
              help="dimension of a builtin target [default: 1]; a polynomial file has its own")
@click.option("--eps", type=UNIT_OPEN, required=True)
@VARIANT_OPTION
@click.option("--net-out", type=click.Path(), default=None)
@click.option("--out", type=click.Path(), default=None)
def approx_cheb_cmd(target_name, d, eps, variant, net_out, out):
    poly = _polynomial_unless_builtin(target_name, BUILTIN_TARGETS)
    if poly is None:
        try:
            target = builtin_target(target_name, 1 if d is None else d)
        except ValueError as e:
            raise click.UsageError(str(e))
    elif d is not None and d != poly.d:
        raise click.UsageError(f"--d {d} contradicts {target_name}, which has d={poly.d}")
    elif not CHEB_D.min <= poly.d <= CHEB_D.max:
        raise click.UsageError(f"{target_name} has d={poly.d}; Chebyshev fits need 1 <= d <= 3")
    else:
        target = AnalyticTarget(os.path.basename(target_name), poly.d, poly.evaluate)
    net, cert = build_cheb_net(target, eps, variant)
    _write_net(net, net_out)
    _emit(cert, out)


# ---------------------------------------------------------------------------
# cheb


@main.group("cheb")
def cheb_group():
    """Chebyshev machinery."""


@cheb_group.command("coeffs")
@click.option("--n", type=int, required=True)
@click.option("--out", type=click.Path(), default=None)
def cheb_coeffs_cmd(n, out):
    try:
        c = cheb_poly_coeffs(n)
    except ValueError as e:
        raise click.UsageError(str(e))
    _emit({"n": n, "monomial_coeffs": c.tolist()}, out)


@cheb_group.command("fit")
@click.option("--target", "target_name", default="inv2mx", show_default=True)
@click.option("--d", type=CHEB_D, default=1, show_default=True)
@click.option("--degree", type=click.IntRange(min=0), required=True)
@click.option("--out", type=click.Path(), default=None)
def cheb_fit_cmd(target_name, d, degree, out):
    try:
        target = builtin_target(target_name, d)
    except ValueError as e:
        raise click.BadParameter(str(e), param_hint="'--target'")
    series = cheb_fit(target, (degree,) * target.d, domain=((0.0, 1.0),) * target.d)
    _emit(
        {
            "target": target.name,
            "degrees": list(series.degrees),
            "domain": [list(iv) for iv in series.domain],
            "coeffs": series.coeffs.tolist(),
        },
        out,
    )


# ---------------------------------------------------------------------------
# regress


@main.command("regress")
@click.option("--target", "target_name", default="inv2mx", show_default=True)
@click.option("--d", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--n", type=click.IntRange(min=2), default=256, show_default=True)
@click.option("--noise", type=float, default=0.1, show_default=True)
@click.option("--arch", default="8,8", show_default=True, help="hidden widths")
@click.option("--lambda", "lam", default="auto", show_default=True)
@click.option("--lambda-scale", type=float, default=1.0, show_default=True)
@click.option("--epochs", type=int, default=2000, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0)
@click.option("--net-out", type=click.Path(), default=None)
@click.option("--out", type=click.Path(), default=None)
def regress_cmd(target_name, d, n, noise, arch, lam, lambda_scale, epochs, seed, net_out, out):
    """Fit a penalized least-squares network to synthetic data."""
    try:
        target = builtin_target(target_name, d)
        lam_val = "auto" if lam == "auto" else float(lam)
        cfg = reg.RegressionConfig(
            n=n,
            d=target.d,
            target=target,
            noise_sd=noise,
            widths=tuple(_parse_csv(arch, int)),
            lam=lam_val,
            lambda_scale=lambda_scale,
            max_epochs=epochs,
            seed=seed,
        )
    except ValueError as e:
        raise click.UsageError(str(e))
    dataset = reg.generate_data(cfg)
    net, report = reg.fit(cfg, dataset)
    _write_net(net, net_out)
    _emit({"config": {"n": n, "d": target.d, "target": target.name, "noise_sd": noise,
                      "widths": list(cfg.widths), "lambda": lam, "seed": seed},
           "report": report.to_dict()}, out)


if __name__ == "__main__":
    main()
