"""Command-line front end.

Exit codes: 0 when every checked invariant passed, 1 when a run finished
but an invariant failed, 2 for configuration problems, 3 when a component
raised a structured runtime error.  Failures of the last two kinds also
leave a ``*_error.json`` record in the output directory.
"""

import os
import sys

import click

from .errors import CharflowError, ConfigError
from .fileio import write_json
from .scenarios import convergence_study, load_config, run_scenario, selftest


def _error_record(out_dir, stem, verb, err):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{stem}_error.json")
    record = {
        "verb": verb,
        "error": type(err).__name__,
        "message": str(err),
    }
    write_json(path, record)
    return path


def _stem(config_path):
    base = os.path.basename(config_path)
    return os.path.splitext(base)[0] or "scenario"


def _run_guarded(verb, config_path, out, action):
    try:
        result = action()
    except CharflowError as err:
        path = _error_record(out, _stem(config_path), verb, err)
        config = isinstance(err, ConfigError)
        label = "config error" if config else type(err).__name__
        click.echo(f"{label}: {err}", err=True)
        click.echo(f"error record: {path}", err=True)
        sys.exit(2 if config else 3)
    sys.exit(result)


def _common_options(command):
    decorators = [
        click.option("--out", type=click.Path(file_okay=False), default=".",
                     show_default=True, help="Output directory."),
        click.option("--seed", type=int, default=None,
                     help="Override the config seed."),
        click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
                     default="csv", show_default=True,
                     help="Report table format."),
    ]
    for decorator in reversed(decorators):
        command = decorator(command)
    return command


@click.group()
def main():
    """Transport-metric diagnostics for atomic solutions of the
    continuity equation."""


@main.command()
@click.argument("config_path", metavar="CONFIG",
                type=click.Path(exists=True, dir_okay=False))
@_common_options
def run(config_path, out, seed, fmt):
    """Run the scenario described by CONFIG and write its reports."""

    def action():
        config = load_config(config_path, seed_override=seed)
        result = run_scenario(config, out, fmt=fmt)
        for level, name in sorted(result.report_paths.items()):
            click.echo(f"level {level}: {name}")
        click.echo(f"summary: {os.path.basename(result.summary_path)}")
        status = "pass" if result.exit_code == 0 else "FAIL"
        click.echo(f"invariants: {status}")
        return result.exit_code

    _run_guarded("run", config_path, out, action)


@main.command()
@click.argument("config_path", metavar="CONFIG",
                type=click.Path(exists=True, dir_okay=False))
@click.option("--ladder", type=int, default=4, show_default=True,
              help="Number of refinement rungs (resolution doubles each).")
@_common_options
def converge(config_path, ladder, out, seed, fmt):
    """Run a resolution-refinement study for CONFIG."""

    def action():
        config = load_config(config_path, seed_override=seed)
        result = convergence_study(config, out, rungs=ladder, fmt=fmt)
        for j, (res, dist) in enumerate(zip(result.resolutions,
                                            (*result.distances, None))):
            tail = "" if dist is None else f"  W_refine={dist!r}"
            click.echo(f"rung {j}: resolution {res}{tail}")
        if result.warning:
            click.echo("warning: field modulus is outside the Osgood class; "
                       "no contraction is asserted")
        click.echo(f"study: {'pass' if result.passed else 'FAIL'}")
        return result.exit_code

    _run_guarded("converge", config_path, out, action)


@main.command("selftest")
def selftest_command():
    """Run fast built-in consistency checks."""
    sys.exit(selftest(echo=click.echo))


if __name__ == "__main__":
    main()
