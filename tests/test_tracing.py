"""The benchmark tracer's names resolve in the package.

`bench/tracing.py` wraps the functions it lists in `TRACED` by name, and
`Tracer.install` raises if one is missing. Some of them (the priors'
`predict` and `scripts.build_pair_scripts`) have no caller inside the
package, so only this test keeps them from being deleted by mistake.
"""

import importlib
from pathlib import Path

import pytest

from groupmotion import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def tracing():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        yield importlib.import_module("tracing")


def test_traced_names_resolve(tracing):
    """Each `TRACED` entry resolves the way `Tracer.install` looks it up: a
    "Class.method" in the class's own namespace, any other attribute on
    the module; each traced CLI command is registered."""
    assert tracing.TRACED
    for _, mod, attr in tracing.TRACED:
        owner = importlib.import_module(f"groupmotion.{mod}")
        if "." in attr:
            cls, meth = attr.split(".")
            assert callable(vars(getattr(owner, cls)).get(meth)), attr
        else:
            assert callable(getattr(owner, attr, None)), attr
    assert set(tracing.CLI_COMMANDS) <= set(cli.COMMANDS)
