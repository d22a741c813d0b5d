"""The retired ``hash`` / ``dense`` kernel kinds are refused, with the
same message, at every entry point that takes a kernel."""

import pytest

from repro.cli import main
from repro.distributed.shard import ShardConfig, run_sharded
from repro.sparse.generators import random_csr
from repro.spgemm.kernels import KernelSpec
from repro.serve import ServeError
from tests.serve.test_server import job_payload, serve


def _spec(kind, capsys):
    with pytest.raises(ValueError) as exc:
        KernelSpec(kind)
    return str(exc.value)


def _cli(kind, capsys):
    assert main(["multiply", "stokes", "--kernel", kind]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def _served(kind, capsys):
    async def run(server, client):
        with pytest.raises(ServeError) as exc:
            await client.submit_job(job_payload(kernel=kind))
        return exc.value

    err = serve(run)
    assert err.status == 400 and err.payload["state"] == "rejected"
    return err.payload["error"]


def _sharded(kind, capsys):
    a = random_csr(10, 10, 30, seed=1)
    with pytest.raises(ValueError) as exc:
        run_sharded(a, a, ShardConfig(num_shards=2, kernel=kind))
    return str(exc.value)


@pytest.mark.parametrize("entry", [_spec, _cli, _served, _sharded],
                         ids=["spec", "cli", "serve", "shard"])
@pytest.mark.parametrize("kind", ["hash", "dense"])
def test_retired_kind_is_refused(kind, entry, capsys):
    assert f"unknown kernel kind {kind!r}; expected one of " in entry(kind, capsys)
