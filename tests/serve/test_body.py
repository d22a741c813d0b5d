"""The JSON body encoder (repro.serve.body): every body it writes is
``json.dumps(obj).encode()`` to the byte.

With the native library the numeric arrays go through its shortest
round-trip formatter; under ``REPRO_NATIVE=0`` the encoder is
``json.dumps`` itself, and the same properties must hold.
"""

import asyncio
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serve.body as body_mod
from repro.core.api import spgemm
from repro.serve import ServeClient, ServerConfig, SpgemmServer
from repro.serve.body import NATIVE_MIN_ITEMS, encode_json
from repro.serve.jobs import resolve_operand
from repro.spgemm import native

needs_native = pytest.mark.skipif(
    not native.native_available(),
    reason=f"native library unavailable: {native.native_build_error()}",
)

I64_MAX = 2 ** 63 - 1

EDGE_FLOATS = [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1.7976931348623157e308, 2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2,
    9007199254740993.0, 1e15, 1e16, 9999999999999998.0, 1e-4, 1e-5,
    0.00010000000000000002, 9.999999999999999e-05, 9.999999999999999e22,
    1e22, 1e23, 0.1, 0.2, 0.3, 1 / 3, 2 / 3, 123456.789, 5e-310,
    float("nan"), float("inf"), float("-inf"),
] + [2.0 ** e for e in range(-1074, 1024)]
EDGE_FLOATS += [-x for x in EDGE_FLOATS]

EDGE_INTS = [0, 1, -1, 9, 10, -10, 99, 100, I64_MAX, -I64_MAX, -I64_MAX - 1,
             2 ** 53 + 1, -(2 ** 32)] * 5


def dumps(obj) -> bytes:
    return json.dumps(obj).encode()


@pytest.fixture
def formatted(monkeypatch):
    """The arrays the encoder hands to the native formatter."""
    seen = []

    def spy(arr):
        seen.append(arr)
        return native.native_json(arr)

    monkeypatch.setattr(body_mod, "native_json", spy)
    return seen


class TestFloats:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                              allow_subnormal=True),
                    min_size=NATIVE_MIN_ITEMS))
    def test_any_float_list_and_array(self, xs):
        assert encode_json(xs) == dumps(xs)
        assert encode_json(np.array(xs, dtype=np.float64)) == dumps(xs)

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(0).integers(
            0, 2 ** 64, size=200_000, dtype=np.uint64)
        x = bits.view(np.float64)
        assert encode_json(x) == dumps(x.tolist())
        assert encode_json(x[:1000].tolist()) == dumps(x[:1000].tolist())

    def test_random_values_of_every_scale(self):
        rng = np.random.default_rng(1)
        x = rng.random(50_000) * 10.0 ** rng.integers(-30, 30, 50_000)
        assert encode_json(x) == dumps(x.tolist())

    def test_each_edge(self):
        wrong = [x for x in EDGE_FLOATS
                 if encode_json([x] * NATIVE_MIN_ITEMS)
                 != dumps([x] * NATIVE_MIN_ITEMS)]
        assert wrong == []

    def test_edges_as_one_array(self):
        assert encode_json(np.array(EDGE_FLOATS)) == dumps(EDGE_FLOATS)

    @needs_native
    @pytest.mark.parametrize("x, width", [
        (-2.2250738585072014e-308, 26), (-(2 ** 63), 22)])
    def test_the_longest_items_fill_the_sized_buffer(self, x, width):
        # 24 (20) characters and a ", " each, less the last ", ", plus
        # the brackets: exactly the bytes the caller allocates
        arr = np.full(100, x)
        assert len(native.native_json(arr)) == width * arr.size

    @needs_native
    def test_the_formatter_writes_them(self, formatted):
        encode_json(EDGE_FLOATS)
        encode_json(np.array(EDGE_FLOATS))
        encode_json({"i": EDGE_INTS, "j": np.array(EDGE_INTS)})
        assert [a.dtype for a in formatted] == [np.float64] * 2 \
            + [np.int64] * 2


class TestInts:
    def test_int64_edges(self):
        assert encode_json(EDGE_INTS) == dumps(EDGE_INTS)
        assert encode_json(np.array(EDGE_INTS, dtype=np.int64)) \
            == dumps(EDGE_INTS)

    def test_random_int64(self):
        x = np.random.default_rng(2).integers(
            -I64_MAX - 1, I64_MAX, size=100_000, dtype=np.int64)
        assert encode_json(x) == dumps(x.tolist())
        assert encode_json(x.tolist()) == dumps(x.tolist())

    @pytest.mark.parametrize("empty", [[], np.array([]),
                                       np.array([], dtype=np.int64)],
                             ids=["list", "float64", "int64"])
    def test_empty(self, empty):
        assert encode_json(empty) == b"[]"
        assert encode_json({"x": empty, "y": [1.5]}) \
            == dumps({"x": [], "y": [1.5]})


class TestFallback:
    @pytest.mark.parametrize("xs", [
        [1, 2.5, 3], [1.5, 2], [True, False, True], [True, 1, 2],
        [1, 2 ** 63], [-(2 ** 63) - 1, 0], [2 ** 64, 2 ** 70],
        [1.5, None], ["a", 1.5], [np.float64(1.5), 2.5],
    ], ids=repr)
    def test_mixed_and_out_of_range_lists(self, xs, formatted):
        xs = xs * NATIVE_MIN_ITEMS
        w = [0.25] * NATIVE_MIN_ITEMS
        assert encode_json(xs) == dumps(xs)
        assert encode_json({"v": xs, "w": w}) == dumps({"v": xs, "w": w})
        assert all(a.tolist() == w for a in formatted)

    def test_short_arrays_are_left_to_json(self, formatted):
        short = {"f": [0.1] * (NATIVE_MIN_ITEMS - 1), "i": list(range(9)),
                 "a": np.arange(3.0), "big": [0.5] * NATIVE_MIN_ITEMS}
        assert encode_json(short) == dumps(dict(short, a=[0.0, 1.0, 2.0]))
        assert all(a.tolist() == short["big"] for a in formatted)

    @pytest.mark.parametrize("arr", [
        np.arange(6, dtype=np.int32), np.linspace(0, 1, 5, dtype=np.float32),
        np.array([True, False]), np.arange(6.0).reshape(2, 3),
        np.arange(4.0)[::2], np.arange(3, dtype=">i8"),
    ], ids=["int32", "float32", "bool", "2-d", "strided", "big-endian"])
    def test_other_arrays_are_their_tolist(self, arr):
        assert encode_json({"a": arr}) == dumps({"a": arr.tolist()})

    def test_scalars_and_plain_objects(self):
        for obj in (None, True, 0, -3, 2 ** 70, 1.5, float("nan"), "é",
                    {}, [], {"a": {"b": []}}, [[], {}]):
            assert encode_json(obj) == dumps(obj)

    def test_what_json_refuses_is_refused(self):
        with pytest.raises(TypeError):
            encode_json({"a": [1.5], "b": object()})
        with pytest.raises(TypeError):
            encode_json({(1, 2): [1.5]})
        loop = {"a": [1.5]}
        loop["self"] = loop
        with pytest.raises(ValueError, match="Circular"):
            encode_json(loop)


class TestNested:
    def test_payloads_with_non_ascii_strings(self):
        obj = {
            "tenant": "ténant ☃ \U0001f600", "quote": "a\"b\\c\n",
            "a": {"inline": {"shape": [3, 3], "row_offsets": [0, 1, 2, 3],
                             "col_ids": [0, 1, 2], "data": [0.1, -2.5, 1e-7]}},
            "matrix": {"data": np.array([1.0, 2.0]), "ü": np.arange(3)},
            "list": [[1.5, 2.5], ("x", [3, 4]), {"k": [0.5]}],
            1: [1.0], 2.5: [2], None: [3], True: ["x"],
        }
        want = dict(obj, matrix={"data": [1.0, 2.0], "ü": [0, 1, 2]})
        assert encode_json(obj) == dumps(want)

    def test_a_list_shared_by_two_keys(self):
        spec = {"inline": {"data": [0.5, 1.5], "col_ids": [0, 1]}}
        payload = {"a": spec, "b": spec, "return_result": True}
        assert encode_json(payload) == dumps(payload)


class TestServedBodies:
    A = {"gen": {"family": "rmat", "scale": 7, "degree": 6, "seed": 3}}

    def test_request_bodies_are_json_dumps(self):
        class Capture:
            def __init__(self):
                self.sent = b""

            def write(self, data):
                self.sent += data

            async def drain(self):
                pass

        inline = {"inline": {"shape": [2, 2], "row_offsets": [0, 1, 2],
                             "col_ids": [1, 0], "data": [0.1, 1e300]}}
        payload = {"a": inline, "b": inline, "return_result": True}
        writer = Capture()
        asyncio.run(ServeClient()._send(writer, "POST", "/v1/jobs", payload))
        assert writer.sent.partition(b"\r\n\r\n")[2] == dumps(payload)

    def test_response_bodies_are_json_dumps_and_the_product_bits(self):
        async def exchange(server, request: bytes) -> bytes:
            reader, writer = await asyncio.open_connection(*server.address)
            writer.write(request)
            await writer.drain()
            try:
                return await reader.read()
            finally:
                writer.close()
                await writer.wait_closed()

        def post(payload):
            data = json.dumps(payload).encode()
            return (b"POST /v1/jobs HTTP/1.1\r\nContent-Length: "
                    + str(len(data)).encode() + b"\r\n\r\n" + data)

        async def main():
            server = SpgemmServer(ServerConfig(slots=2))
            await server.start()
            try:
                job = {"a": self.A, "b": self.A, "return_result": True}
                waited = await exchange(server, post(job))
                streamed = await exchange(server, post(dict(job, stream=True)))
                queued = await exchange(server, post(dict(job, wait=False)))
                job_id = json.loads(queued.partition(b"\r\n\r\n")[2])["job_id"]
                await asyncio.get_running_loop().run_in_executor(
                    None, server.scheduler.wait_idle, 30.0)
                await ServeClient(*server.address).health()
                polled = await exchange(
                    server, f"GET /v1/jobs/{job_id} HTTP/1.1\r\n\r\n".encode())
                return waited, streamed, queued, polled
            finally:
                await server.stop()

        waited, streamed, queued, polled = asyncio.run(main())
        bodies = [r.partition(b"\r\n\r\n")[2]
                  for r in (waited, queued, polled)]
        bodies += streamed.partition(b"\r\n\r\n")[2].splitlines()
        for b in bodies:
            assert json.dumps(json.loads(b)).encode() == b
        a = resolve_operand(self.A)
        want = spgemm(a, a)
        done = [json.loads(b) for b in bodies]
        done = [d for d in done if d.get("state") == "done"]
        assert len(done) == 3
        for snap in done:
            m = snap["result"]["matrix"]
            assert m["shape"] == list(want.shape)
            assert np.array_equal(np.array(m["row_offsets"]), want.row_offsets)
            assert np.array_equal(np.array(m["col_ids"]), want.col_ids)
            assert np.array_equal(np.array(m["data"]).view(np.uint64),
                                  want.data.view(np.uint64))
