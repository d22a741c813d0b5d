"""The JSON body codec (repro.serve.body): every body the encoder writes
is ``json.dumps(obj).encode()`` to the byte, and every body the decoder
reads is what ``json.loads`` makes of it — same values, types, float
bits and key order — or the error ``json.loads`` raises.

With the native library the numeric arrays go through its shortest
round-trip formatter and its Eisel–Lemire parser; under
``REPRO_NATIVE=0`` the codec is ``json.dumps`` / ``json.loads`` itself,
and the same properties must hold.
"""

import asyncio
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serve.body as body_mod
from repro.core.api import spgemm
from repro.serve import ServeClient, ServerConfig, SpgemmServer
from repro.serve.body import NATIVE_MIN_ITEMS, decode_json, encode_json
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


# ----------------------------------------------------------------------
# the decoder: decode_json(b) is json.loads(b)
# ----------------------------------------------------------------------
def same(x, y) -> bool:
    """Equal in value, in type (int vs float, list vs dict), in float bits
    (-0.0 and NaN included) and in dict key order."""
    if type(x) is not type(y):
        return False
    if type(x) is float:
        return (x.hex() == y.hex()
                and struct.pack("<d", x) == struct.pack("<d", y))
    if type(x) is list:
        return len(x) == len(y) and all(map(same, x, y))
    if type(x) is dict:
        return list(x) == list(y) and all(same(x[k], y[k]) for k in x)
    return x == y


def decodes_alike(raw: bytes) -> None:
    assert same(decode_json(raw), json.loads(raw))


def raises_alike(raw: bytes) -> None:
    with pytest.raises(Exception) as want:
        json.loads(raw)
    with pytest.raises(Exception) as got:
        decode_json(raw)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    assert getattr(got.value, "pos", None) == getattr(want.value, "pos", None)


def array_text(items, sep=", ") -> bytes:
    return ("[" + sep.join(items) + "]").encode()


@pytest.fixture
def scanned(monkeypatch):
    """What the native scan found in each body the decoder handed it."""
    seen = []

    def spy(raw, min_items):
        found = native.native_json_arrays(raw, min_items)
        seen.append(found)
        return found

    monkeypatch.setattr(body_mod, "native_json_arrays", spy)
    return seen


def encoder_inputs():
    """The objects the encoder suite writes."""
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2 ** 64, size=20_000, dtype=np.uint64)
    mixed = [[1, 2.5, 3], [1.5, 2], [True, False, True], [1, 2 ** 63],
             [-(2 ** 63) - 1, 0], [1.5, None], ["a", 1.5]]
    return [
        EDGE_FLOATS, np.array(EDGE_FLOATS), EDGE_INTS,
        np.array(EDGE_INTS, dtype=np.int64), bits.view(np.float64),
        rng.integers(-I64_MAX - 1, I64_MAX, size=20_000, dtype=np.int64),
        rng.random(5_000) * 10.0 ** rng.integers(-30, 30, 5_000),
        *[xs * NATIVE_MIN_ITEMS for xs in mixed],
        {"v": [0.25] * NATIVE_MIN_ITEMS, "w": mixed[0] * NATIVE_MIN_ITEMS},
        {"f": [0.1] * (NATIVE_MIN_ITEMS - 1), "i": list(range(9)),
         "big": [0.5] * NATIVE_MIN_ITEMS, "e": [], "n": None},
        {"tenant": "ténant ☃ \U0001f600", "quote": "a\"b\\c\n",
         "matrix": {"data": np.linspace(-1, 1, 300), "ü": np.arange(300)},
         "list": [[1.5, 2.5], ("x", [3, 4]), {"k": [0.5] * 100}],
         1: [1.0], 2.5: [2], None: [3], True: ["x"]},
    ]


class TestDecoder:
    @pytest.mark.parametrize("obj", encoder_inputs(),
                             ids=lambda o: type(o).__name__)
    def test_what_the_encoder_writes(self, obj):
        decodes_alike(encode_json(obj))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                              allow_subnormal=True),
                    min_size=NATIVE_MIN_ITEMS))
    def test_any_float_list(self, xs):
        decodes_alike(dumps(xs))
        decodes_alike(dumps({"x": xs, "n": len(xs)}))

    def test_random_bit_patterns(self, scanned):
        x = np.random.default_rng(4).integers(
            0, 2 ** 64, size=150_000, dtype=np.uint64).view(np.float64)
        raw = dumps(x.tolist())
        decodes_alike(raw)
        if native.native_available():
            # every item read natively: no array declined
            (found,) = scanned
            assert [arr.size for _, _, arr in found] == [x.size]
            got, nan = found[0][2], np.isnan(x)
            assert np.array_equal(np.isnan(got), nan)
            assert np.array_equal(got[~nan].view(np.uint64),
                                  x[~nan].view(np.uint64))

    DECIMALS = [
        "9007199254740993", "9007199254740993.0", "9007199254740993e0",
        # halfway between two doubles, to even upward and downward
        "9007199254740995.0", "9007199254740995e0", "18014398509481990.0",
        "18014398509481986.0", "1.8014398509481990e16",
        "2.2250738585072011e-308", "2.2250738585072012e-308",
        "2.4703282292062327e-324", "2.4703282292062328e-324",
        "4.9406564584124654e-324", "1e23", "8.41e21", "1.7976931348623157e308",
        "1.7976931348623158e308", "1.7976931348623159e308", "5e-324",
        "1e-324", "3e-324", "1234567890123456789", "1.234567890123456789e5",
        "12345678901234567890", "1.2345678901234567890e5",
        "99999999999999999999.0", "9.9999999999999999999e5",
        "1234567890123456789012345", "1.234567890123456789012345e-5",
        "1e400", "-1e400", "1e-400", "1.5E+400", "0.1e-400", "0e400",
        "-0", "-0.0", "0e0", "0.0e-5", "1E+5", "1e-5", "1E5", "1e05",
        "0.000000000000000000000000000001", "100000000000000000000.0",
        "9223372036854775807", "-9223372036854775808",
        "9223372036854775808", "-9223372036854775809",
        "Infinity", "-Infinity", "NaN", "0", "0.5", "2.5", "-1.5e-3",
    ]

    @pytest.mark.parametrize("text", DECIMALS)
    def test_hand_written_decimals(self, text):
        for items in ([text] * NATIVE_MIN_ITEMS,
                      [text] + ["0.5"] * NATIVE_MIN_ITEMS,
                      ["7"] * NATIVE_MIN_ITEMS + [text]):
            decodes_alike(array_text(items))
            decodes_alike(array_text(items, sep=" ,\n\t\r"))
        decodes_alike(text.encode())

    def test_whitespace(self):
        for sep in (",", " ,\n", "\t,\r\n ", " , "):
            for items in (["1"] * 70, ["1.5"] * 70):
                raw = b"[ \n" + sep.join(items).encode() + b"\t]"
                decodes_alike(raw)
                decodes_alike(b' {"a" :\n' + raw + b" } \r\n")

    @pytest.mark.parametrize("items", [
        ["1"] * 63 + ["2.5"], ["2.5"] * 63 + ["1"], ["0"] * 64 + ["-0.0"],
        [str(2 ** 63)] + ["1"] * 70, ["1"] * 70 + [str(-(2 ** 63) - 1)],
        [str(10 ** 30)] * 70, ["1e5"] + ["3"] * 70,
        ["NaN"] + ["1"] * 70, ["Infinity"] * 70,
    ], ids=["int-then-float", "float-then-int", "zeros", "past-int64",
            "below-int64", "huge", "exponent-int", "nan-ints", "infinities"])
    def test_mixed_arrays_keep_json_types(self, items):
        raw = array_text(items)
        decodes_alike(raw)
        decodes_alike(b'{"x": ' + raw + b', "y": [' + raw + b", "
                      + raw + b"]}")

    def test_arrays_inside_strings(self, scanned):
        numbers = ", ".join(["1.5"] * 100)
        floats = array_text(["0.25"] * NATIVE_MIN_ITEMS).decode()
        for raw in (
                dumps({"s": f"[{numbers}]", "v": [0.25] * NATIVE_MIN_ITEMS}),
                dumps({"s": f'a"[{numbers}]', "t": f"\\[{numbers}]"}),
                f'{{"s": "x\\"[{numbers}]", "v": {floats}}}'.encode(),
                f'{{"s": "x\\\\", "v": {floats}, "t": "[{numbers}]"}}'.encode(),
                f'["[{numbers}]", {floats}]'.encode()):
            decodes_alike(raw)
        if native.native_available():
            # only the arrays outside strings were read
            read = [[arr.tolist() for _, _, arr in found]
                    for found in scanned]
            v = [[0.25] * NATIVE_MIN_ITEMS]
            assert read == [v, [], v, v, v]

    @pytest.mark.parametrize("token", [
        "01", "1.", ".5", "+1", "1e", "1e+", "0x1", "nan", "inf", "-",
        "--1", "1.e5", "-NaN", "NaNa", "Infinity1", "1_0", "١", "1 2",
    ])
    def test_invalid_tokens(self, token):
        for items in (["0.5"] * 70 + [token], ["3"] * 70 + [token],
                      [token] + ["0.5"] * 70):
            raises_alike(array_text(items))
            raises_alike(b'{"a": ' + array_text(items) + b"}")

    def test_trailing_comma_and_garbage(self):
        floats = ", ".join(["0.5"] * 70)
        for raw in (f"[{floats},]", f"[{floats}", f"[{floats}]]",
                    f"[{floats}] x", f'{{"a": [{floats}] "b": 1}}',
                    f"[{floats}]NaN", f"-[{floats}]", f"1[{floats}]",
                    f"[[{floats}], [{floats}]"):
            raises_alike(raw.encode())

    def test_constants_outside_arrays(self):
        floats = [0.5] * NATIVE_MIN_ITEMS
        for obj in ({"x": float("nan"), "y": floats},
                    {"y": floats, "x": [float("nan"), 1.0]},
                    {"x": float("inf"), "y": floats, "z": -float("inf")},
                    [float("nan")] * 3 + [floats, floats]):
            decodes_alike(dumps(obj))

    def test_key_order_and_duplicate_keys(self):
        floats = array_text(["0.5"] * 70).decode()
        ints = array_text(["2"] * 70).decode()
        decodes_alike(f'{{"b": {floats}, "a": {ints}, "c": 1}}'.encode())
        decodes_alike(f'{{"a": {floats}, "a": {ints}}}'.encode())

    def test_non_ascii_keys_bom_and_utf16(self):
        obj = {"ключ": [0.1] * 70, "ü": "é", "☃": {"x": list(range(70))},
               "\U0001f600": [1e-300] * 70}
        for raw in (json.dumps(obj, ensure_ascii=False).encode(),
                    encode_json(obj),
                    b"\xef\xbb\xbf" + encode_json(obj),
                    json.dumps(obj).encode("utf-16"),
                    json.dumps(obj).encode("utf-16-le"),
                    json.dumps(obj).encode("utf-32")):
            decodes_alike(raw)
        raises_alike(b'{"a": "\xff", "b": ' + array_text(["0.5"] * 70) + b"}")

    def test_empty_and_scalar_bodies(self):
        for raw in (b"{}", b"[]", b"0", b"1.5", b'"x"', b"null", b"NaN"):
            decodes_alike(raw)
        for raw in (b"", b" ", b"[", b"{", b"nul"):
            raises_alike(raw)


# ----------------------------------------------------------------------
# served bodies through the decoder
# ----------------------------------------------------------------------
SMALL = {"gen": {"family": "rmat", "scale": 4, "degree": 4, "seed": 1}}
SERVED = {"gen": {"family": "rmat", "scale": 7, "degree": 6, "seed": 3}}


def served_snapshots(spec):
    """A ``return_result`` job of ``spec`` squared through ServeClient:
    the snapshot it returns and the raw body it read."""
    import repro.serve.client as client_mod

    raws = []

    def spy(raw):
        raws.append(raw)
        return decode_json(raw)

    async def main():
        server = SpgemmServer(ServerConfig(slots=2))
        await server.start()
        try:
            return await ServeClient(*server.address).submit_job(
                {"a": spec, "b": spec, "return_result": True})
        finally:
            await server.stop()

    mp = pytest.MonkeyPatch()
    mp.setattr(client_mod, "decode_json", spy)
    try:
        snap = asyncio.run(main())
    finally:
        mp.undo()
    (raw,) = raws
    return snap, raw


class TestServedDecoding:
    def test_a_served_product_reads_back_bit_equal(self, scanned):
        snap, raw = served_snapshots(SERVED)
        assert same(snap, json.loads(raw))
        a = resolve_operand(SERVED)
        want = spgemm(a, a)
        m = snap["result"]["matrix"]
        assert m["shape"] == list(want.shape)
        assert np.array_equal(np.array(m["row_offsets"]), want.row_offsets)
        assert np.array_equal(np.array(m["col_ids"]), want.col_ids)
        assert np.array_equal(np.array(m["data"]).view(np.uint64),
                              want.data.view(np.uint64))
        if native.native_available():
            # the decoded snapshot's three arrays were read natively
            assert [arr.dtype for _, _, arr in scanned[-1]] \
                == [np.int64, np.int64, np.float64]

    def test_a_served_body_cut_at_every_byte(self):
        snap, raw = served_snapshots(SMALL)
        assert len(snap["result"]["matrix"]["data"]) >= NATIVE_MIN_ITEMS
        for end in range(len(raw)):
            cut = raw[:end]
            raises_alike(cut)
            if native.native_available():
                # a buffer of exactly `end` bytes, for AddressSanitizer
                exact = np.frombuffer(cut, dtype=np.uint8).copy()
                native.native_json_arrays(exact, NATIVE_MIN_ITEMS)
        decodes_alike(raw)
