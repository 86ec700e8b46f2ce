"""Request parsing and the TCP allocation service."""

import io
import json
import math
import re
import socket
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adapshare.agents import load_agent, make_agent, save_agent
from adapshare.domain import AgentConfig, AgentKind, EnvConfig, ExperimentConfig
from adapshare.env import Observation, objective_j, project_action
from adapshare.harness.service import (
    IDLE_TIMEOUT_S,
    MAX_LINE,
    AllocationHandler,
    MalformedRequest,
    _parse_request,
    start_server,
)
from conftest import serve_in_thread
from service_reference import _parse_request as reference_parse

WINDOW_N = 2
HISTORY = [[5.0, 5.0], [4.0, 6.0], [3.0, 7.0]]


def request_line(history=HISTORY, n_r=100.0, zeta=0.5, **extra):
    payload = {"demand_history": history, "n_r": n_r, "zeta": zeta}
    payload.update(extra)
    return json.dumps(payload)


@pytest.fixture(scope="module")
def checkpoint_path(tmp_path_factory):
    cfg = ExperimentConfig(
        env=EnvConfig(n_r=100.0, zeta=0.5, window_n=WINDOW_N),
        train_steps=0,
        seed=11,
    )
    agent = make_agent(AgentKind.TD3, obs_dim=2 * (WINDOW_N + 1), config=cfg.agent, seed=cfg.seed)
    path = tmp_path_factory.mktemp("service") / "agent.json"
    save_agent(agent, cfg, path)
    return path


@pytest.fixture(scope="module")
def expected(checkpoint_path):
    """In-process twin of the server's answer for the canonical request."""
    agent, cfg = load_agent(checkpoint_path)

    def answer(history, n_r=100.0, zeta=0.5):
        pairs = np.asarray(history, dtype=float)[: WINDOW_N + 1]
        obs = Observation(pairs=pairs / cfg.env.capacity_norm)
        alloc = project_action(agent.act(obs, explore=False), n_r)
        j = objective_j(alloc, (pairs[0, 0], pairs[0, 1]), zeta, cfg.env.d_min)
        return {"n_a": alloc.n_a, "n_b": alloc.n_b, "j_estimate": j}

    return answer


@pytest.fixture(scope="module")
def live_server(checkpoint_path):
    server, _thread = serve_in_thread(checkpoint_path)
    yield server
    server.shutdown()
    server.server_close()


def strict_json(text):
    """json.loads that refuses the Infinity and NaN tokens, which are not JSON."""
    def refuse(token):
        raise ValueError(f"reply is not JSON: it holds {token}")
    return json.loads(text, parse_constant=refuse)


def exchange(address, lines):
    """Send newline-delimited requests on one connection, collect replies."""
    with socket.create_connection(address, timeout=10) as sock:
        fh = sock.makefile("rwb")
        replies = []
        for line in lines:
            fh.write(line.encode("utf-8") + b"\n")
            fh.flush()
            replies.append(strict_json(fh.readline().decode("utf-8")))
        return replies


# values at and past the ends of the demand range, which requests may hold
edge_demands = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -0.0, -5e-324, 0, 0.0]),
                         st.integers(-(2 ** 70), 2 ** 70), st.floats())


@st.composite
def histories(draw):
    """A demand history of in-range pairs (now and then of one or three
    values each), with up to two values swapped for edge_demands."""
    width = draw(st.sampled_from([2, 2, 2, 1, 3]))
    values = draw(st.lists(st.one_of(st.integers(0, 2 ** 70), st.floats(0.0, 1e300)),
                           min_size=width * (WINDOW_N + 1), max_size=width * 6))
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        values[draw(st.integers(0, len(values) - 1))] = draw(edge_demands)
    return [values[i:i + width] for i in range(0, len(values) - width + 1, width)]


class TestParseRequest:
    def test_valid_request(self):
        pairs, n_r, zeta = _parse_request(request_line(), WINDOW_N)
        assert pairs.shape == (3, 2)
        assert pairs[0, 1] == 5.0
        assert (n_r, zeta) == (100.0, 0.5)

    def test_history_truncated_to_window(self):
        longer = HISTORY + [[9.0, 9.0], [8.0, 8.0]]
        pairs, _, _ = _parse_request(request_line(history=longer), WINDOW_N)
        assert pairs.shape == (3, 2)
        assert pairs.tolist() == HISTORY

    def test_not_json(self):
        with pytest.raises(MalformedRequest, match="not valid JSON"):
            _parse_request("nope{", WINDOW_N)

    @pytest.mark.parametrize("line", ["[" * 50_000, '{"n_r": ' + "9" * 5_000 + "}"], ids=["deep", "digits"])
    def test_json_past_the_parser_limits(self, line):
        # json.loads raises RecursionError and a plain ValueError on these
        with pytest.raises(MalformedRequest, match="not valid JSON"):
            _parse_request(line, WINDOW_N)

    def test_non_object(self):
        with pytest.raises(MalformedRequest, match="must be an object"):
            _parse_request("[1, 2]", WINDOW_N)

    @pytest.mark.parametrize("missing", ["demand_history", "n_r", "zeta"])
    def test_missing_field(self, missing):
        payload = json.loads(request_line())
        del payload[missing]
        with pytest.raises(MalformedRequest, match=f"missing field '{missing}'"):
            _parse_request(json.dumps(payload), WINDOW_N)

    def test_history_too_short(self):
        with pytest.raises(MalformedRequest, match="at least 3"):
            _parse_request(request_line(history=HISTORY[:2]), WINDOW_N)

    def test_history_not_numeric(self):
        bad = [["x", "y"], [1.0, 1.0], [1.0, 1.0]]
        with pytest.raises(MalformedRequest, match="numeric pairs"):
            _parse_request(request_line(history=bad), WINDOW_N)

    def test_history_ragged(self):
        bad = [[1.0], [1.0, 1.0], [1.0, 1.0]]
        with pytest.raises(MalformedRequest):
            _parse_request(request_line(history=bad), WINDOW_N)

    def test_history_negative(self):
        bad = [[-1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]
        with pytest.raises(MalformedRequest, match="finite nonnegative"):
            _parse_request(request_line(history=bad), WINDOW_N)

    def test_history_not_finite(self):
        bad = [[float("inf"), 1.0], [1.0, 1.0], [1.0, 1.0]]
        with pytest.raises(MalformedRequest, match="finite nonnegative"):
            _parse_request(request_line(history=bad), WINDOW_N)

    @pytest.mark.parametrize("n_r", [0.0, -5.0, float("nan")])
    def test_bad_pool(self, n_r):
        with pytest.raises(MalformedRequest, match="n_r must be positive"):
            _parse_request(request_line(n_r=n_r), WINDOW_N)

    def test_non_numeric_pool(self):
        with pytest.raises(MalformedRequest, match="^n_r must be a number: "):
            _parse_request(request_line(n_r="wide"), WINDOW_N)

    @pytest.mark.parametrize("field,kw", [
        ("n_r", dict(n_r=10 ** 400)), ("zeta", dict(zeta=-10 ** 400)),
        ("demand_history", dict(history=[[5.0, 10 ** 400]] + HISTORY[1:])),
    ], ids=["n_r", "zeta", "history"])
    def test_int_past_float_range_names_the_field(self, field, kw):
        with pytest.raises(MalformedRequest, match=f"^{field} .*int too large"):
            _parse_request(request_line(**kw), WINDOW_N)

    @pytest.mark.parametrize("zeta", [-0.1, 1.5])
    def test_bad_zeta(self, zeta):
        with pytest.raises(MalformedRequest, match="zeta must lie"):
            _parse_request(request_line(zeta=zeta), WINDOW_N)

    @pytest.mark.parametrize(
        "field,kw",
        [("n_r", dict(n_r=True, zeta=False)), ("zeta", dict(zeta=False)),
         ("demand_history", dict(history=[[True, 2.0], [1.0, 1.0], [1.0, 1.0]])),
         ("demand_history", dict(history=HISTORY + [[1.0, False]]))],
        ids=["n_r", "zeta", "history", "unused_history_pair"],
    )
    def test_booleans_refused_naming_the_field(self, field, kw):
        # JSON true and false would otherwise read as 1.0 and 0.0
        with pytest.raises(MalformedRequest, match=f"^{field} .*(true|false|boolean)"):
            _parse_request(request_line(**kw), WINDOW_N)

    @pytest.mark.parametrize("field,value", [
        ("n_r", "60"), ("n_r", " 6e1 "), ("n_r", None), ("n_r", [60]), ("zeta", "0.5"), ("zeta", {}),
    ], ids=["n_r", "n_r_padded", "n_r_null", "n_r_list", "zeta", "zeta_object"])
    def test_number_that_is_not_a_json_number_refused(self, field, value):
        # float() read "60", " 6e1 " and "0.5" as numbers
        with pytest.raises(MalformedRequest, match=f"^{field} must be a number: got "):
            _parse_request(request_line(**{field: value}), WINDOW_N)

    @pytest.mark.parametrize("history", [
        [["1", "2"]] + HISTORY[1:], HISTORY + [["1", "2"]], [[5.0, None]] + HISTORY[1:],
        [[5.0, [5.0]]] + HISTORY[1:], [5.0] + HISTORY[1:], ["ab"] + HISTORY[1:],
    ], ids=["strings", "unused_strings", "null", "nested", "bare_number", "string_pair"])
    def test_history_entry_that_is_not_a_json_number_refused(self, history):
        # np.asarray read ["1", "2"] as the pair (1.0, 2.0)
        with pytest.raises(MalformedRequest, match="^demand_history entries must be numeric pairs"):
            _parse_request(request_line(history=history), WINDOW_N)

    def test_history_nan_refused(self):
        # json.loads reads the NaN token, which is not JSON
        line = request_line().replace("[5.0, 5.0]", "[NaN, 5.0]", 1)
        with pytest.raises(MalformedRequest, match="finite nonnegative"):
            _parse_request(line, WINDOW_N)

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(histories())
    def test_range_check_refuses_what_the_range_mask_refused(self, history):
        # the mask the check over Python floats replaced
        pairs = np.asarray(history, dtype=float)
        refused = pairs.shape[1] != 2 or not ((pairs >= 0) & (pairs < math.inf)).all()
        line = request_line(history=history)
        if refused:
            with pytest.raises(MalformedRequest, match="^demand_history entries must be finite nonnegative pairs$"):
                _parse_request(line, WINDOW_N)
        else:
            assert _parse_request(line, WINDOW_N)[0].tobytes() == pairs[: WINDOW_N + 1].tobytes()

    def test_boolean_in_an_ignored_field_is_harmless(self):
        pairs, n_r, zeta = _parse_request(request_line(verbose=True, note="true"), WINDOW_N)
        assert pairs.tolist() == HISTORY and (n_r, zeta) == (100.0, 0.5)


# what a hostile client may put where a demand or a pair goes
hostile_values = st.one_of(
    st.booleans(), st.none(), st.text(max_size=3), st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
    st.lists(st.one_of(st.floats(0.0, 10.0), st.booleans()), max_size=3), st.integers(-(2 ** 1100), 2 ** 1100),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, -5e-324, 10 ** 400, -(10 ** 400)]), st.floats(),
)
in_range = st.one_of(st.floats(0.0, 1e300), st.integers(0, 2 ** 70), st.just(0))


@st.composite
def hostile_histories(draw):
    """Up to 8 entries of one width from 0 to 3 (mostly pairs of in-range
    numbers), with up to three values or entries swapped for hostile
    ones or for entries of another width; several faults may meet in one
    history."""
    width = draw(st.sampled_from([2, 2, 2, 0, 1, 3]))
    history = [draw(st.lists(in_range, min_size=width, max_size=width)) for _ in range(draw(st.integers(0, 8)))]
    for _ in range(draw(st.integers(0, 3)) if history else 0):
        i = draw(st.integers(0, len(history) - 1))
        swap = draw(st.sampled_from(["value", "entry", "width"]))
        if swap == "value" and isinstance(history[i], list) and history[i]:
            history[i][draw(st.integers(0, len(history[i]) - 1))] = draw(hostile_values)
        elif swap == "entry":
            history[i] = draw(st.one_of(hostile_values, st.sampled_from(["", "ab", {}, {"d_a": 1.0}, 5.0])))
        else:
            history[i] = draw(st.lists(in_range, max_size=4))
    return history


PAIRS = "demand_history entries must be numeric pairs"


def parse_outcome(parse, line):
    """(shape, pairs bytes, n_r and zeta in hex), or the refusal's text;
    a refusal that ends in numpy's own exception text (entries of
    different lengths, empty strings) reads as its first words."""
    try:
        pairs, n_r, zeta = parse(line, WINDOW_N)
    except MalformedRequest as exc:
        text = str(exc)
        return PAIRS if text.startswith(PAIRS + ": ") and "int too large" not in text else text
    except TypeError:  # np.asarray let one out on a history of empty objects
        return f"{PAIRS} (a TypeError)"
    return pairs.shape, pairs.tobytes(), n_r.hex(), zeta.hex()


class TestParseAgainstReference:
    # a valid n_r and zeta are listed twice, so that most lines reach the history
    @settings(deadline=None, derandomize=True, max_examples=600)
    @given(history=hostile_histories(),
           n_r=st.one_of(st.floats(1e-3, 1e6), st.floats(1e-3, 1e6), hostile_values),
           zeta=st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1.0), hostile_values))
    def test_same_pairs_or_error_text_as_the_reference(self, history, n_r, zeta):
        line = request_line(history=history, n_r=n_r, zeta=zeta)
        got, want = parse_outcome(_parse_request, line), parse_outcome(reference_parse, line)
        # the reference refused a history of empty objects with a TypeError
        # from np.asarray, which dropped the connection
        assert got == (PAIRS if want == f"{PAIRS} (a TypeError)" else want)

    @pytest.mark.parametrize("history, text", [
        ([[1.0, 2.0], [], [3.0, 4.0]], PAIRS + ": entries differ in length"),
        ([[1.0, 2.0], [1.0], [10 ** 400, 4.0]], PAIRS + ": entries differ in length"),
        ([[1.0], [2.0], [10 ** 400]], PAIRS + ": int too large to convert to float"),
        ([[True, 2.0], [1.0, 2.0], 5.0], PAIRS),
        ([[True, 2.0], [1.0, 2.0], "ab"], PAIRS + ", got a boolean"),
        (["", "", ""], PAIRS), ([{}, {}, {}], PAIRS), ([[1.0, 2.0], "", [3.0, 4.0]], PAIRS + ": entries differ in length"),
        ([[1.0], [2.0], [3.0]], "demand_history entries must be finite nonnegative pairs"),
        ([[], [], []], "demand_history entries must be finite nonnegative pairs"),
    ], ids=["ragged", "ragged_before_overflow", "overflow", "bare_number_before_boolean", "boolean_before_string",
            "empty_strings", "empty_objects", "empty_string_entry", "width_1", "width_0"])
    def test_fault_order(self, history, text):
        with pytest.raises(MalformedRequest) as info:
            _parse_request(request_line(history=history), WINDOW_N)
        assert str(info.value) == text


class TestAnswer:
    def test_matches_in_process_policy(self, live_server, expected):
        reply = live_server.answer(request_line())
        want = expected(HISTORY)
        assert reply == want
        assert reply["n_a"] + reply["n_b"] <= 100.0 + 1e-9

    def test_custom_pool_and_weight(self, live_server, expected):
        reply = live_server.answer(request_line(n_r=7.0, zeta=0.2))
        assert reply == expected(HISTORY, n_r=7.0, zeta=0.2)
        assert reply["n_a"] + reply["n_b"] <= 7.0 + 1e-9

    def test_extra_history_ignored(self, live_server):
        longer = HISTORY + [[9.0, 9.0], [8.0, 8.0]]
        assert live_server.answer(request_line(history=longer)) == live_server.answer(
            request_line()
        )


def handler_reply(server, line):
    """The bytes AllocationHandler writes back for one request line."""
    handler = object.__new__(AllocationHandler)
    handler.server = server
    handler.rfile = io.BytesIO(line.encode("utf-8") + b"\n")
    handler.wfile = io.BytesIO()
    handler.handle()
    return handler.wfile.getvalue()


@pytest.fixture(scope="module", params=[(64, 64), (32,)], ids=["hidden_64_64", "hidden_32"])
def policy(request, tmp_path_factory):
    """(server, agent, experiment) of a freshly initialised TD3 policy at
    the default window; the server is bound but not serving."""
    cfg = ExperimentConfig(env=EnvConfig(n_r=60.0), agent=AgentConfig(hidden_dims=request.param),
                           train_steps=0, seed=5)
    agent = make_agent(AgentKind.TD3, obs_dim=2 * (cfg.env.window_n + 1), config=cfg.agent, seed=cfg.seed)
    path = tmp_path_factory.mktemp("policy") / "agent.json"
    save_agent(agent, cfg, path)
    server = start_server(path)
    yield server, *load_agent(path)
    server.server_close()


demands = st.one_of(st.just(0), st.just(0.0), st.integers(0, 10 ** 6), st.floats(0.0, 1e6))


class TestReplyBits:
    @settings(deadline=None, derandomize=True, max_examples=150)
    @given(
        history=st.lists(st.tuples(demands, demands).map(list), min_size=5, max_size=24),
        n_r=st.one_of(st.integers(1, 10 ** 6), st.floats(1e-3, 1e6)),
        zeta=st.one_of(st.sampled_from([0, 1, 0.5]), st.floats(0.0, 1.0)),
    )
    def test_answer_and_reply_bytes_match_the_observation_path(self, policy, history, n_r, zeta):
        server, agent, cfg = policy
        env = cfg.env
        line = request_line(history=history, n_r=n_r, zeta=zeta)
        # the expected fixture's formula, through Observation and act
        pairs = np.asarray(history, dtype=float)[: env.window_n + 1]
        obs = Observation(pairs=pairs / env.capacity_norm)
        alloc = project_action(agent.act(obs, explore=False), float(n_r))
        j = objective_j(alloc, (pairs[0, 0], pairs[0, 1]), float(zeta), env.d_min)
        if not math.isfinite(j):
            with pytest.raises(MalformedRequest, match="j_estimate overflows"):
                server.answer(line)
            return
        reply = server.answer(line)
        assert [float(v).hex() for v in reply.values()] == [alloc.n_a.hex(), alloc.n_b.hex(), float(j).hex()]
        assert list(reply) == ["n_a", "n_b", "j_estimate"]
        assert handler_reply(server, line) == (json.dumps(reply) + "\n").encode()

    @pytest.mark.parametrize("line", ["nope{", request_line(n_r="60"), request_line(n_r=1e300, history=[[0, 0]] * 3)],
                             ids=["not_json", "string_pool", "j_overflows"])
    def test_error_reply_bytes(self, live_server, line):
        with pytest.raises(MalformedRequest) as info:
            live_server.answer(line)
        assert handler_reply(live_server, line) == (json.dumps({"error": str(info.value)}) + "\n").encode()


class TestOverTcp:
    def test_round_trip(self, live_server, expected):
        replies = exchange(live_server.server_address, [request_line()])
        assert replies == [expected(HISTORY)]

    def test_connection_survives_bad_lines(self, live_server, expected):
        replies = exchange(
            live_server.server_address,
            ["this is not json", request_line(history=HISTORY[:1]), request_line()],
        )
        assert "not valid JSON" in replies[0]["error"]
        assert "at least 3" in replies[1]["error"]
        assert replies[2] == expected(HISTORY)

    @pytest.mark.parametrize("kw", [dict(n_r=10 ** 400), dict(history=[[10 ** 400, 1.0]] + HISTORY[1:])],
                             ids=["n_r", "history"])
    def test_connection_survives_an_int_past_float_range(self, live_server, expected, kw):
        # float() and np.asarray raise OverflowError on a 401-digit integer
        replies = exchange(live_server.server_address, [request_line(**kw), request_line()])
        assert "int too large" in replies[0]["error"]
        assert replies[1] == expected(HISTORY)

    def test_connection_survives_a_pool_whose_j_overflows(self, live_server, expected):
        # demands floored at d_min = 0.1 make ((n_a - 0.1) / 0.1)^2 overflow
        zeros = [[0.0, 0.0]] * (WINDOW_N + 1)
        replies = exchange(live_server.server_address, [request_line(history=zeros, n_r=1e300), request_line()])
        assert replies[0] == {"error": "n_r 1e+300 is too large: its j_estimate overflows"}
        assert replies[1] == expected(HISTORY)

    def test_connection_survives_deeply_nested_json(self, live_server, expected):
        replies = exchange(live_server.server_address, ["[" * 50_000, request_line()])
        assert replies[0] == {"error": "not valid JSON: JSON nested too deeply"}
        assert replies[1] == expected(HISTORY)

    def test_pool_past_half_the_float_maximum_is_not_granted_as_nothing(self, live_server, expected):
        # this actor asks for u_a + u_b of about 1.013, so u_a * n_r + u_b * n_r
        # overflowed to inf, which projected onto (0, 0) with J = 1; the grant
        # now fills the pool, and its J overflows
        replies = exchange(live_server.server_address, [request_line(n_r=1.79e308), request_line()])
        assert replies[0] == {"error": "n_r 1.79e+308 is too large: its j_estimate overflows"}
        assert replies[1] == expected(HISTORY)

    def test_blank_lines_get_no_reply(self, live_server, expected):
        with socket.create_connection(live_server.server_address, timeout=10) as sock:
            sock.sendall(b"\n   \r\n\t\n" + request_line().encode("utf-8") + b"\n\n")
            sock.shutdown(socket.SHUT_WR)
            with sock.makefile("rb") as fh:
                replies = fh.read().decode("utf-8").splitlines()
        assert [strict_json(r) for r in replies] == [expected(HISTORY)]

    def test_sequential_connections(self, live_server, expected):
        for _ in range(2):
            replies = exchange(live_server.server_address, [request_line()])
            assert replies == [expected(HISTORY)]

    def test_over_long_line_gets_error_then_close(self, live_server, expected):
        with socket.create_connection(live_server.server_address, timeout=10) as sock:
            fh = sock.makefile("rwb")
            fh.write(b"x" * (100 * 1024) + b"\n")
            fh.flush()
            reply = json.loads(fh.readline().decode("utf-8"))
            assert reply == {"error": f"request line longer than {MAX_LINE} bytes"}
            assert fh.readline() == b""
        replies = exchange(live_server.server_address, [request_line()])
        assert replies == [expected(HISTORY)]

    def test_line_at_the_cap_is_answered(self, live_server, expected):
        # MAX_LINE counts the newline that exchange appends
        line = request_line().ljust(MAX_LINE - 1)
        assert exchange(live_server.server_address, [line]) == [expected(HISTORY)]


class TestIdleTimeout:
    def test_idle_connection_closed_and_the_server_answers_a_new_one(self, checkpoint_path, expected,
                                                                      monkeypatch, capsys):
        # IDLE_TIMEOUT_S is the handler's socket timeout; 0.2 s keeps the test short
        monkeypatch.setattr(AllocationHandler, "timeout", 0.2)
        server, thread = serve_in_thread(checkpoint_path)
        try:
            with socket.create_connection(server.server_address, timeout=10) as idle:
                started = time.monotonic()
                assert idle.recv(1) == b""
                assert 0.15 < time.monotonic() - started < 5.0
            assert exchange(server.server_address, [request_line()]) == [expected(HISTORY)]
        finally:
            server.shutdown()
            server.server_close()
            thread.join()
        # the handler ended quietly, not through socketserver's traceback
        assert "Traceback" not in capsys.readouterr().err

    def test_timeout_is_the_module_constant(self):
        assert AllocationHandler.timeout == IDLE_TIMEOUT_S == 60


class TestStartServer:
    def test_missing_checkpoint(self, tmp_path):
        with pytest.raises(ValueError, match=r"^cannot load .*absent\.json: \[Errno 2\] No such file"):
            start_server(tmp_path / "absent.json")

    def test_wrong_format_checkpoint(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else", "version": 1}\n')
        with pytest.raises(ValueError, match=r"^cannot load .*other\.json: .*other\.json: not an agent checkpoint$"):
            start_server(path)

    def test_deeply_nested_checkpoint(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 50_000)
        with pytest.raises(ValueError,
                           match=r"^cannot load .*deep\.json: .*deep\.json: not a JSON checkpoint: JSON nested too deeply"):
            start_server(path)

    @pytest.mark.parametrize("port", [-1, 65536, 70000])
    def test_port_out_of_range_refused_before_the_checkpoint_loads(self, tmp_path, port):
        # 70000 once loaded the checkpoint, then let bind's OverflowError escape
        with pytest.raises(ValueError, match=rf"^port must lie in 0\.\.65535, got {port}$"):
            start_server(tmp_path / "absent.json", port=port)

    @pytest.mark.parametrize("port", [True, False, 8080.0, "80", None])
    def test_port_not_an_int_refused_before_the_checkpoint_loads(self, tmp_path, port):
        # True once bound port 1; 8080.0 and "80" escaped as a TypeError
        with pytest.raises(ValueError, match=rf"^port must be an int, got {re.escape(repr(port))}$"):
            start_server(tmp_path / "absent.json", port=port)

    def test_binds_ephemeral_port(self, checkpoint_path):
        server = start_server(checkpoint_path)
        try:
            host, port = server.server_address
            assert host == "127.0.0.1"
            assert port > 0
        finally:
            server.server_close()
