"""Hostile northbound query strings never produce a 500.

Every response to an arbitrary ``/api/features``, ``/api/alerts`` or
``/api/switches/{dpid}/flows`` request is either a success (2xx/3xx) or a
typed ``repro.errors`` envelope with a 4xx/503 status.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import errors, telemetry
from repro.northbound import LocalClient, NorthboundAPI, build_demo_stack
from repro.northbound.api import ApiParamError

#: Codes a typed error envelope may carry.
TYPED_CODES = {
    obj.code
    for obj in vars(errors).values()
    if isinstance(obj, type) and issubclass(obj, errors.ReproError)
} | {ApiParamError.code}

FUZZ = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Query-string text: any printable characters, plus the shapes that reach
# number parsing and the query grammar.
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=24)
_NUMBER_WORDS = st.sampled_from(
    ["nan", "NaN", "inf", "-inf", "Infinity", "-1", "-0", "1e400", "0x10",
     "1_000", " 7 ", "", "9" * 5000, "-" + "9" * 40]
)
_NUMBERS = st.one_of(
    st.integers(min_value=-(10 ** 30), max_value=10 ** 30).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    _NUMBER_WORDS,
)
_QUERY_TEXT = st.one_of(
    _TEXT,
    st.sampled_from(
        ["feature_scope == flow", "FLOW_PACKET_COUNT > 0 &&", "(((", "==",
         "a == 'b", "x in [1,", "switch_id == 99999999999999999999999",
         "FLOW_PACKET_COUNT > nan", "!", "&& ||"]
    ),
)
_ANY = st.one_of(_TEXT, _NUMBERS)


@pytest.fixture(scope="module")
def client():
    telemetry.configure(enabled=False)
    demo = build_demo_stack(horizon=3.0)
    demo.run(until=3.0)
    demo.enforce_block()
    yield LocalClient(NorthboundAPI(demo.athena))
    telemetry.reset_telemetry()


def _assert_typed(response):
    assert response.status < 400 or response.status in (400, 503), (
        response.body[:400]
    )
    if response.status >= 400:
        envelope = response.json()["error"]
        assert envelope["code"] in TYPED_CODES, envelope


def _params(**drawn):
    return {key: value for key, value in drawn.items() if value is not None}


@FUZZ
@given(
    q=st.none() | _QUERY_TEXT,
    scope=st.none() | _TEXT,
    switch=st.none() | _ANY,
    sort=st.none() | _TEXT,
    offset=st.none() | _NUMBERS,
    limit=st.none() | _NUMBERS,
)
def test_features_query_strings(client, q, scope, switch, sort, offset, limit):
    _assert_typed(client.get("/api/features", params=_params(
        q=q, scope=scope, switch=switch, sort=sort, offset=offset, limit=limit,
    )))


# Each long-poll may drive the demo's periodic rounds through 60 sim
# seconds, so this property draws fewer examples.
@settings(FUZZ, max_examples=15)
@given(
    wait=st.none() | _NUMBERS,
    since=st.none() | _NUMBERS,
    offset=st.none() | _NUMBERS,
    limit=st.none() | _NUMBERS,
)
def test_alerts_long_poll_parameters(client, wait, since, offset, limit):
    _assert_typed(client.get("/api/alerts", params=_params(
        wait=wait, since=since, offset=offset, limit=limit,
    )))


_DPIDS = st.one_of(
    _NUMBERS,
    st.text(
        st.characters(blacklist_categories=("Cs",), blacklist_characters="/?"),
        min_size=1, max_size=24,
    ),
).filter(lambda dpid: dpid and "/" not in dpid and "?" not in dpid)


@FUZZ
@given(dpid=_DPIDS, limit=st.none() | _NUMBERS)
def test_switch_flows_ids(client, dpid, limit):
    _assert_typed(
        client.get(f"/api/switches/{dpid}/flows", params=_params(limit=limit))
    )


@pytest.mark.parametrize("wait", ["nan", "-inf", "-1", "soon"])
def test_unusable_wait_is_a_typed_400(client, wait):
    response = client.get("/api/alerts", params={"wait": wait})
    assert response.status == 400
    assert response.json()["error"]["code"] == ApiParamError.code
