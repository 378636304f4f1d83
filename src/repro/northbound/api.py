"""The northbound serving tier: a dependency-free WSGI app over Athena.

The paper's operators program detection through the eight Table II
functions in-process; this module puts an HTTP face on that surface so
external clients — dashboards, scrapers, other controllers — can poll
features, alerts, model status, flow tables, and deployment health as
JSON, and Prometheus can scrape ``/metrics``.  Everything is stdlib: the
app is a plain WSGI callable, served by ``wsgiref`` threads
(:mod:`repro.northbound.server`) or driven in-process by
:class:`~repro.northbound.client.LocalClient`.

Heavy query traffic must not perturb detection, so every JSON route is
served through a :class:`~repro.northbound.cache.VersionedCache` keyed on
the deployment's *state version* (sim events processed + the manager
counters): repeated identical queries against a quiescent deployment cost
one dict lookup, and conditional requests collapse to ``304 Not
Modified``.  ``benchmarks/bench_nb_api.py`` enforces the <5% perturbation
budget.  Every route, parameter, and envelope is documented in
docs/API.md, which ``tests/test_docs_northbound.py`` keeps drift-checked
against :data:`NorthboundAPI.routes`.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs

from repro.core.query import Query
from repro.errors import (
    AthenaError,
    DatabaseError,
    QueryError,
    ReproError,
)
from repro.telemetry import get_telemetry, to_prometheus_text
from repro.northbound.cache import VersionedCache

#: Ordered (class, HTTP status) pairs — most specific first — mapping the
#: repro.errors hierarchy onto response statuses.  Anything not caught by
#: an earlier row degrades to its base class's row.
ERROR_STATUS = (
    (QueryError, 400),
    (DatabaseError, 503),
    (AthenaError, 400),
    (ReproError, 500),
)

_REASONS = {
    200: "OK",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Default / maximum page sizes for every paginated route.
DEFAULT_PAGE_LIMIT = 100
MAX_PAGE_LIMIT = 1000

#: Longest sim-clock horizon one long-poll request may drive (seconds).
MAX_ALERT_WAIT = 60.0


class ApiParamError(AthenaError):
    """A request carried an unusable query parameter."""

    code = "athena.api_param"


def http_status_for(exc: ReproError) -> int:
    """The HTTP status an error maps to (docs/API.md "Error envelope")."""
    for cls, status in ERROR_STATUS:
        if isinstance(exc, cls):
            return status
    return 500


@dataclass(frozen=True)
class Route:
    """One served route: matching metadata plus its documentation row."""

    method: str
    pattern: str          # e.g. "/api/switches/{dpid}/flows"
    name: str             # telemetry label + docs anchor
    handler: Callable
    summary: str
    params: Tuple[str, ...] = ()   # recognised query parameters
    paginated: bool = False
    cached: bool = True
    #: Parameters whose presence forces a fresh render (e.g. long-poll).
    uncached_params: Tuple[str, ...] = ()

    def regex(self) -> "re.Pattern[str]":
        parts = []
        for piece in re.split(r"({[a-z_]+})", self.pattern):
            if piece.startswith("{") and piece.endswith("}"):
                parts.append(f"(?P<{piece[1:-1]}>[^/]+)")
            else:
                parts.append(re.escape(piece))
        return re.compile("^" + "".join(parts) + "$")


def _json_bytes(payload: Any) -> bytes:
    return json.dumps(
        payload, indent=2, sort_keys=True, default=str
    ).encode("utf-8")


def _int_param(
    query: Dict[str, str], name: str, default: int, minimum: int = 0
) -> int:
    raw = query.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ApiParamError(f"parameter {name!r} must be an integer, got {raw!r}")
    if value < minimum:
        raise ApiParamError(f"parameter {name!r} must be >= {minimum}, got {value}")
    return value


def paginate(
    items: List[Any], query: Dict[str, str]
) -> Tuple[List[Any], Dict[str, int]]:
    """Slice ``items`` by the standard ``offset``/``limit`` parameters."""
    offset = _int_param(query, "offset", 0)
    limit = _int_param(query, "limit", DEFAULT_PAGE_LIMIT)
    limit = min(limit, MAX_PAGE_LIMIT)
    window = items[offset:offset + limit]
    return window, {
        "offset": offset,
        "limit": limit,
        "total": len(items),
        "returned": len(window),
    }


class NorthboundAPI:
    """WSGI app exposing one Athena deployment (docs/API.md)."""

    def __init__(
        self,
        deployment,
        cache_entries: int = 256,
    ) -> None:
        self.deployment = deployment
        self.cache = VersionedCache(self._state_version, max_entries=cache_entries)
        registry = get_telemetry().registry
        self._metric_requests = registry.counter(
            "athena_nb_api_requests_total",
            "Northbound API requests served, by route.",
            labelnames=("route",),
        )
        self._metric_cache_hits = registry.counter(
            "athena_nb_api_cache_hits_total",
            "Responses served from the version-keyed cache.",
        )
        self._metric_cache_misses = registry.counter(
            "athena_nb_api_cache_misses_total",
            "Responses rendered because no current-version entry existed.",
        )
        self._metric_not_modified = registry.counter(
            "athena_nb_api_not_modified_total",
            "Conditional requests answered 304 via ETag match.",
        )
        self._metric_errors = registry.counter(
            "athena_nb_api_errors_total",
            "Error envelopes returned, by machine-readable code.",
            labelnames=("code",),
        )
        self._metric_seconds = registry.histogram(
            "athena_nb_api_request_seconds",
            "Wall seconds per northbound API request.",
        )
        self.routes: Tuple[Route, ...] = (
            Route("GET", "/", "index", self._h_index,
                  "API index: every route with its parameters."),
            Route("GET", "/api/status", "status", self._h_status,
                  "Deployment summary: instance/feature/model/reaction "
                  "counters and the current state version."),
            Route("GET", "/api/features", "features", self._h_features,
                  "Stored Athena features via RequestFeatures.",
                  params=("q", "scope", "switch", "sort", "limit", "offset"),
                  paginated=True),
            Route("GET", "/api/alerts", "alerts", self._h_alerts,
                  "Alerts: enforced reactions plus streaming-detector "
                  "alerts, most recent last; long-polls when `wait` is set.",
                  params=("limit", "offset", "wait", "since"), paginated=True,
                  uncached_params=("wait",)),
            Route("GET", "/api/models", "models", self._h_models,
                  "Detector status: model/validation counters, degradation "
                  "counters, online validators."),
            Route("GET", "/api/algorithms", "algorithms", self._h_algorithms,
                  "The ML algorithm registry with Table IV categories."),
            Route("GET", "/api/catalog", "catalog", self._h_catalog,
                  "The feature catalog (Table I).",
                  params=("category", "scope", "limit", "offset"),
                  paginated=True),
            Route("GET", "/api/switches", "switches", self._h_switches,
                  "Per-switch inventory: master instance, flow and port "
                  "counts.", params=("limit", "offset"), paginated=True),
            Route("GET", "/api/switches/{dpid}/flows", "switch_flows",
                  self._h_switch_flows,
                  "One switch's flow table: matches, priorities, counters.",
                  params=("limit", "offset"), paginated=True),
            Route("GET", "/api/health", "health", self._h_health,
                  "Liveness: shard status, pending writes, degraded rounds, "
                  "monitoring fidelity."),
            Route("GET", "/api/streaming/status", "streaming_status",
                  self._h_streaming_status,
                  "Streaming pipeline state: events folded by kind, "
                  "registered online detectors, alerts, refreshes."),
            Route("GET", "/metrics", "metrics", self._h_metrics,
                  "Prometheus text exposition of the telemetry registry.",
                  cached=False),
        )
        # Static paths resolve with one dict lookup; only parameterized
        # patterns pay a (precompiled) regex match.
        self._static_routes = {
            route.pattern: route for route in self.routes
            if "{" not in route.pattern
        }
        self._dynamic_routes = [
            (route.regex(), route) for route in self.routes
            if "{" in route.pattern
        ]
        self._route_counters = {
            route.name: self._metric_requests.labels(route=route.name)
            for route in self.routes
        }

    # -- state version -------------------------------------------------------

    def _state_version(self) -> Tuple[Any, ...]:
        """Monotonic fingerprint of everything the JSON routes can observe.

        The simulator's processed-event count covers all data-plane and
        control-plane movement; the manager counters cover NB-side calls
        (model generation, reactions, feature publication) that can happen
        outside a simulator event.
        """
        d = self.deployment
        sim = d.cluster.network.sim
        return (
            sim.processed,
            round(sim.now, 9),
            d.feature_manager.features_published,
            d.feature_manager.pending_writes,
            d.detector_manager.models_generated,
            d.detector_manager.validations_run,
            d.detector_manager.degraded_rounds,
            d.reaction_manager.reactions_enforced,
            # Streaming detector registrations happen outside sim events,
            # so the version must observe them directly.
            0 if d.streaming is None else d.streaming.detectors.detector_count,
            # The sketch switch can be overridden at runtime; /api/status
            # reports it, so a toggle must invalidate cached responses.
            d.config.sketch,
        )

    # -- WSGI entry point ----------------------------------------------------

    def __call__(self, environ, start_response):
        with self._metric_seconds.time():
            status, headers, body = self._dispatch(environ)
        if environ.get("REQUEST_METHOD") == "HEAD":
            body = b""
        start_response(status, headers)
        return [body]

    def _dispatch(self, environ) -> Tuple[str, List[Tuple[str, str]], bytes]:
        method = environ.get("REQUEST_METHOD", "GET")
        path = environ.get("PATH_INFO", "/") or "/"
        raw_qs = environ.get("QUERY_STRING", "")
        if method not in ("GET", "HEAD"):
            return self._error_response(
                405, "http.method_not_allowed",
                f"{method} is not supported; the API is read-only",
            )
        route, params = self._match(path)
        if route is None:
            return self._error_response(
                404, "http.not_found", f"no route matches {path!r}",
            )
        self._route_counters[route.name].inc()
        query = {}
        if raw_qs:
            query = {
                key: values[-1] for key, values in parse_qs(raw_qs).items()
            }
        if not route.cached or any(
            name in query for name in route.uncached_params
        ):
            return self._render(route, params, query)
        version = self.cache.version()
        key = (route.name, tuple(sorted(params.items())),
               tuple(sorted(query.items())))
        entry = self.cache.get(key, version)
        if entry is None:
            self._metric_cache_misses.inc()
            status, headers, body = self._render(route, params, query)
            if not status.startswith("200"):
                return status, headers, body
            entry = self.cache.put(key, version, status, headers, body)
        else:
            self._metric_cache_hits.inc()
        etags = environ.get("HTTP_IF_NONE_MATCH", "")
        if entry.etag in [tag.strip() for tag in etags.split(",") if tag]:
            self._metric_not_modified.inc()
            return (
                "304 Not Modified",
                [("ETag", entry.etag), ("X-Athena-Version", entry.etag)],
                b"",
            )
        headers = list(entry.headers) + [
            ("ETag", entry.etag),
            ("Cache-Control", "max-age=0, must-revalidate"),
        ]
        return entry.status, headers, entry.body

    def _match(self, path: str) -> Tuple[Optional[Route], Dict[str, str]]:
        route = self._static_routes.get(path)
        if route is not None:
            return route, {}
        for pattern, candidate in self._dynamic_routes:
            found = pattern.match(path)
            if found is not None:
                return candidate, found.groupdict()
        return None, {}

    def _render(
        self, route: Route, params: Dict[str, str], query: Dict[str, str]
    ) -> Tuple[str, List[Tuple[str, str]], bytes]:
        try:
            payload, content_type = route.handler(params, query)
        except ReproError as exc:
            return self._error_envelope(exc)
        except Exception as exc:  # noqa: BLE001 — a read must never kill a worker
            return self._error_response(
                500, "http.internal", f"{type(exc).__name__}: {exc}",
                error_class=type(exc).__name__,
            )
        if content_type != "application/json":
            body = payload if isinstance(payload, bytes) else str(payload).encode()
            return self._ok(body, content_type)
        return self._ok(_json_bytes(payload), content_type)

    @staticmethod
    def _ok(body: bytes, content_type: str):
        headers = [
            ("Content-Type", content_type + "; charset=utf-8"),
            ("Content-Length", str(len(body))),
        ]
        return "200 OK", headers, body

    # -- error envelopes -----------------------------------------------------

    def _error_envelope(self, exc: ReproError):
        status = http_status_for(exc)
        return self._error_response(
            status, exc.code, str(exc), error_class=type(exc).__name__
        )

    def _error_response(
        self, status: int, code: str, message: str, error_class: str = ""
    ):
        self._metric_errors.labels(code=code).inc()
        body = _json_bytes(
            {
                "error": {
                    "code": code,
                    "message": message,
                    "status": status,
                    "error_class": error_class or None,
                }
            }
        )
        headers = [
            ("Content-Type", "application/json; charset=utf-8"),
            ("Content-Length", str(len(body))),
        ]
        return f"{status} {_REASONS.get(status, 'Error')}", headers, body

    # -- envelopes -----------------------------------------------------------

    def _envelope(
        self,
        data: Any,
        pagination: Optional[Dict[str, int]] = None,
    ) -> Dict[str, Any]:
        sim = self.deployment.cluster.network.sim
        payload: Dict[str, Any] = {
            "data": data,
            "sim_time": sim.now,
        }
        if pagination is not None:
            payload["pagination"] = pagination
        return payload

    # -- handlers ------------------------------------------------------------

    def _h_index(self, params, query):
        data = [
            {
                "path": route.pattern,
                "name": route.name,
                "summary": route.summary,
                "params": list(route.params),
                "paginated": route.paginated,
                "cached": route.cached,
            }
            for route in self.routes
        ]
        return self._envelope(data), "application/json"

    def _h_status(self, params, query):
        d = self.deployment
        data = dict(d.summary())
        data["sim_events_processed"] = d.cluster.network.sim.processed
        data["sketch"] = {"enabled": d.config.sketch, **d.sketch_stats()}
        data["cache"] = {
            "entries": len(self.cache),
            "hits": self.cache.hits,
            "misses": self.cache.misses,
            "evictions": self.cache.evictions,
        }
        return self._envelope(data), "application/json"

    def _h_features(self, params, query):
        feature_query = Query(query.get("q") or None)
        scope = query.get("scope")
        if scope is not None:
            feature_query.where("feature_scope", "==", scope)
        switch = query.get("switch")
        if switch is not None:
            feature_query.where(
                "switch_id", "==", _int_param({"switch": switch}, "switch", 0)
            )
        sort = query.get("sort")
        if sort:
            feature_query.sort_by(sort.lstrip("-"), descending=sort.startswith("-"))
        documents = self.deployment.feature_manager.request_features(
            feature_query
        )
        window, pagination = paginate(documents, query)
        return self._envelope(window, pagination), "application/json"

    def _combined_alerts(self) -> List[Dict[str, Any]]:
        """Reaction history + streaming alerts, each tagged with its source.

        The combined *count* is what long-poll clients watch: it only ever
        grows, so ``since=<count already seen>`` is a stable baseline even
        though the two sub-streams are concatenated, not interleaved.
        """
        combined = [
            {"alert_type": "reaction", **entry}
            for entry in self.deployment.reaction_manager.history
        ]
        if self.deployment.streaming is not None:
            combined.extend(
                {"alert_type": "streaming", **alert}
                for alert in self.deployment.streaming.detectors.alerts
            )
        return combined

    def _h_alerts(self, params, query):
        wait = query.get("wait")
        if wait is not None:
            self._wait_for_alerts(wait, query.get("since"))
        indexed = [
            {"alert_id": i, **entry}
            for i, entry in enumerate(self._combined_alerts())
        ]
        window, pagination = paginate(indexed, query)
        return self._envelope(window, pagination), "application/json"

    def _wait_for_alerts(self, wait_raw: str, since_raw: Optional[str]) -> None:
        """Long-poll: drive the sim clock up to ``wait`` sim seconds,
        returning as soon as the combined alert count exceeds ``since``
        (default: the count at request time).  Never cached.

        When the simulator is already running (an in-process client called
        from inside a sim event), driving it again would be reentrant —
        the request degrades to an immediate snapshot instead of failing.
        """
        from repro.errors import SimulationError

        try:
            wait = float(wait_raw)
        except ValueError:
            raise ApiParamError(
                f"parameter 'wait' must be a number of sim seconds, "
                f"got {wait_raw!r}"
            )
        if not wait >= 0:  # also rejects nan
            raise ApiParamError(f"parameter 'wait' must be >= 0, got {wait}")
        wait = min(wait, MAX_ALERT_WAIT)
        baseline = (
            _int_param({"since": since_raw}, "since", 0)
            if since_raw is not None
            else len(self._combined_alerts())
        )
        sim = self.deployment.cluster.network.sim
        target = sim.now + wait
        while len(self._combined_alerts()) <= baseline and sim.now < target:
            try:
                fired = sim.run(until=target, max_events=64)
            except SimulationError:
                return  # reentrant call — serve the current view
            if fired == 0:
                # Event queue drained (or only events beyond the horizon,
                # in which case the clock has already advanced to target).
                return

    def _h_models(self, params, query):
        dm = self.deployment.detector_manager
        report = dm.last_job_report
        data = {
            "models_generated": dm.models_generated,
            "validations_run": dm.validations_run,
            "degraded_rounds": dm.degraded_rounds,
            "rounds_recovered": dm.rounds_recovered,
            "online_validators": dm.online_validator_summaries(),
            "last_job_report": None if report is None else {
                "backend": report.backend,
                "n_workers": report.n_workers,
                "wall_seconds": report.wall_seconds,
                "makespan_seconds": report.makespan_seconds,
            },
        }
        return self._envelope(data), "application/json"

    def _h_algorithms(self, params, query):
        from repro.ml.registry import category_of, list_algorithms

        data = [
            {"name": name, "category": category_of(name)}
            for name in list_algorithms()
        ]
        return self._envelope(data), "application/json"

    def _h_catalog(self, params, query):
        from repro.core.features.catalog import FEATURE_CATALOG

        category = query.get("category")
        scope = query.get("scope")
        rows = [
            {
                "name": name,
                "category": definition.category.value,
                "scope": definition.scope.value,
                "description": definition.description,
            }
            for name, definition in sorted(FEATURE_CATALOG.items())
            if (category is None or definition.category.value == category)
            and (scope is None or definition.scope.value == scope)
        ]
        window, pagination = paginate(rows, query)
        return self._envelope(window, pagination), "application/json"

    def _mastership_of(self, dpid: int) -> Optional[int]:
        from repro.errors import ControllerError

        try:
            return self.deployment.cluster.mastership.master_of(dpid)
        except ControllerError:
            return None

    def _h_switches(self, params, query):
        network = self.deployment.cluster.network
        rows = [
            {
                "dpid": dpid,
                "master_instance": self._mastership_of(dpid),
                "flows": switch.flow_count(),
                "ports": len(switch.ports),
            }
            for dpid, switch in sorted(network.switches.items())
        ]
        window, pagination = paginate(rows, query)
        return self._envelope(window, pagination), "application/json"

    def _h_switch_flows(self, params, query):
        try:
            dpid = int(params["dpid"])
        except ValueError:
            raise ApiParamError(f"switch id must be an integer, got "
                                f"{params['dpid']!r}")
        switch = self.deployment.cluster.network.switches.get(dpid)
        if switch is None:
            raise ApiParamError(f"no switch {dpid}")
        rows = [
            {
                "match": entry.match.to_dict(),
                "priority": entry.priority,
                "packet_count": entry.stats.packet_count,
                "byte_count": entry.stats.byte_count,
                "idle_timeout": entry.idle_timeout,
                "hard_timeout": entry.hard_timeout,
                "app_id": entry.app_id,
                "table_id": entry.table_id,
            }
            for entry in switch.table.entries
        ]
        window, pagination = paginate(rows, query)
        return self._envelope(window, pagination), "application/json"

    def _h_health(self, params, query):
        d = self.deployment
        shards = d.database.shard_status()
        degraded = (
            any(not shard["up"] for shard in shards)
            or d.feature_manager.pending_writes > 0
        )
        data = {
            "status": "degraded" if degraded else "ok",
            "shards": shards,
            "pending_feature_writes": d.feature_manager.pending_writes,
            "degraded_rounds": d.detector_manager.degraded_rounds,
            "rounds_recovered": d.detector_manager.rounds_recovered,
            "instances": [
                {"instance_id": inst.instance_id, "started": inst._started}
                for inst in d.instances
            ],
            "mastership": {
                str(dpid): self._mastership_of(dpid)
                for dpid in sorted(d.cluster.network.switches)
            },
            "monitoring": d.resource_manager.current_fidelity(),
        }
        return self._envelope(data), "application/json"

    def _h_streaming_status(self, params, query):
        runtime = self.deployment.streaming
        if runtime is None:
            data = {"enabled": False}
        else:
            data = {"enabled": True, **runtime.summary()}
        return self._envelope(data), "application/json"

    def _h_metrics(self, params, query):
        snapshot = get_telemetry().snapshot()
        text = to_prometheus_text(snapshot)
        return text.encode("utf-8"), "text/plain; version=0.0.4"
