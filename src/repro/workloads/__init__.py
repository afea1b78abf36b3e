"""Secondary workloads.

* :mod:`repro.workloads.kvstore` / :mod:`repro.workloads.sqlbench` — a
  client/server database workload standing in for the MySQL + ``sql-bench``
  setup of the spot-checking experiment (Section 6.12, Figure 9).
* :mod:`repro.workloads.echo` — a trivial echo responder used for the ping
  round-trip-time measurements (Figure 5).
* :mod:`repro.workloads.webservice` — the accountable HTTP-style API
  service (routed endpoints, TTL response cache, recorded upstream-call
  nondeterminism), driven open-loop by the benchmark of record's
  ``web_honest`` / ``web_cheat`` workloads (see
  ``docs/webservice-workload.md``).
"""

from repro.workloads.echo import EchoGuest, make_echo_image
from repro.workloads.kvstore import KvServerGuest, make_kvserver_image
from repro.workloads.sqlbench import SqlBenchClientGuest, SqlBenchSettings, make_sqlbench_image
from repro.workloads.webservice import (
    SimulatedUpstreamBackend,
    WebClientGuest,
    WebServiceGuest,
    WebServiceSettings,
    make_webclient_image,
    make_webservice_image,
)

__all__ = [
    "EchoGuest",
    "make_echo_image",
    "KvServerGuest",
    "make_kvserver_image",
    "SqlBenchClientGuest",
    "SqlBenchSettings",
    "make_sqlbench_image",
    "SimulatedUpstreamBackend",
    "WebClientGuest",
    "WebServiceGuest",
    "WebServiceSettings",
    "make_webclient_image",
    "make_webservice_image",
]
