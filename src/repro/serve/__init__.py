"""Network serving layer: stream event batches to a detector over TCP.

The subsystem has five parts -- see ``docs/SERVING.md`` for the
protocol walk-through and deployment guidance:

* :mod:`repro.serve.protocol` -- the sans-IO RPRSERVE wire format
  (length-prefixed CRC-checked frames of ``tracefile``-layout column
  batches);
* :mod:`repro.serve.session` -- the RPRSERVE session core both front
  ends share: handshake, credit-based backpressure, sequencing,
  validation, graceful drain, and the loop-in-a-thread harness;
* :mod:`repro.serve.server` -- the asyncio multi-session server
  (:class:`RaceServer`, plus :class:`ServerThread` for loopback
  serving from synchronous code): a local engine behind the core;
* :mod:`repro.serve.client` -- the blocking client
  (:class:`RaceClient`), trace/program replay helpers, and the
  multi-connection load generator (:func:`run_load`);
* :mod:`repro.serve.cluster` -- the multi-node tier: a
  location-sharded gateway (:class:`RaceCluster`) routing column
  slices across N engine worker processes, with migration under
  worker kill (see ``docs/SCALE_OUT.md``).

The ``repro-race serve`` / ``submit`` CLI subcommands front these; the
distinct exit codes they use live here so tests and scripts can name
them.
"""

from repro.serve.cluster import (
    ClusterConfig,
    ClusterThread,
    RaceCluster,
)
from repro.serve.client import (
    ClientSummary,
    ConnectError,
    LoadResult,
    RaceClient,
    RemoteError,
    TransportError,
    run_load,
    submit_batch,
    submit_program,
    submit_trace,
)
from repro.serve.protocol import (
    DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
)
from repro.serve.server import (
    RaceServer,
    ServeConfig,
    ServerThread,
    start_metrics_http,
)

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_FRAME",
    "ServeConfig",
    "RaceServer",
    "ServerThread",
    "start_metrics_http",
    "ClusterConfig",
    "RaceCluster",
    "ClusterThread",
    "RaceClient",
    "ConnectError",
    "TransportError",
    "RemoteError",
    "ClientSummary",
    "submit_batch",
    "submit_trace",
    "submit_program",
    "LoadResult",
    "run_load",
    "EXIT_BIND_FAILURE",
    "EXIT_CONNECT_FAILURE",
    "EXIT_PROTOCOL_FAILURE",
]

#: ``repro-race serve`` could not bind its listen address.
EXIT_BIND_FAILURE = 3
#: ``repro-race submit`` could not reach the server.
EXIT_CONNECT_FAILURE = 4
#: the session died on a wire-protocol violation or server ERROR.
EXIT_PROTOCOL_FAILURE = 5
