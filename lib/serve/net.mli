(** The serving loop, for sockets and the stdin/stdout stream alike.

    A single event-loop thread owns any number of Unix-domain / TCP
    listeners, optionally one adopted descriptor pair (how [obda serve]
    speaks JSONL over stdin/stdout), and a connection table with
    per-connection read buffers and incremental JSONL framing. Ordering,
    mutation fencing and admission control live here and nowhere else.
    [prepare]/[execute] requests are admitted
    through {!Admission} (per-tenant token buckets + a server-wide
    in-flight limit, shedding with typed [overloaded] /
    [quota_exceeded] responses) and executed on a shared
    {!Tgd_exec.Pool} of worker domains, so requests from different
    connections interleave. Worker domains never touch a socket: a
    finished job pushes its pre-serialized response line onto a
    completion queue and pokes a self-pipe.

    {b Ordering.} Responses on one connection are written strictly in the
    order the requests arrived on that connection; across connections
    there is no ordering. Mutations ([register-ontology], [load-csv],
    [add-facts], [materialize], [snapshot]), [stats] and [shutdown] run
    inline on the loop thread behind a fence — every in-flight pool query
    is answered first — so an epoch bump never races requests admitted
    before it, and WAL'd mutations are fsynced before they are acked. While
    a fence waits, every later request is held and released in arrival
    order, so a query sent between two mutations sees exactly the first;
    queries arriving after [shutdown] are shed with [overloaded].

    {b Faults.} A malformed line gets a typed [bad_request] response and
    the connection lives on (framing is line-based); a line exceeding
    [max_line] gets one [bad_request] and a connection drop (framing is
    lost); a mid-request disconnect discards the connection's pending
    responses without disturbing other connections; a half-closed
    (shutdown-for-write) client still receives every response it is owed
    before the connection closes. The loop itself never raises on
    connection-level I/O errors. *)

type addr =
  | Unix_path of string  (** a Unix-domain socket path *)
  | Tcp of string * int  (** host (name or dotted quad) and port; port [0] picks one *)

val addr_to_string : addr -> string
(** ["unix:PATH"] or ["tcp:HOST:PORT"] — the same syntax [--listen] parses. *)

type listener

val listen : ?backlog:int -> addr -> listener
(** Bind and listen. A Unix path is unlinked first if it exists; a TCP
    port of [0] binds an ephemeral port (read it back with
    {!listener_addr}). Raises [Unix.Unix_error] on bind failure. *)

val listener_addr : listener -> addr
(** The bound address, with the real port filled in. *)

val serve :
  ?workers:int ->
  ?queue_bound:int ->
  ?max_clients:int ->
  ?max_line:int ->
  ?rate:float ->
  ?burst:float ->
  ?max_inflight:int ->
  ?now:(unit -> float) ->
  ?adopt:Unix.file_descr * Unix.file_descr ->
  Server.t ->
  listeners:listener list ->
  unit
(** Run the event loop until a [shutdown] request: accept clients on every
    listener, serve them concurrently, then flush and close everything
    (listeners included) and join the worker pool.

    [adopt = (input, output)] serves an already-open descriptor pair as one
    more connection from the start — requests are read from [input] and
    answered on [output] (e.g. [Unix.stdin, Unix.stdout]). The pair stays
    the caller's: it is never closed, and [output], which the loop puts in
    non-blocking mode, is switched back to blocking when the connection
    ends. With no listeners, the loop also ends once every connection is
    closed — for an adopted pair, at end of input after every response
    has been written.

    [workers] (default {!Tgd_exec.Pool.default_workers}) sizes the request
    pool; [queue_bound] (default 64) plus [workers] is the default
    server-wide [max_inflight] admission limit. [max_clients] (default
    1024) bounds concurrent connections — an accept beyond it is answered
    with one [overloaded] line and closed, and so is an accepted
    descriptor numbered 1024 or more, which [select] cannot watch. When
    the process is out of descriptors, accepting pauses for 50 ms and the
    client waits in the listen backlog. [max_line] (default 8 MiB)
    bounds a single request line. [rate]/[burst] enable per-tenant
    token-bucket quotas (default: no quota); a request's tenant is its
    ["tenant"] field, or ["default"]. [now] injects the quota clock for
    tests.

    Telemetry (on the server's sink): [serve.net.accepted] /
    [.rejected] / [.accept_errors] / [.closed] / [.lines] / [.oversized]
    counters,
    [serve.net.connections.peak], and from admission
    [serve.shed.overloaded] / [serve.shed.quota] /
    [serve.inflight.peak]. *)
