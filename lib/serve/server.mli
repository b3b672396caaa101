(** The long-running query server's state: registry + canonical
    prepared-query cache + durable store behind the JSONL protocol.

    {!handle} is the synchronous request brain — it is what both the test
    suite and the worker domains of the serving loop ({!Net.serve}) call,
    so every behavior (cache hits, epoch invalidation, budget truncation)
    is testable in-process without spawning a server. Ordering, mutation
    fencing and admission control live in {!Net.serve}, which drives
    sockets and the stdin/stdout stream alike.

    Per-request execution is governed: each request gets a fresh
    {!Tgd_exec.Governor} over the server's base budget (overridable per
    request), and its telemetry is merged into the server-wide sink after
    the run — so [stats] exposes exact aggregate counters
    ([serve.requests], [serve.cache.hits/misses/evictions],
    [rewrite.cqs], [eval.steps], ...) even under concurrency. *)

type t

val create :
  ?cache_capacity:int ->
  ?base_budget:Tgd_exec.Budget.t ->
  ?config:Tgd_rewrite.Rewrite.config ->
  ?target:Tgd_obda.Target.t ->
  ?eval_workers:int ->
  ?store:Tgd_store.Store.t ->
  ?checkpoint_every:int ->
  unit ->
  t
(** A fresh server state. [base_budget] (default: 8s deadline, 200k
    rewrite.cqs) bounds every request unless the request supplies its own
    [budget] spec, which is parsed on top of the base. [config] is the
    rewriting configuration; its [domains] field is forced to 1 — worker
    domains must not spawn nested pools.

    [target] (default {!Tgd_obda.Target.Ucq}) is the rewriting backend
    used when a [prepare]/[execute] request carries no ["target"] field of
    its own. The prepared cache stores whichever artifact kind a request
    produced under the same canonical key; a later request whose resolved
    target does not accept the stored kind re-prepares and replaces it
    (counted under [serve.cache.kind_misses]).

    With [store], the server is durable: creation first {e recovers} the
    registry from the store — per entry, the latest valid snapshot is
    restored at its exact epochs and the WAL tail is replayed through the
    ordinary mutation paths (incrementally, via the delta chase, when a
    materialization was snapshotted). Each run of consecutive
    load-csv/add-facts records is one {!Registry.add_batches} call: one
    batch, one governor (made when its batch starts, so a deadline runs
    from there), one delta-epoch bump and one batch chase per record, but one
    copy and one seal for the whole run, which nobody could observe in
    between since recovery ends before serving starts. Afterwards every
    acknowledged
    register/load-csv/add-facts/materialize is appended to that entry's
    WAL {e before} its response is produced. [checkpoint_every] > 0
    additionally writes a fresh snapshot generation (and trims the log)
    whenever an entry's WAL reaches that many records; the default [0]
    checkpoints only on explicit [snapshot] requests. Recovery statistics
    land in telemetry under [serve.store.*]. {!shutdown} closes the
    store. Recovery is timed in the [serve.store.restore] and
    [serve.store.replay] phases. Raises [Invalid_argument] when
    [checkpoint_every < 0].

    Per-request UCQ evaluation always runs on {!Tgd_db.Par_eval}'s
    compiled columnar engine (registry instances are sealed on install,
    so concurrent queries only read them). [eval_workers] (default 1) > 1
    additionally splits each query's leading scans into morsels over a
    dedicated {!Tgd_exec.Pool} of that many domains. This parallelizes
    {e one heavy query}; the request-level [workers] of {!Net.serve}
    parallelize {e many light queries} — the two pools are distinct, so a
    request worker blocking on an eval batch can never deadlock the
    admission queue. Call {!shutdown} when done to join the
    eval pool. Raises [Invalid_argument] when [eval_workers <= 0]. *)

val shutdown : t -> unit
(** Join the parallel-evaluation pool and close the durable store, if
    any. A sequential in-memory server has nothing to shut down. *)

val telemetry : t -> Tgd_exec.Telemetry.t
(** The server-wide aggregate sink. *)

val registry : t -> Registry.t
val cache : t -> Prepared.t

val handle : t -> Protocol.request -> ((string * Json.t) list, string * string) result
(** Process one request synchronously; [Ok fields] become the success
    response, [Error (kind, msg)] the typed error. Safe to call from any
    domain. [Shutdown] returns [Ok []] — loop termination is the caller's
    business. *)
