(** Named (ontology, instance) pairs with monotone epochs — the server's
    mutable root state.

    Every mutation produces a {e new} immutable entry and swaps it in under
    the registry lock; the instance inside an entry is sealed
    ({!Tgd_db.Instance.seal}) and never mutated afterwards, so any number
    of worker domains can evaluate against a snapshotted entry while the
    control loop installs a successor. A successor is a copy-on-write
    {!Tgd_db.Instance.copy}: it shares every relation a mutation did not
    touch with its predecessor, so a write costs in proportion to the
    relations it touches, not to the whole instance.

    Epochs come in two grades. The {b full epoch} bumps only on ontology
    edits ({!register}): it is the prepared-cache key component, because a
    UCQ rewriting depends on the TGDs alone. Data-only mutations
    ({!add_batches}, {!load_csv_string}) bump the cheap {b delta epoch}
    instead — prepared rewritings stay warm across them, the copy-on-write
    instance shares its frozen columnar blocks with the predecessor
    (re-sealing extends them, {!Tgd_db.Columnar.extend}), and a live chase
    {b materialization} is maintained incrementally by a batch run of
    {!Tgd_chase.Chase.run} instead of cold-starting.

    Both epochs are monotone per name for the lifetime of the registry —
    re-registering a name continues its sequences rather than restarting
    them, so a cache entry can never be resurrected by a drop/re-add
    cycle. *)

open Tgd_logic

(** The snapshot's record, so checkpoints and recovery pass it through
    unchanged. *)
type materialization = Tgd_store.Snapshot.materialization = {
  model : Tgd_db.Instance.t;
      (** universal model of the entry: the chase's working set. It is
          sealed by {!materialize} and {!restore}; a write leaves its
          touched relations with a pending tail, which the next chase reads
          after the block and the snapshot codec writes after the block's
          columns. Never mutated once installed. *)
  floor : int;  (** null floor for the next delta application *)
  complete : bool;  (** chase reached its fixpoint within budget *)
}

type entry = {
  name : string;
  epoch : int;  (** monotone per name; bumped by ontology edits only *)
  delta_epoch : int;  (** monotone per name; bumped by every data mutation *)
  program : Program.t;
  instance : Tgd_db.Instance.t;  (** sealed: safe for concurrent readers *)
  materialization : materialization option;
      (** chase materialization kept alive across {!add_batches} *)
}

type mutation = {
  entry : entry;
  added : int;  (** batch facts that were new to the instance *)
  delta : Tgd_chase.Chase.stats option;
      (** batch-run statistics when a materialization was maintained *)
}

type t

val create : unit -> t
(** An empty registry. Every installed instance is sealed
    ({!Tgd_db.Instance.seal}) before it becomes visible, so every relation
    has a current columnar block and concurrent readers never write it. A
    materialized model is sealed when {!materialize} or {!restore}
    installs it, not after each write ({!add_batches}). *)

val register : t -> name:string -> ?facts:Tgd_db.Instance.t -> Program.t -> entry
(** Install (or replace) an ontology under [name]: a full-epoch bump. The
    optional initial facts are copied, sealed and owned by the entry; any
    previous materialization is dropped (it belonged to the old program). *)

val restore :
  t ->
  name:string ->
  epoch:int ->
  delta_epoch:int ->
  ?materialization:materialization ->
  Program.t ->
  Tgd_db.Instance.t ->
  entry
(** Durable-store recovery: install an entry {e at} the given epochs
    (snapshot values) instead of bumping, adopting the instance (it is
    sealed here, not copied). The per-name epoch counters catch up to at
    least these values, so later mutations continue the pre-crash
    sequences monotonically. *)

val add_batches :
  t ->
  name:string ->
  ((unit -> Tgd_exec.Governor.t option) * Tgd_db.Instance.fact list) list ->
  (mutation, string) result list
(** Append batches of facts to [name]'s instance, in order, and install
    the result once; one result per batch. Each batch is checked first: a
    fact whose predicate already has another arity (in the instance, the
    model or the rules, or earlier in the batch) fails the whole batch,
    which then changes nothing and bumps nothing. Every applied batch bumps
    the delta epoch once and, when a materialization is alive, extends it
    with its own {!Tgd_chase.Chase.run} [~batch] at the running null floor,
    under the governor its thunk makes when the batch starts (so a
    deadline runs from the batch's own start) — the model, its floor and
    its completeness come out exactly as from one call per batch. The batches run on one
    private copy-on-write successor, copied once for the whole call, whose
    instance is sealed once at install (the model is not sealed), which is
    what makes a long run cheap. Every [Ok] carries the
    entry installed by the call; an unknown [name] fails every batch. *)

val materialize :
  ?gov:Tgd_exec.Governor.t -> t -> name:string -> (entry * Tgd_chase.Chase.stats, string) result
(** Build (or rebuild) the chase materialization for [name]'s current
    entry. A cache fill, not a mutation: neither epoch bumps, and a racing
    data mutation wins over the model computed here. *)

val load_csv_string :
  ?gov:Tgd_exec.Governor.t -> t -> name:string -> string -> (mutation, string) result
(** Merge CSV facts into [name]'s instance: the one-batch case of
    {!add_batches}. *)

val find : t -> string -> entry option
(** Snapshot of the current entry; stable even while mutations proceed. *)

val list : t -> (string * int * int * int * int) list
(** [(name, epoch, delta_epoch, rules, facts)] per registered ontology,
    sorted. *)
