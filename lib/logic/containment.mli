(** Conjunctive-query containment via the homomorphism theorem.

    Every check runs through sound pre-filters first (arity, then the
    predicate/constant {!Fingerprint} of the would-be homomorphism source
    must map into the target's): a filtered-out pair is decided in O(1)
    without building a target index or searching. Hot paths precompute a
    {!pre} per CQ so the frozen target and fingerprint are built once. *)

val contained : Cq.t -> Cq.t -> bool
(** [contained q1 q2] holds iff [q1 <= q2], i.e. on every database the
    answers of [q1] are a subset of the answers of [q2]. Decided by searching
    for a homomorphism from [q2] into the frozen body of [q1] that maps the
    answer tuple of [q2] onto the answer tuple of [q1]. Queries of different
    arities are never contained. *)

val contained_reference : Cq.t -> Cq.t -> bool
(** The unfiltered, uncached implementation (the original seed
    code path), kept as the semantic reference for property tests and
    ablation benchmarks. Agrees with {!contained} on every input. *)

val equivalent : Cq.t -> Cq.t -> bool

val ucq_contained : Cq.ucq -> Cq.ucq -> bool
(** [ucq_contained u1 u2]: every disjunct of [u1] is contained in some
    disjunct of [u2]. (Sound and complete for UCQ containment.) *)

(** {1 Per-run counts} *)

type meters
(** One run's containment counters on its {!Tgd_exec.Governor}: checks
    (under the budget key [containment.checks], so a limit on it stops the
    run at the exact check), pre-filtered checks and homomorphism
    searches. Counting through them keeps each run's figures its own
    while other runs check concurrently on other domains. *)

val meters : Tgd_exec.Governor.t -> meters

val key_pruned : string
(** ["containment.pruned"]: the governor counter of pre-filtered checks. *)

val key_hom_searches : string
(** ["containment.hom_searches"]: the governor counter of full searches. *)

(** {1 Precomputed containment state} *)

type pre
(** A CQ together with its fingerprint and frozen homomorphism target, built
    once and reused across many checks. *)

val precompute : Cq.t -> pre
val fingerprint : pre -> Fingerprint.t

val contained_pre : ?meters:meters -> pre -> pre -> bool
(** [contained_pre p1 p2] decides [contained] on the two CQs the states
    were built from, without rebuilding fingerprints or the target index.
    With [meters], the check is also counted on that run's governor. Safe
    to call concurrently from multiple domains. *)

(** {1 Minimization} *)

val minimize_ucq : ?pool:Tgd_exec.Pool.t -> ?meters:meters -> Cq.ucq -> Cq.ucq
(** Remove every disjunct that is contained in another disjunct; of two
    equivalent disjuncts the one with the smaller body survives. The result
    is equivalent to the input and identical to
    {!minimize_ucq_reference}. With [pool], a union of at least
    {!parallel_threshold} disjuncts is minimized in two
    {!Tgd_exec.Pool.run_morsels} batches (the caller participates);
    otherwise the passes run on the calling domain. The result does not
    depend on the pool or its size. *)

val parallel_threshold : int
(** Minimum disjunct count (64) at which {!minimize_ucq} uses its pool;
    below it the sequential passes win on dispatch overhead alone. *)

val minimize_ucq_reference : Cq.ucq -> Cq.ucq
(** The original sequential sweep over {!contained_reference}; the semantic
    reference for tests. *)
