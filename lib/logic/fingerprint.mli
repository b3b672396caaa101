(** Sound O(1)/O(preds) pre-filters for CQ containment.

    A fingerprint summarizes a CQ body: a 63-bit Bloom word over its
    predicate symbols, one over its body constants, the body size, and the
    sorted array of distinct predicates with atom counts. If
    [may_map ~sub ~sup] is false there is provably no homomorphism from the
    atoms of [sub] into the atoms of [sup]; if it is true a full search is
    still required. *)

type t

val of_body : Atom.t list -> t

val may_map : sub:t -> sup:t -> bool
(** Necessary condition for a homomorphism from [sub]'s atoms into [sup]'s
    atoms: predicate and constant Bloom words are subsets, and every distinct
    predicate of [sub] occurs in [sup]. *)

val pred_bits : t -> int
(** The raw 63-bit predicate Bloom word — usable as a bucket key. *)

val subset_bits : int -> int -> bool
(** [subset_bits b1 b2]: every bit of [b1] is set in [b2]. *)
