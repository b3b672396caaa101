module Symbol = Tgd_logic.Symbol
module Term = Tgd_logic.Term

type t =
  | Const of Symbol.t
  | Null of int

let const s = Const (Symbol.intern s)
let is_null = function Null _ -> true | Const _ -> false

let equal v1 v2 =
  match v1, v2 with
  | Const c1, Const c2 -> Symbol.equal c1 c2
  | Null n1, Null n2 -> Int.equal n1 n2
  | Const _, Null _ | Null _, Const _ -> false

let compare v1 v2 =
  match v1, v2 with
  | Const c1, Const c2 -> Symbol.compare c1 c2
  | Null n1, Null n2 -> Int.compare n1 n2
  | Const _, Null _ -> -1
  | Null _, Const _ -> 1

let pp ppf = function
  | Const c -> Symbol.pp ppf c
  | Null n -> Format.fprintf ppf "_n%d" n

let to_string = function
  | Const c -> Symbol.name c
  | Null n -> "_n" ^ string_of_int n

(* ------------------------------------------------------------------ *)
(* Order-preserving integer code (columnar storage)                    *)

(* Constants code to their symbol id, nulls to [null_base + label]: the
   integer order of codes coincides with [compare] (all constants before
   all nulls, then by id), so coded answer tuples can be deduplicated,
   partitioned and sorted without decoding. Symbol ids are dense intern
   indices and [Null_gen] hands out no label at or above
   [null_base], so every value has a code; [code] still refuses (raises)
   rather than silently alias one it is handed out of range. *)
let null_base = 1 lsl 44

let code = function
  | Const c ->
    let i = (c : Symbol.t :> int) in
    if i >= 0 && i < null_base then i
    else invalid_arg (Printf.sprintf "Value.code: symbol id %d out of range" i)
  | Null n ->
    if n >= 0 && n < null_base then null_base + n
    else invalid_arg (Printf.sprintf "Value.code: null label %d out of range" n)

let decode i =
  if i < null_base then Const (Symbol.of_int i) else Null (i - null_base)

let of_term = function
  | Term.Const c -> Const c
  | Term.Var _ -> invalid_arg "Value.of_term: variable"

let to_term = function
  | Const c -> Term.Const c
  | Null n -> Term.Var (Symbol.intern (Printf.sprintf "_n%d" n))
