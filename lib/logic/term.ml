type t =
  | Var of Symbol.t
  | Const of Symbol.t

let var s = Var (Symbol.intern s)
let const s = Const (Symbol.intern s)

let is_var = function Var _ -> true | Const _ -> false
let is_const = function Const _ -> true | Var _ -> false

let equal t1 t2 =
  match t1, t2 with
  | Var v1, Var v2 -> Symbol.equal v1 v2
  | Const c1, Const c2 -> Symbol.equal c1 c2
  | Var _, Const _ | Const _, Var _ -> false

let compare t1 t2 =
  match t1, t2 with
  | Var v1, Var v2 -> Symbol.compare v1 v2
  | Const c1, Const c2 -> Symbol.compare c1 c2
  | Var _, Const _ -> -1
  | Const _, Var _ -> 1

let hash = function
  | Var v -> 2 * Symbol.hash v
  | Const c -> (2 * Symbol.hash c) + 1

let pp ppf = function
  | Var v -> Symbol.pp ppf v
  | Const c -> Symbol.pp ppf c

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
