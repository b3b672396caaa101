open Tgd_logic

type t =
  | Whole of Symbol.t
  | At of Symbol.t * int

let equal p1 p2 =
  match p1, p2 with
  | Whole r1, Whole r2 -> Symbol.equal r1 r2
  | At (r1, i1), At (r2, i2) -> Symbol.equal r1 r2 && Int.equal i1 i2
  | Whole _, At _ | At _, Whole _ -> false

let compare p1 p2 =
  match p1, p2 with
  | Whole r1, Whole r2 -> Symbol.compare r1 r2
  | At (r1, i1), At (r2, i2) ->
    let c = Symbol.compare r1 r2 in
    if c <> 0 then c else Int.compare i1 i2
  | Whole _, At _ -> -1
  | At _, Whole _ -> 1

let hash = function
  | Whole r -> 2 * Symbol.hash r
  | At (r, i) -> (2 * ((Symbol.hash r * 31) + i)) + 1

let pp ppf = function
  | Whole r -> Format.fprintf ppf "%a[ ]" Symbol.pp r
  | At (r, i) -> Format.fprintf ppf "%a[%d]" Symbol.pp r i

let to_string p = Format.asprintf "%a" pp p
