type t = {
  pred : Symbol.t;
  args : Term.t array;
}

let make pred args = { pred; args = Array.of_list args }
let of_strings pred args = make (Symbol.intern pred) args

let arity a = Array.length a.args
let args a = Array.to_list a.args

let vars a =
  Array.fold_left
    (fun acc t -> match t with Term.Var v -> Symbol.Set.add v acc | Term.Const _ -> acc)
    Symbol.Set.empty a.args

let var_list a =
  Array.fold_right
    (fun t acc -> match t with Term.Var v -> v :: acc | Term.Const _ -> acc)
    a.args []

let constants a =
  Array.fold_left
    (fun acc t -> match t with Term.Const c -> Symbol.Set.add c acc | Term.Var _ -> acc)
    Symbol.Set.empty a.args

let has_repeated_var a =
  let seen = Hashtbl.create 8 in
  let rec loop i =
    if i >= Array.length a.args then false
    else
      match a.args.(i) with
      | Term.Const _ -> loop (i + 1)
      | Term.Var v -> if Hashtbl.mem seen v then true else (Hashtbl.add seen v (); loop (i + 1))
  in
  loop 0

let positions_of_var v a =
  let acc = ref [] in
  for i = Array.length a.args - 1 downto 0 do
    match a.args.(i) with
    | Term.Var v' when Symbol.equal v v' -> acc := (i + 1) :: !acc
    | Term.Var _ | Term.Const _ -> ()
  done;
  !acc

let apply f a = { a with args = Array.map f a.args }

let equal a1 a2 =
  Symbol.equal a1.pred a2.pred
  && Array.length a1.args = Array.length a2.args
  && Array.for_all2 Term.equal a1.args a2.args

let compare a1 a2 =
  let c = Symbol.compare a1.pred a2.pred in
  if c <> 0 then c
  else
    let c = Int.compare (Array.length a1.args) (Array.length a2.args) in
    if c <> 0 then c
    else
      let rec loop i =
        if i >= Array.length a1.args then 0
        else
          let c = Term.compare a1.args.(i) a2.args.(i) in
          if c <> 0 then c else loop (i + 1)
      in
      loop 0

let pp ppf a =
  if Array.length a.args = 0 then Symbol.pp ppf a.pred
  else
    Format.fprintf ppf "%a(%a)" Symbol.pp a.pred
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",") Term.pp)
      (args a)

let to_string a = Format.asprintf "%a" pp a

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)
