open Tgd_logic

type t = {
  name : string;
  body : Atom.t list;
  left : Symbol.t;
  right : Symbol.t;
}

let counter = ref 0

let make ?name ~body ~left ~right =
  let body_vars =
    List.fold_left (fun acc a -> Symbol.Set.union acc (Atom.vars a)) Symbol.Set.empty body
  in
  if not (Symbol.Set.mem left body_vars && Symbol.Set.mem right body_vars) then
    invalid_arg "Egd.make: equated variables must occur in the body";
  let name =
    match name with
    | Some n -> n
    | None ->
      incr counter;
      Printf.sprintf "e%d" !counter
  in
  { name; body; left; right }

let functional ?name pred ~arity ~key ~determined =
  if determined < 1 || determined > arity then invalid_arg "Egd.functional: bad determined position";
  List.iter (fun k -> if k < 1 || k > arity then invalid_arg "Egd.functional: bad key position") key;
  let var prefix i = Term.var (Printf.sprintf "%s%d" prefix i) in
  let args prefix =
    List.init arity (fun i ->
        let pos = i + 1 in
        if List.mem pos key then var "K" pos else var prefix pos)
  in
  let a1 = Atom.of_strings pred (args "L") in
  let a2 = Atom.of_strings pred (args "R") in
  let left = Symbol.intern (Printf.sprintf "L%d" determined) in
  let right = Symbol.intern (Printf.sprintf "R%d" determined) in
  make ?name ~body:[ a1; a2 ] ~left ~right
