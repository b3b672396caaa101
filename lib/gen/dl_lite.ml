open Tgd_logic

type role =
  | Role of string
  | Inv of string

type concept =
  | Atomic of string
  | Exists of role

type axiom =
  | Concept_incl of concept * concept
  | Role_incl of role * role

type tbox = axiom list

let x = Term.var "X"
let y = Term.var "Y"
let z = Term.var "Z"

(* The atom r(subj, obj) of a (possibly inverse) role. *)
let role_atom r subj obj =
  match r with
  | Role name -> Atom.of_strings name [ subj; obj ]
  | Inv name -> Atom.of_strings name [ obj; subj ]

let counter = ref 0

let fresh_name () =
  incr counter;
  Printf.sprintf "ax%d" !counter

let axiom_to_tgd ax =
  let name = fresh_name () in
  match ax with
  | Concept_incl (lhs, rhs) ->
    let body =
      match lhs with
      | Atomic a -> [ Atom.of_strings a [ x ] ]
      | Exists r -> [ role_atom r x y ]
    in
    let head =
      match rhs with
      | Atomic a -> [ Atom.of_strings a [ x ] ]
      | Exists r -> [ role_atom r x z ]
    in
    Tgd.make ~name ~body ~head
  | Role_incl (r1, r2) -> Tgd.make ~name ~body:[ role_atom r1 x y ] ~head:[ role_atom r2 x y ]

let to_tgds tbox = List.map axiom_to_tgd tbox

let to_program ?(name = "dl_lite") tbox = Program.make_exn ~name (to_tgds tbox)

let random_tbox rng ~n_concepts ~n_roles ~n_axioms =
  let concept_names = List.init n_concepts (fun i -> Printf.sprintf "a%d" i) in
  let role_names = List.init n_roles (fun i -> Printf.sprintf "s%d" i) in
  let random_role () =
    let r = Rng.choose rng role_names in
    if Rng.bool rng 0.3 then Inv r else Role r
  in
  let random_concept () =
    if Rng.bool rng 0.4 && n_roles > 0 then Exists (random_role ())
    else Atomic (Rng.choose rng concept_names)
  in
  List.init n_axioms (fun _ ->
      if Rng.bool rng 0.25 && n_roles > 0 then Role_incl (random_role (), random_role ())
      else Concept_incl (random_concept (), random_concept ()))

(* The served cold-query benchmark's TBox: 24 concepts, 8 roles, 48 axioms. *)
let cold_tbox () = random_tbox (Rng.create 2) ~n_concepts:24 ~n_roles:8 ~n_axioms:48

let cold_queries n =
  let rng = Rng.create 3 in
  let concept x = Atom.of_strings (Printf.sprintf "a%d" (Rng.int rng 24)) [ x ] in
  let role x y =
    let r = Printf.sprintf "s%d" (Rng.int rng 8) in
    if Rng.bool rng 0.5 then Atom.of_strings r [ x; y ] else Atom.of_strings r [ y; x ]
  in
  let const () = Term.const (Printf.sprintf "d%d" (Rng.int rng 20)) in
  let q body = Cq.make ~name:"q" ~answer:[ x ] ~body in
  let generate () =
    match Rng.int rng 6 with
    | 0 -> q [ concept x ]
    | 1 -> q [ role x (const ()) ]
    | 2 -> q [ role x y; concept y ]
    | 3 -> q [ role x (const ()); concept x ]
    | 4 -> q [ role x y; role y z; concept z ]
    | _ -> q [ role x y; role y (const ()) ]
  in
  let seen = Hashtbl.create n in
  let rec fill acc k =
    if k = n then List.rev acc
    else
      let cq = generate () in
      let key = Cq.canonical cq in
      if Hashtbl.mem seen key then fill acc k
      else begin
        Hashtbl.add seen key ();
        fill (cq :: acc) (k + 1)
      end
  in
  fill [] 0

let functionality ?name role =
  match role with
  | Role r -> Tgd_chase.Egd.functional ?name r ~arity:2 ~key:[ 1 ] ~determined:2
  | Inv r -> Tgd_chase.Egd.functional ?name r ~arity:2 ~key:[ 2 ] ~determined:1

let pp_role ppf = function
  | Role r -> Format.pp_print_string ppf r
  | Inv r -> Format.fprintf ppf "%s-" r

let pp_concept ppf = function
  | Atomic a -> Format.pp_print_string ppf a
  | Exists r -> Format.fprintf ppf "exists %a" pp_role r

let pp_axiom ppf = function
  | Concept_incl (c1, c2) -> Format.fprintf ppf "%a [= %a" pp_concept c1 pp_concept c2
  | Role_incl (r1, r2) -> Format.fprintf ppf "%a [= %a" pp_role r1 pp_role r2
