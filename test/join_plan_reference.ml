(* The join planner as it was before it moved to lib/logic and split into
   [prepare]/[order], kept verbatim below this comment as the oracle of
   test_props' planner property. *)

open Tgd_logic

type arg =
  | Const of Symbol.t
  | Bind of Symbol.t
  | Check of Symbol.t

type step = {
  index : int;
  atom : Atom.t;
  probe : int option;
  args : arg array;
}

(* The planner runs once per evaluation and per compiled disjunct, so its
   helpers are top-level recursions over an explicit state: closures
   allocated per call would be its main cost. *)
type state = {
  atoms : Atom.t array;
  placed : bool array; (* atoms already given a step *)
  mutable bound : Symbol.t list; (* variables bound by placed atoms *)
  init : Symbol.t -> bool;
}

let rec mem v = function [] -> false | w :: rest -> Symbol.equal v w || mem v rest

let rec occurs v (args : Term.t array) k =
  k < Array.length args
  && ((match args.(k) with Term.Var w -> Symbol.equal v w | Term.Const _ -> false)
     || occurs v args (k + 1))

(* A position fixed before the step: a constant or a bound variable. *)
let fixed st = function Term.Const _ -> true | Term.Var v -> mem v st.bound || st.init v

let rec count st (args : Term.t array) k =
  if k >= Array.length args then 0 else (if fixed st args.(k) then 1 else 0) + count st args (k + 1)

(* Is [v] a variable of an unplaced atom other than [i]? *)
let rec shared st i v j =
  j < Array.length st.atoms
  && ((j <> i && (not st.placed.(j)) && occurs v st.atoms.(j).Atom.args 0) || shared st i v (j + 1))

(* Does atom [i] share a still-unbound variable with another unplaced
   atom? *)
let rec joins_ahead st i (args : Term.t array) k =
  k < Array.length args
  && ((match args.(k) with
      | Term.Var v as t -> (not (fixed st t)) && shared st i v 0
      | Term.Const _ -> false)
     || joins_ahead st i args (k + 1))

(* The preference before the size tie-break: bound positions, then
   joined-ahead. *)
let rank st ~forced i =
  if i = forced then max_int
  else
    let args = st.atoms.(i).Atom.args in
    (2 * count st args 0) + if joins_ahead st i args 0 then 1 else 0

let next_step st ~forced ~sizes =
  let best = ref (-1) and best_rank = ref 0 in
  for i = 0 to Array.length st.atoms - 1 do
    if not st.placed.(i) then begin
      let r = rank st ~forced i in
      if !best < 0 || r > !best_rank || (r = !best_rank && sizes.(i) < sizes.(!best)) then begin
        best := i;
        best_rank := r
      end
    end
  done;
  let index = !best in
  let atom = st.atoms.(index) in
  st.placed.(index) <- true;
  let probe = Array.find_index (fixed st) atom.Atom.args in
  let args =
    Array.map
      (function
        | Term.Const c -> Const c
        | Term.Var v as t ->
          if fixed st t then Check v
          else begin
            st.bound <- v :: st.bound;
            Bind v
          end)
      atom.Atom.args
  in
  { index; atom; probe; args }

let make ?(init = fun _ -> false) ?(forced = -1) ~sizes body =
  let atoms = Array.of_list body in
  let n = Array.length atoms in
  let st = { atoms; placed = Array.make n false; bound = []; init } in
  Array.init n (fun _ -> next_step st ~forced ~sizes)
