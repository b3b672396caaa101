open Tgd_logic

type role =
  | Role of string
  | Inv of string

type concept =
  | Atomic of string
  | Exists of role
  | Exists_in of role * string

type axiom =
  | Incl of concept list * concept
  | Role_incl of role * role
  | Disjoint of concept * concept

type tbox = axiom list

let x = Term.var "X"
let y = Term.var "Y"
let z = Term.var "Z"

let role_atom r subj obj =
  match r with
  | Role name -> Atom.of_strings name [ subj; obj ]
  | Inv name -> Atom.of_strings name [ obj; subj ]

(* Atoms stating that [subject] belongs to the concept; [fresh] supplies the
   witness variable for existentials. *)
let concept_atoms concept ~subject ~fresh =
  match concept with
  | Atomic a -> [ Atom.of_strings a [ subject ] ]
  | Exists r -> [ role_atom r subject fresh ]
  | Exists_in (r, a) -> [ role_atom r subject fresh; Atom.of_strings a [ fresh ] ]

let counter = ref 0

let fresh_name () =
  incr counter;
  Printf.sprintf "ext%d" !counter

let axiom_to_item ax =
  match ax with
  | Incl (lhs, rhs) ->
    if lhs = [] then invalid_arg "Dl_ext: empty left-hand side";
    (* Left conjuncts share the subject X; each gets its own witness
       variable so that distinct existentials stay distinct. *)
    let body =
      List.concat
        (List.mapi
           (fun i c -> concept_atoms c ~subject:x ~fresh:(Term.var (Printf.sprintf "Y%d" i)))
           lhs)
    in
    let head = concept_atoms rhs ~subject:x ~fresh:z in
    `Tgd (Tgd.make ~name:(fresh_name ()) ~body ~head)
  | Role_incl (r1, r2) ->
    `Tgd (Tgd.make ~name:(fresh_name ()) ~body:[ role_atom r1 x y ] ~head:[ role_atom r2 x y ])
  | Disjoint (c1, c2) ->
    let body =
      concept_atoms c1 ~subject:x ~fresh:(Term.var "Y0")
      @ concept_atoms c2 ~subject:x ~fresh:(Term.var "Y1")
    in
    `Constraint body

let to_tgds tbox =
  List.fold_right
    (fun ax (tgds, ncs) ->
      match axiom_to_item ax with
      | `Tgd r -> (r :: tgds, ncs)
      | `Constraint body -> (tgds, body :: ncs))
    tbox ([], [])

let to_program ?(name = "dl_ext") tbox =
  let tgds, ncs = to_tgds tbox in
  (Program.make_exn ~name tgds, ncs)

(* A clinical-trials TBox:
   - trial participants are patients enrolled in some trial;
   - someone who conducts a trial and holds a licence is an investigator;
   - investigators are physicians; physicians and patients are persons;
   - every trial is overseen by some board-certified reviewer;
   - patients treated by an investigator get a case file;
   - physicians are never trial participants of their own study
     (simplified: physicians and participants are disjoint). *)
let clinic =
  [
    Incl ([ Atomic "participant" ], Atomic "patient");
    Incl ([ Atomic "participant" ], Exists (Role "enrolled_in"));
    Incl ([ Exists_in (Role "enrolled_in", "trial") ], Atomic "participant");
    Incl ([ Exists_in (Role "conducts", "trial"); Atomic "licensed" ], Atomic "investigator");
    Incl ([ Atomic "investigator" ], Atomic "physician");
    Incl ([ Atomic "physician" ], Atomic "person");
    Incl ([ Atomic "patient" ], Atomic "person");
    Incl ([ Atomic "trial" ], Exists_in (Role "overseen_by", "reviewer"));
    Incl ([ Exists_in (Inv "treats", "investigator") ], Exists (Role "has_case_file"));
    Disjoint (Atomic "physician", Atomic "participant");
  ]

let random_tbox rng ~n_concepts ~n_roles ~n_axioms ?(allow_recursion = false) () =
  let concepts = List.init n_concepts (fun i -> Printf.sprintf "c%d" i) in
  let roles = List.init n_roles (fun i -> Printf.sprintf "r%d" i) in
  let random_role () =
    let r = Rng.choose rng roles in
    if Rng.bool rng 0.3 then Inv r else Role r
  in
  (* Stratify concepts to avoid qualified-existential recursion: a qualified
     existential on the left may only produce a concept strictly higher in
     the order, unless recursion is allowed. *)
  let index c =
    match List.find_index (String.equal c) concepts with Some i -> i | None -> 0
  in
  let random_concept ?(max_index = n_concepts) () =
    let candidates = List.filter (fun c -> index c < max_index) concepts in
    let candidates = if candidates = [] then concepts else candidates in
    match Rng.int rng 4 with
    | 0 -> Exists (random_role ())
    | 1 -> Exists_in (random_role (), Rng.choose rng candidates)
    | _ -> Atomic (Rng.choose rng candidates)
  in
  List.init n_axioms (fun _ ->
      match Rng.int rng 10 with
      | 0 -> Role_incl (random_role (), random_role ())
      | 1 -> Disjoint (random_concept (), random_concept ())
      | _ ->
        let n_conjuncts = 1 + Rng.int rng 2 in
        let lhs = List.init n_conjuncts (fun _ -> random_concept ()) in
        (* The RHS must sit above every qualified concept of the LHS in the
           stratification (unless recursion is allowed). *)
        let floor_ =
          if allow_recursion then 0
          else
            List.fold_left
              (fun acc c ->
                match c with
                | Exists_in (_, a) -> max acc (index a + 1)
                | Atomic a -> max acc (index a + 1)
                | Exists _ -> acc)
              0 lhs
        in
        let rhs =
          if floor_ >= n_concepts then Exists (random_role ())
          else
            match Rng.int rng 3 with
            | 0 -> Exists (random_role ())
            | 1 -> Exists_in (random_role (), List.nth concepts (floor_ + Rng.int rng (n_concepts - floor_)))
            | _ -> Atomic (List.nth concepts (floor_ + Rng.int rng (n_concepts - floor_)))
        in
        Incl (lhs, rhs))
