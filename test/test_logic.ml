(* Unit tests for the logic substrate: symbols, terms, atoms, substitutions,
   unification, TGDs, CQs, homomorphisms, containment, programs. *)

open Tgd_logic

let v = Term.var
let c = Term.const
let atom p args = Atom.of_strings p args

(* ------------------------------------------------------------------ *)
(* Symbol *)

let test_symbol_interning () =
  let a1 = Symbol.intern "hello" in
  let a2 = Symbol.intern "hello" in
  let b = Symbol.intern "world" in
  Alcotest.(check bool) "same string, same symbol" true (Symbol.equal a1 a2);
  Alcotest.(check bool) "different strings differ" false (Symbol.equal a1 b);
  Alcotest.(check string) "name round-trips" "hello" (Symbol.name a1)

let test_symbol_fresh () =
  let base = Symbol.intern "f" in
  let f1 = Symbol.fresh "f" in
  let f2 = Symbol.fresh "f" in
  Alcotest.(check bool) "fresh differs from base" false (Symbol.equal base f1);
  Alcotest.(check bool) "fresh symbols differ" false (Symbol.equal f1 f2)

let test_symbol_fresh_avoids_collision () =
  (* Pre-intern the spelling the next fresh would use; fresh must skip it. *)
  let f = Symbol.fresh "collide" in
  let name = Symbol.name f in
  let _ = Symbol.intern name in
  let f2 = Symbol.fresh "collide" in
  Alcotest.(check bool) "skips interned spelling" false (String.equal name (Symbol.name f2))

let test_symbol_numbered () =
  let family = Symbol.numbered "nfam" in
  let s3 = family 3 in
  Alcotest.(check string) "spelled prefix and index" "nfam3" (Symbol.name s3);
  let before = Symbol.count () in
  let again = List.init 64 family in
  Alcotest.(check bool) "same symbol again" true (Symbol.equal s3 (List.nth again 3));
  Alcotest.(check int) "a repeated lookup interns nothing" before (Symbol.count ());
  Alcotest.(check bool) "one family, one spelling space" true
    (Symbol.equal (family 70) (Symbol.intern "nfam70"))

(* ------------------------------------------------------------------ *)
(* Term *)

let test_term_kinds () =
  Alcotest.(check bool) "var is var" true (Term.is_var (v "X"));
  Alcotest.(check bool) "const is const" true (Term.is_const (c "a"));
  Alcotest.(check bool) "var and const differ" false (Term.equal (v "x") (c "x"))

let test_term_ordering () =
  Alcotest.(check bool) "vars before consts" true (Term.compare (v "A") (c "a") < 0);
  Alcotest.(check int) "equal terms compare 0" 0 (Term.compare (c "a") (c "a"))

(* ------------------------------------------------------------------ *)
(* Atom *)

let test_atom_vars () =
  let a = atom "p" [ v "X"; c "k"; v "Y"; v "X" ] in
  Alcotest.(check int) "arity" 4 (Atom.arity a);
  Alcotest.(check int) "distinct vars" 2 (Symbol.Set.cardinal (Atom.vars a));
  Alcotest.(check int) "constants" 1 (Symbol.Set.cardinal (Atom.constants a));
  Alcotest.(check (list string)) "var list keeps duplicates" [ "X"; "Y"; "X" ]
    (List.map Symbol.name (Atom.var_list a))

let test_atom_repeated () =
  Alcotest.(check bool) "repeated detected" true
    (Atom.has_repeated_var (atom "p" [ v "X"; v "X" ]));
  Alcotest.(check bool) "distinct ok" false (Atom.has_repeated_var (atom "p" [ v "X"; v "Y" ]));
  Alcotest.(check bool) "constants don't count" false
    (Atom.has_repeated_var (atom "p" [ c "a"; c "a" ]))

let test_atom_positions () =
  let a = atom "p" [ v "X"; v "Y"; v "X" ] in
  Alcotest.(check (list int)) "positions of X" [ 1; 3 ]
    (Atom.positions_of_var (Symbol.intern "X") a);
  Alcotest.(check (list int)) "positions of absent var" []
    (Atom.positions_of_var (Symbol.intern "Z") a)

let test_atom_zero_arity () =
  let a = atom "flag" [] in
  Alcotest.(check int) "arity 0" 0 (Atom.arity a);
  Alcotest.(check string) "prints bare" "flag" (Atom.to_string a)

(* ------------------------------------------------------------------ *)
(* Subst / Unify *)

let test_subst_walk_chains () =
  let s =
    Subst.empty
    |> Subst.bind (Symbol.intern "X") (v "Y")
    |> Subst.bind (Symbol.intern "Y") (c "a")
  in
  Alcotest.(check bool) "walk resolves chain" true (Term.equal (Subst.walk s (v "X")) (c "a"))

let test_subst_double_bind_rejected () =
  let s = Subst.bind (Symbol.intern "X") (c "a") Subst.empty in
  Alcotest.check_raises "rebinding raises" (Invalid_argument "Subst.bind: variable already bound")
    (fun () -> ignore (Subst.bind (Symbol.intern "X") (c "b") s))

let test_mgu_basic () =
  let a1 = atom "p" [ v "X"; c "a" ] in
  let a2 = atom "p" [ c "b"; v "Y" ] in
  match Unify.mgu a1 a2 with
  | None -> Alcotest.fail "expected unifier"
  | Some s ->
    Alcotest.(check bool) "X -> b" true (Term.equal (Subst.walk s (v "X")) (c "b"));
    Alcotest.(check bool) "Y -> a" true (Term.equal (Subst.walk s (v "Y")) (c "a"))

let test_mgu_clash () =
  Alcotest.(check bool) "constant clash" false
    (Unify.unifiable (atom "p" [ c "a" ]) (atom "p" [ c "b" ]));
  Alcotest.(check bool) "predicate mismatch" false
    (Unify.unifiable (atom "p" [ v "X" ]) (atom "q" [ v "X" ]));
  Alcotest.(check bool) "arity mismatch" false
    (Unify.unifiable (atom "p" [ v "X" ]) (atom "p" [ v "X"; v "Y" ]))

let test_mgu_repeated_var () =
  (* p(X,X) with p(a,Y): X~a, X~Y => Y~a. *)
  let a1 = atom "p" [ v "X"; v "X" ] in
  let a2 = atom "p" [ c "a"; v "Y" ] in
  match Unify.mgu a1 a2 with
  | None -> Alcotest.fail "expected unifier"
  | Some s -> Alcotest.(check bool) "Y -> a" true (Term.equal (Subst.walk s (v "Y")) (c "a"))

let test_mgu_repeated_clash () =
  (* p(X,X) with p(a,b) cannot unify. *)
  Alcotest.(check bool) "transitive clash" false
    (Unify.unifiable (atom "p" [ v "X"; v "X" ]) (atom "p" [ c "a"; c "b" ]))

let test_mgu_application_makes_equal () =
  let a1 = atom "p" [ v "X"; v "Y"; v "X" ] in
  let a2 = atom "p" [ v "U"; c "k"; v "V" ] in
  match Unify.mgu a1 a2 with
  | None -> Alcotest.fail "expected unifier"
  | Some s ->
    Alcotest.(check bool) "images equal" true
      (Atom.equal (Subst.apply_atom s a1) (Subst.apply_atom s a2))

(* ------------------------------------------------------------------ *)
(* Tgd *)

let mk_tgd name body head = Tgd.make ~name ~body ~head

let test_tgd_variable_classes () =
  (* body: p(X,Y), head: q(X,Z) — frontier {X}, ex body {Y}, ex head {Z}. *)
  let r = mk_tgd "r" [ atom "p" [ v "X"; v "Y" ] ] [ atom "q" [ v "X"; v "Z" ] ] in
  let names set = List.map Symbol.name (Symbol.Set.elements set) in
  Alcotest.(check (list string)) "frontier" [ "X" ] (names (Tgd.frontier r));
  Alcotest.(check (list string)) "existential body" [ "Y" ] (names (Tgd.existential_body_vars r));
  Alcotest.(check (list string)) "existential head" [ "Z" ] (names (Tgd.existential_head_vars r))

let test_tgd_simple () =
  let ok = mk_tgd "ok" [ atom "p" [ v "X"; v "Y" ] ] [ atom "q" [ v "X"; v "Z" ] ] in
  Alcotest.(check bool) "simple" true (Tgd.is_simple ok);
  let rep = mk_tgd "rep" [ atom "p" [ v "X"; v "X" ] ] [ atom "q" [ v "X" ] ] in
  Alcotest.(check bool) "repeated var not simple" false (Tgd.is_simple rep);
  let con = mk_tgd "con" [ atom "p" [ c "a" ] ] [ atom "q" [ v "Z" ] ] in
  Alcotest.(check bool) "constant not simple" false (Tgd.is_simple con);
  let multi = mk_tgd "multi" [ atom "p" [ v "X" ] ] [ atom "q" [ v "X" ]; atom "s" [ v "X" ] ] in
  Alcotest.(check bool) "multi-head not simple" false (Tgd.is_simple multi)

let test_tgd_empty_rejected () =
  Alcotest.check_raises "empty body" (Invalid_argument "Tgd.make: empty body") (fun () ->
      ignore (Tgd.make ~name:"x" ~body:[] ~head:[ atom "p" [ c "a" ] ]));
  Alcotest.check_raises "empty head" (Invalid_argument "Tgd.make: empty head") (fun () ->
      ignore (Tgd.make ~name:"x" ~body:[ atom "p" [ c "a" ] ] ~head:[]))

let test_tgd_rename_apart () =
  let r = mk_tgd "r" [ atom "p" [ v "X"; v "Y" ] ] [ atom "q" [ v "X"; v "Z" ] ] in
  let r' = Tgd.rename_apart r in
  let all_vars t = Symbol.Set.union (Tgd.body_vars t) (Tgd.head_vars t) in
  Alcotest.(check bool) "disjoint variables" true
    (Symbol.Set.is_empty (Symbol.Set.inter (all_vars r) (all_vars r')));
  (* Structure preserved: frontier sizes match. *)
  Alcotest.(check int) "frontier size preserved" 1 (Symbol.Set.cardinal (Tgd.frontier r'))

let test_tgd_rename_to_pool () =
  let r = mk_tgd "r" [ atom "p" [ v "X"; v "Y" ] ] [ atom "q" [ v "X"; v "Z" ] ] in
  let pooled = Tgd.rename_to_pool r in
  Alcotest.(check string) "first occurrence order, body first"
    "[r] p(#v0,#v1) -> q(#v0,#v2)" (Tgd.to_string pooled);
  let other = mk_tgd "s" [ atom "p" [ v "A"; v "B" ] ] [ atom "q" [ v "B"; v "A" ] ] in
  let before = Symbol.count () in
  ignore (Tgd.rename_to_pool other);
  Alcotest.(check int) "renaming into the pool again interns nothing" before (Symbol.count ());
  (* The pool is disjoint from canonical query variables. *)
  Alcotest.(check bool) "disjoint from V0" false (Symbol.equal (Tgd.pool_var 0) (Cq.canonical_var 0))

let test_single_head_normalize () =
  let r =
    mk_tgd "r" [ atom "p" [ v "X" ] ] [ atom "q" [ v "X"; v "Z" ]; atom "s" [ v "Z" ] ]
  in
  let rules = Tgd.single_head_normalize [ r ] in
  Alcotest.(check int) "one aux + two projections" 3 (List.length rules);
  List.iter
    (fun (r : Tgd.t) ->
      Alcotest.(check int) "single head each" 1 (List.length r.Tgd.head))
    rules;
  (* Single-head rules pass through untouched. *)
  let plain = mk_tgd "plain" [ atom "p" [ v "X" ] ] [ atom "q" [ v "X" ] ] in
  Alcotest.(check int) "no change" 1 (List.length (Tgd.single_head_normalize [ plain ]))

(* ------------------------------------------------------------------ *)
(* Cq *)

let test_cq_safety () =
  Alcotest.check_raises "unsafe query rejected"
    (Invalid_argument "Cq.make: unsafe query (answer variable not in body)") (fun () ->
      ignore (Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom "p" [ v "Y" ] ]));
  (* Constant answers are allowed. *)
  let q = Cq.make ~name:"q" ~answer:[ c "a" ] ~body:[ atom "p" [ v "Y" ] ] in
  Alcotest.(check int) "arity" 1 (Cq.arity q)

let test_cq_var_classes () =
  let q = Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom "p" [ v "X"; v "Y" ] ] in
  Alcotest.(check int) "answer vars" 1 (Symbol.Set.cardinal (Cq.answer_vars q));
  Alcotest.(check int) "existential vars" 1 (Symbol.Set.cardinal (Cq.existential_vars q));
  Alcotest.(check bool) "not boolean" false (Cq.is_boolean q)

let test_cq_canonical () =
  let q1 =
    Cq.make ~name:"q" ~answer:[ v "A" ]
      ~body:[ atom "p" [ v "A"; v "B" ]; atom "r" [ v "B" ] ]
  in
  let q2 =
    Cq.make ~name:"q" ~answer:[ v "U" ]
      ~body:[ atom "p" [ v "U"; v "W" ]; atom "r" [ v "W" ] ]
  in
  Alcotest.(check bool) "renamed queries share canonical form" true
    (Cq.equal (Cq.canonical q1) (Cq.canonical q2))

let test_cq_canonical_dedups_atoms () =
  let q = Cq.make ~name:"q" ~answer:[] ~body:[ atom "p" [ v "X" ]; atom "p" [ v "X" ] ] in
  Alcotest.(check int) "duplicate atoms merged" 1 (List.length (Cq.canonical q).Cq.body)

(* ------------------------------------------------------------------ *)
(* Homomorphism *)

let test_hom_found () =
  let target = Homomorphism.target_of_atoms [ atom "p" [ c "a"; c "b" ]; atom "p" [ c "b"; c "c" ] ] in
  Alcotest.(check bool) "path of length 2" true
    (Homomorphism.exists [ atom "p" [ v "X"; v "Y" ]; atom "p" [ v "Y"; v "Z" ] ] target);
  Alcotest.(check bool) "no 3-cycle" false
    (Homomorphism.exists
       [ atom "p" [ v "X"; v "Y" ]; atom "p" [ v "Y"; v "Z" ]; atom "p" [ v "Z"; v "X" ] ]
       target)

let test_hom_respects_constants () =
  let target = Homomorphism.target_of_atoms [ atom "p" [ c "a" ] ] in
  Alcotest.(check bool) "constant matches" true (Homomorphism.exists [ atom "p" [ c "a" ] ] target);
  Alcotest.(check bool) "constant mismatch" false (Homomorphism.exists [ atom "p" [ c "b" ] ] target)

let test_hom_init () =
  let target = Homomorphism.target_of_atoms [ atom "p" [ c "a" ]; atom "p" [ c "b" ] ] in
  let init = Symbol.Map.singleton (Symbol.intern "X") (c "a") in
  let homs = Homomorphism.all ~init [ atom "p" [ v "X" ] ] target in
  Alcotest.(check int) "pinned variable" 1 (List.length homs)

let test_hom_all_count () =
  let target = Homomorphism.target_of_atoms [ atom "p" [ c "a" ]; atom "p" [ c "b" ] ] in
  let homs = Homomorphism.all [ atom "p" [ v "X" ]; atom "p" [ v "Y" ] ] target in
  Alcotest.(check int) "2x2 assignments" 4 (List.length homs)

let test_hom_frozen_vars () =
  (* Target variables behave like constants: q(X) can map onto the frozen
     variable W, but the constant a cannot. *)
  let target = Homomorphism.target_of_atoms [ atom "p" [ v "W" ] ] in
  Alcotest.(check bool) "var onto frozen var" true (Homomorphism.exists [ atom "p" [ v "X" ] ] target);
  Alcotest.(check bool) "const does not match frozen var" false
    (Homomorphism.exists [ atom "p" [ c "a" ] ] target)

let test_hom_checks_before_binds () =
  (* A professor heading 31 departments, against a frozen copy whose extra
     head_of atom, tried first, reaches a node that is no department. An
     order that places every head_of before the department atoms that
     check them backtracks through 32^31 partial maps; each check must
     follow the atom that binds its variable. *)
  let n = 31 in
  let dept i = atom "department" [ v (Printf.sprintf "D%d" i) ] in
  let head i = atom "head_of" [ v "P"; v (Printf.sprintf "D%d" i) ] in
  let body = (atom "professor" [ v "P" ] :: List.init n dept) @ List.init n head in
  let target = Homomorphism.target_of_atoms (body @ [ head n ]) in
  Alcotest.(check bool) "found" true (Homomorphism.exists body target)

(* ------------------------------------------------------------------ *)
(* Containment *)

let test_containment_reflexive () =
  let q = Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom "p" [ v "X"; v "Y" ] ] in
  Alcotest.(check bool) "q <= q" true (Containment.contained q q)

let test_containment_specialization () =
  let general = Cq.make ~name:"g" ~answer:[ v "X" ] ~body:[ atom "p" [ v "X"; v "Y" ] ] in
  let special = Cq.make ~name:"s" ~answer:[ v "X" ] ~body:[ atom "p" [ v "X"; c "a" ] ] in
  Alcotest.(check bool) "special <= general" true (Containment.contained special general);
  Alcotest.(check bool) "general not <= special" false (Containment.contained general special)

let test_containment_extra_atom () =
  let q1 =
    Cq.make ~name:"q1" ~answer:[ v "X" ]
      ~body:[ atom "p" [ v "X"; v "Y" ]; atom "r" [ v "Y" ] ]
  in
  let q2 = Cq.make ~name:"q2" ~answer:[ v "X" ] ~body:[ atom "p" [ v "X"; v "Y" ] ] in
  Alcotest.(check bool) "more atoms <= fewer" true (Containment.contained q1 q2);
  Alcotest.(check bool) "fewer not <= more" false (Containment.contained q2 q1)

let test_containment_answer_positions () =
  (* Same bodies, swapped answers: not contained. *)
  let q1 =
    Cq.make ~name:"q1" ~answer:[ v "X"; v "Y" ] ~body:[ atom "p" [ v "X"; v "Y" ] ]
  in
  let q2 =
    Cq.make ~name:"q2" ~answer:[ v "Y"; v "X" ] ~body:[ atom "p" [ v "X"; v "Y" ] ]
  in
  Alcotest.(check bool) "swapped answers" false (Containment.contained q1 q2)

let test_containment_arity_mismatch () =
  let q1 = Cq.make ~name:"q1" ~answer:[ v "X" ] ~body:[ atom "p" [ v "X"; v "Y" ] ] in
  let q0 = Cq.make ~name:"q0" ~answer:[] ~body:[ atom "p" [ v "X"; v "Y" ] ] in
  Alcotest.(check bool) "different arities" false (Containment.contained q1 q0)

let test_minimize_ucq () =
  let general = Cq.make ~name:"g" ~answer:[ v "X" ] ~body:[ atom "p" [ v "X"; v "Y" ] ] in
  let special = Cq.make ~name:"s" ~answer:[ v "X" ] ~body:[ atom "p" [ v "X"; c "a" ] ] in
  let other = Cq.make ~name:"o" ~answer:[ v "X" ] ~body:[ atom "r" [ v "X" ] ] in
  let minimized = Containment.minimize_ucq [ special; general; other ] in
  Alcotest.(check int) "redundant disjunct removed" 2 (List.length minimized);
  Alcotest.(check bool) "general kept" true (List.exists (fun q -> q == general) minimized)

let test_minimize_ucq_equivalent_pair () =
  (* Two equivalent disjuncts: exactly one survives. *)
  let q1 = Cq.make ~name:"q1" ~answer:[ v "X" ] ~body:[ atom "p" [ v "X"; v "Y" ] ] in
  let q2 =
    Cq.make ~name:"q2" ~answer:[ v "U" ]
      ~body:[ atom "p" [ v "U"; v "W" ]; atom "p" [ v "U"; v "T" ] ]
  in
  Alcotest.(check int) "one of two equivalents" 1
    (List.length (Containment.minimize_ucq [ q1; q2 ]))

(* ------------------------------------------------------------------ *)
(* Program *)

let test_program_arity_check () =
  let r1 = mk_tgd "r1" [ atom "p" [ v "X" ] ] [ atom "q" [ v "X" ] ] in
  let r2 = mk_tgd "r2" [ atom "p" [ v "X"; v "Y" ] ] [ atom "q" [ v "X" ] ] in
  (match Program.make [ r1; r2 ] with
  | Ok _ -> Alcotest.fail "inconsistent arity accepted"
  | Error msg -> Alcotest.(check bool) "mentions predicate" true (String.length msg > 0));
  match Program.make [ r1 ] with
  | Ok p ->
    Alcotest.(check int) "signature size" 2 (List.length (Program.predicates p));
    Alcotest.(check (option int)) "arity lookup" (Some 1) (Program.arity_of p (Symbol.intern "p"))
  | Error e -> Alcotest.fail e

let test_program_stats () =
  let p = Tgd_core.Paper_examples.example1 in
  Alcotest.(check int) "rules" 3 (Program.size p);
  Alcotest.(check int) "max arity" 3 (Program.max_arity p);
  Alcotest.(check bool) "simple" true (Program.is_simple p);
  Alcotest.(check int) "rules with head pred r" 1
    (List.length (Program.rules_with_head_pred p (Symbol.intern "r")))

(* The rewriting view is built once per program value: a second read is
   the same value and interns nothing, and every constructor starts with an
   unbuilt view of its own. *)
let test_program_rewriting_view () =
  let p =
    Program.make_exn
      [
        mk_tgd "m" [ atom "p" [ v "X" ] ] [ atom "q" [ v "X"; v "Z" ]; atom "s" [ v "Z" ] ];
        mk_tgd "t" [ atom "s" [ v "Y" ] ] [ atom "p" [ v "Y" ] ];
      ]
  in
  let view = Program.rewriting p in
  let before = Symbol.count () in
  Alcotest.(check bool) "shared by later reads" true (view == Program.rewriting p);
  Alcotest.(check int) "a later read interns nothing" before (Symbol.count ());
  Alcotest.(check int) "normalized rules" 4 (List.length view.Program.rules);
  Alcotest.(check int) "one auxiliary predicate" 1 (Symbol.Set.cardinal view.Program.aux);
  List.iter
    (fun (r : Tgd.t) ->
      Symbol.Set.iter
        (fun x -> Alcotest.(check char) "pool variable" '#' (Symbol.name x).[0])
        (Symbol.Set.union (Tgd.body_vars r) (Tgd.head_vars r)))
    view.Program.rules;
  Alcotest.(check int) "indexed by head predicate" 1
    (List.length (Symbol.Map.find (Symbol.intern "p") view.Program.by_head));
  let normalized = Program.single_head_normalize p in
  Alcotest.(check bool) "a derived program has its own view" false
    (view == Program.rewriting normalized)

let test_program_constants () =
  let r = mk_tgd "r" [ atom "p" [ c "a"; v "X" ] ] [ atom "q" [ v "X"; c "b" ] ] in
  let p = Program.make_exn [ r ] in
  Alcotest.(check int) "two constants" 2 (Symbol.Set.cardinal (Program.constants p))

let () =
  Alcotest.run "logic"
    [
      ( "symbol",
        [
          Alcotest.test_case "interning" `Quick test_symbol_interning;
          Alcotest.test_case "fresh" `Quick test_symbol_fresh;
          Alcotest.test_case "fresh avoids collisions" `Quick test_symbol_fresh_avoids_collision;
          Alcotest.test_case "numbered families" `Quick test_symbol_numbered;
        ] );
      ( "term",
        [
          Alcotest.test_case "kinds" `Quick test_term_kinds;
          Alcotest.test_case "ordering" `Quick test_term_ordering;
        ] );
      ( "atom",
        [
          Alcotest.test_case "vars and constants" `Quick test_atom_vars;
          Alcotest.test_case "repeated variables" `Quick test_atom_repeated;
          Alcotest.test_case "positions" `Quick test_atom_positions;
          Alcotest.test_case "zero arity" `Quick test_atom_zero_arity;
        ] );
      ( "unify",
        [
          Alcotest.test_case "walk chains" `Quick test_subst_walk_chains;
          Alcotest.test_case "double bind rejected" `Quick test_subst_double_bind_rejected;
          Alcotest.test_case "basic mgu" `Quick test_mgu_basic;
          Alcotest.test_case "clashes" `Quick test_mgu_clash;
          Alcotest.test_case "repeated variable" `Quick test_mgu_repeated_var;
          Alcotest.test_case "repeated clash" `Quick test_mgu_repeated_clash;
          Alcotest.test_case "application makes equal" `Quick test_mgu_application_makes_equal;
        ] );
      ( "tgd",
        [
          Alcotest.test_case "variable classes" `Quick test_tgd_variable_classes;
          Alcotest.test_case "simplicity" `Quick test_tgd_simple;
          Alcotest.test_case "empty rejected" `Quick test_tgd_empty_rejected;
          Alcotest.test_case "rename apart" `Quick test_tgd_rename_apart;
          Alcotest.test_case "rename into the pool" `Quick test_tgd_rename_to_pool;
          Alcotest.test_case "single-head normalization" `Quick test_single_head_normalize;
        ] );
      ( "cq",
        [
          Alcotest.test_case "safety" `Quick test_cq_safety;
          Alcotest.test_case "variable classes" `Quick test_cq_var_classes;
          Alcotest.test_case "canonical form" `Quick test_cq_canonical;
          Alcotest.test_case "canonical dedups atoms" `Quick test_cq_canonical_dedups_atoms;
        ] );
      ( "homomorphism",
        [
          Alcotest.test_case "found / not found" `Quick test_hom_found;
          Alcotest.test_case "constants" `Quick test_hom_respects_constants;
          Alcotest.test_case "initial mapping" `Quick test_hom_init;
          Alcotest.test_case "all homomorphisms" `Quick test_hom_all_count;
          Alcotest.test_case "frozen variables" `Quick test_hom_frozen_vars;
          Alcotest.test_case "checks before binds" `Quick test_hom_checks_before_binds;
        ] );
      ( "containment",
        [
          Alcotest.test_case "reflexive" `Quick test_containment_reflexive;
          Alcotest.test_case "specialization" `Quick test_containment_specialization;
          Alcotest.test_case "extra atom" `Quick test_containment_extra_atom;
          Alcotest.test_case "answer positions" `Quick test_containment_answer_positions;
          Alcotest.test_case "arity mismatch" `Quick test_containment_arity_mismatch;
          Alcotest.test_case "minimize ucq" `Quick test_minimize_ucq;
          Alcotest.test_case "minimize equivalent pair" `Quick test_minimize_ucq_equivalent_pair;
        ] );
      ( "program",
        [
          Alcotest.test_case "arity check" `Quick test_program_arity_check;
          Alcotest.test_case "stats" `Quick test_program_stats;
          Alcotest.test_case "constants" `Quick test_program_constants;
          Alcotest.test_case "rewriting view" `Quick test_program_rewriting_view;
        ] );
    ]
