(* Unit tests for the relational substrate: values, tuples, relations,
   instances, CQ evaluation, semi-naive Datalog, SQL generation. *)

open Tgd_logic
open Tgd_db
module Eval = Tgd_conformance.Eval

let v = Term.var
let c = Term.const
let atom p args = Atom.of_strings p args
let vc s = Value.const s
let tuple l = Array.of_list (List.map vc l)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec loop i = i + nn <= nh && (String.sub haystack i nn = needle || loop (i + 1)) in
  nn = 0 || loop 0

(* ------------------------------------------------------------------ *)
(* Value / Tuple *)

let test_value_nulls () =
  Alcotest.(check bool) "null <> const" false (Value.equal (Value.Null 1) (vc "1"));
  Alcotest.(check bool) "null identity" true (Value.equal (Value.Null 7) (Value.Null 7));
  Alcotest.(check bool) "is_null" true (Value.is_null (Value.Null 1));
  Alcotest.(check bool) "tuple has_null" true (Tuple.has_null [| vc "a"; Value.Null 1 |]);
  Alcotest.(check bool) "tuple no null" false (Tuple.has_null (tuple [ "a"; "b" ]))

(* [code] is total on every value the system makes and refuses, rather
   than aliases, a null label outside [0, null_base). *)
let test_value_code_range () =
  Alcotest.(check int) "first null" Value.null_base (Value.code (Value.Null 0));
  List.iter
    (fun n ->
      match Value.code (Value.Null n) with
      | code -> Alcotest.failf "Null %d coded to %d" n code
      | exception Invalid_argument _ -> ())
    [ -1; Value.null_base ]

let test_value_of_term () =
  Alcotest.(check bool) "const round trip" true
    (Value.equal (Value.of_term (c "a")) (vc "a"));
  Alcotest.check_raises "variable rejected" (Invalid_argument "Value.of_term: variable")
    (fun () -> ignore (Value.of_term (v "X")))

(* ------------------------------------------------------------------ *)
(* Relation *)

let test_relation_insert () =
  let r = Relation.create ~arity:2 in
  Alcotest.(check bool) "first insert" true (Relation.insert r (tuple [ "a"; "b" ]));
  Alcotest.(check bool) "duplicate" false (Relation.insert r (tuple [ "a"; "b" ]));
  Alcotest.(check int) "cardinality" 1 (Relation.cardinality r);
  Alcotest.(check bool) "mem" true (Relation.mem r (tuple [ "a"; "b" ]));
  Alcotest.check_raises "arity mismatch" (Invalid_argument "Relation.insert: arity mismatch")
    (fun () -> ignore (Relation.insert r (tuple [ "a" ])))

let test_relation_lookup () =
  let r = Relation.create ~arity:2 in
  ignore (Relation.insert r (tuple [ "a"; "b" ]));
  ignore (Relation.insert r (tuple [ "a"; "c" ]));
  ignore (Relation.insert r (tuple [ "d"; "b" ]));
  Alcotest.(check int) "index col 0" 2 (List.length (Relation.lookup r ~pos:0 (vc "a")));
  Alcotest.(check int) "index col 1" 2 (List.length (Relation.lookup r ~pos:1 (vc "b")));
  Alcotest.(check int) "miss" 0 (List.length (Relation.lookup r ~pos:0 (vc "zz")))

(* A row is coded before the relation changes: a value with no code
   raises and leaves the row sets, the indexes and the pending tail as
   they were, with a built tail index too. *)
let test_insert_uncodable () =
  let r = Relation.create ~arity:2 in
  ignore (Relation.insert r (tuple [ "a"; "b" ]));
  Relation.seal r;
  ignore (Relation.insert r (tuple [ "c"; "d" ]));
  (* Builds the block's and the tail's index on column 0. *)
  ignore (Relation.lookup r ~pos:0 (vc "c"));
  let bad = [| vc "x"; Value.Null Value.null_base |] in
  (match Relation.insert r bad with
  | _ -> Alcotest.fail "inserted an uncodable value"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "cardinality" 2 (Relation.cardinality r);
  Alcotest.(check bool) "not a member" false (Relation.mem r bad);
  Alcotest.(check int) "pending tail" 1 (Relation.pending r);
  Alcotest.(check int) "lookup" 0 (List.length (Relation.lookup r ~pos:0 (vc "x")));
  Alcotest.(check int) "segment indexes" 0
    (List.fold_left
       (fun n (s : Relation.segment) ->
         let _, _, k = s.probe ~col:0 (Value.code (vc "x")) in
         n + k)
       0 (Relation.segments r));
  Alcotest.(check bool) "the next insert still lands" true (Relation.insert r (tuple [ "x"; "y" ]));
  Relation.seal r;
  Alcotest.(check int) "and seals in" 3 (Columnar.nrows (Relation.block r))

(* A chain of copies, each written once, keeps at most nine tails (ten
   segments, with the block): past
   eight, a copy merges the shared ones into one. Rows, order, membership
   and lookups survive the merge, and the originals are untouched. *)
let test_relation_copy_chain () =
  let rows = List.init 12 (fun i -> tuple [ Printf.sprintf "a%d" i; "b" ]) in
  let first = Relation.create ~arity:2 in
  let last =
    List.fold_left
      (fun r t ->
        let r = Relation.copy r in
        ignore (Relation.insert r t);
        r)
      first rows
  in
  Alcotest.(check bool) "few tails" true (List.length (Relation.segments last) <= 10);
  Alcotest.(check bool) "rows in order" true (List.equal Tuple.equal (Relation.to_list last) rows);
  Alcotest.(check bool) "members" true (List.for_all (Relation.mem last) rows);
  Alcotest.(check int) "lookup" 12 (List.length (Relation.lookup last ~pos:1 (vc "b")));
  Alcotest.(check int) "original untouched" 0 (Relation.cardinality first)

let test_relation_index_maintained () =
  (* Build the index, then insert more rows: lookups must see them. *)
  let r = Relation.create ~arity:1 in
  ignore (Relation.insert r (tuple [ "a" ]));
  Alcotest.(check int) "before" 1 (List.length (Relation.lookup r ~pos:0 (vc "a")));
  ignore (Relation.insert r (tuple [ "a" ]));
  (* duplicate: no change *)
  ignore (Relation.insert r (tuple [ "b" ]));
  Alcotest.(check int) "after new rows" 1 (List.length (Relation.lookup r ~pos:0 (vc "b")))

(* ------------------------------------------------------------------ *)
(* Instance *)

let test_instance_basics () =
  let inst = Instance.create () in
  Alcotest.(check bool) "new fact" true (Instance.add_fact inst (Symbol.intern "p") (tuple [ "a" ]));
  Alcotest.(check bool) "dup fact" false (Instance.add_fact inst (Symbol.intern "p") (tuple [ "a" ]));
  Alcotest.(check int) "cardinality" 1 (Instance.cardinality inst);
  Alcotest.check_raises "arity clash"
    (Invalid_argument "Instance: predicate p used with arities 1 and 2") (fun () ->
      ignore (Instance.add_fact inst (Symbol.intern "p") (tuple [ "a"; "b" ])))

let test_instance_copy_isolated () =
  let inst = Instance.create () in
  ignore (Instance.add_fact inst (Symbol.intern "p") (tuple [ "a" ]));
  let copy = Instance.copy inst in
  ignore (Instance.add_fact copy (Symbol.intern "p") (tuple [ "b" ]));
  Alcotest.(check int) "copy grew" 2 (Instance.cardinality copy);
  Alcotest.(check int) "original untouched" 1 (Instance.cardinality inst)

let p_ = Symbol.intern "p"
let q_ = Symbol.intern "q"

(* [p] holds a sealed block plus a pending row; [q] is sealed and current,
   and holds the null the substitution tests merge. *)
let cow_instance () =
  let inst = Instance.create () in
  ignore (Instance.add_fact inst p_ (tuple [ "a" ]));
  ignore (Instance.add_fact inst q_ [| vc "x"; Value.Null 1 |]);
  Instance.seal inst;
  ignore (Instance.add_fact inst p_ (tuple [ "b" ]));
  inst

let rel inst pred = Option.get (Instance.relation inst pred)

(* A copy shares every relation until one side writes it; each kind of
   write (insert, substitution, seal) gives the writer a private copy and
   leaves the other side as it was — in both directions. *)
let test_instance_copy_on_write () =
  let snapshot inst = (Instance.facts inst |> List.sort compare, Instance.cardinality inst) in
  List.iter
    (fun (what, write, touched) ->
      List.iter
        (fun writer_is_copy ->
          let inst = cow_instance () in
          let copy = Instance.copy inst in
          Alcotest.(check bool) "copy shares p" true (rel inst p_ == rel copy p_);
          Alcotest.(check bool) "copy shares q" true (rel inst q_ == rel copy q_);
          let writer, other = if writer_is_copy then (copy, inst) else (inst, copy) in
          let before = snapshot other in
          let other_p = rel other p_ in
          write writer;
          let dir = Printf.sprintf "%s (%s writes)" what (if writer_is_copy then "copy" else "original") in
          Alcotest.(check bool) (dir ^ ": other side unchanged") true (snapshot other = before);
          Alcotest.(check bool) (dir ^ ": other side keeps its relation") true (rel other p_ == other_p);
          Alcotest.(check bool) (dir ^ ": other side keeps its pending tail") true
            (Relation.pending (rel other p_) > 0);
          Alcotest.(check bool) (dir ^ ": writer owns the touched relation") false
            (rel writer touched == rel other touched);
          let untouched = if touched == p_ then q_ else p_ in
          Alcotest.(check bool) (dir ^ ": untouched relation still shared") true
            (rel writer untouched == rel other untouched))
        [ true; false ])
    [
      ("insert", (fun i -> ignore (Instance.add_fact i p_ (tuple [ "c" ]))), p_);
      ( "substitute",
        (fun i ->
          Alcotest.(check int) "one rewritten fact" 1
            (List.length (Instance.substitute i ~from_:(Value.Null 1) ~to_:(vc "y")))),
        q_ );
      ( "seal",
        (fun i ->
          Instance.seal i;
          Alcotest.(check int) "writer sealed" 0 (Relation.pending (rel i p_))),
        p_ );
    ];
  (* A fact the shared relation already holds is no write. *)
  let inst = cow_instance () in
  let copy = Instance.copy inst in
  Alcotest.(check bool) "duplicate insert" false (Instance.add_fact copy p_ (tuple [ "a" ]));
  Alcotest.(check bool) "duplicate insert copies nothing" true (rel inst p_ == rel copy p_);
  Alcotest.check_raises "a shared relation refuses a direct insert"
    (Invalid_argument "Relation.insert: shared relation") (fun () ->
      ignore (Relation.insert (rel inst p_) (tuple [ "d" ])))

(* Enough predicates that their table buckets collide: a copy of a copy
   still iterates the facts in the original's order. *)
let test_instance_copy_keeps_order () =
  let inst = Instance.create () in
  for i = 0 to 99 do
    ignore (Instance.add_fact inst (Symbol.intern (Printf.sprintf "p%d" i)) (tuple [ "a" ]))
  done;
  let copies = Instance.copy (Instance.copy (Instance.copy inst)) in
  Alcotest.(check bool) "same iteration order" true (Instance.facts inst = Instance.facts copies)

let test_instance_of_atoms () =
  let inst = Instance.of_atoms [ atom "p" [ c "a"; c "b" ]; atom "q" [ c "x" ] ] in
  Alcotest.(check int) "two facts" 2 (Instance.cardinality inst);
  Alcotest.(check int) "two predicates" 2 (List.length (Instance.predicates inst));
  Alcotest.(check int) "atoms round trip" 2 (List.length (Instance.to_atoms inst))

(* ------------------------------------------------------------------ *)
(* Eval *)

let sample_db () =
  Instance.of_atoms
    [
      atom "edge" [ c "a"; c "b" ];
      atom "edge" [ c "b"; c "c" ];
      atom "edge" [ c "c"; c "a" ];
      atom "edge" [ c "c"; c "c" ];
      atom "color" [ c "a"; c "red" ];
      atom "color" [ c "b"; c "blue" ];
    ]

let test_eval_single_atom () =
  let db = sample_db () in
  let q = Cq.make ~name:"q" ~answer:[ v "X"; v "Y" ] ~body:[ atom "edge" [ v "X"; v "Y" ] ] in
  Alcotest.(check int) "all edges" 4 (List.length (Eval.cq db q))

let test_eval_join () =
  let db = sample_db () in
  let q =
    Cq.make ~name:"q" ~answer:[ v "X"; v "Z" ]
      ~body:[ atom "edge" [ v "X"; v "Y" ]; atom "edge" [ v "Y"; v "Z" ] ]
  in
  (* paths of length 2: ab-bc, bc-ca, bc-cc, ca-ab, cc-ca, cc-cc *)
  Alcotest.(check int) "paths of length 2" 6 (List.length (Eval.cq db q))

let test_eval_constant_selection () =
  let db = sample_db () in
  let q = Cq.make ~name:"q" ~answer:[ v "Y" ] ~body:[ atom "edge" [ c "a"; v "Y" ] ] in
  match Eval.cq db q with
  | [ t ] -> Alcotest.(check bool) "a's successor is b" true (Value.equal t.(0) (vc "b"))
  | other -> Alcotest.fail (Printf.sprintf "expected 1 answer, got %d" (List.length other))

let test_eval_repeated_var () =
  let db = sample_db () in
  let q = Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom "edge" [ v "X"; v "X" ] ] in
  match Eval.cq db q with
  | [ t ] -> Alcotest.(check bool) "self loop at c" true (Value.equal t.(0) (vc "c"))
  | other -> Alcotest.fail (Printf.sprintf "expected 1 answer, got %d" (List.length other))

let test_eval_boolean () =
  let db = sample_db () in
  let sat = Cq.make ~name:"q" ~answer:[] ~body:[ atom "color" [ v "X"; c "red" ] ] in
  let unsat = Cq.make ~name:"q" ~answer:[] ~body:[ atom "color" [ v "X"; c "green" ] ] in
  Alcotest.(check int) "satisfied boolean: one empty tuple" 1 (List.length (Eval.cq db sat));
  Alcotest.(check int) "unsatisfied boolean: empty" 0 (List.length (Eval.cq db unsat));
  Alcotest.(check bool) "cq_exists" true (Eval.cq_exists db sat);
  Alcotest.(check bool) "cq_exists false" false (Eval.cq_exists db unsat)

let test_eval_missing_predicate () =
  let db = sample_db () in
  let q = Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom "nothing" [ v "X" ] ] in
  Alcotest.(check int) "no relation, no answers" 0 (List.length (Eval.cq db q))

let test_eval_cross_product () =
  let db = sample_db () in
  let q =
    Cq.make ~name:"q" ~answer:[ v "X"; v "U" ]
      ~body:[ atom "color" [ v "X"; c "red" ]; atom "color" [ v "U"; v "C" ] ]
  in
  Alcotest.(check int) "1 x 2 product" 2 (List.length (Eval.cq db q))

let test_eval_constant_answer () =
  let db = sample_db () in
  let q = Cq.make ~name:"q" ~answer:[ c "k"; v "X" ] ~body:[ atom "edge" [ v "X"; c "b" ] ] in
  match Eval.cq db q with
  | [ t ] -> Alcotest.(check bool) "constant in answer tuple" true (Value.equal t.(0) (vc "k"))
  | other -> Alcotest.fail (Printf.sprintf "expected 1 answer, got %d" (List.length other))

let test_eval_ucq_union_dedup () =
  let db = sample_db () in
  let q1 = Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom "edge" [ v "X"; v "Y" ] ] in
  let q2 = Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom "edge" [ v "Y"; v "X" ] ] in
  (* sources: a,b,c ; targets: b,c,a,c -> union {a,b,c} *)
  Alcotest.(check int) "deduplicated union" 3 (List.length (Eval.ucq db [ q1; q2 ]))

(* Regression: the greedy planner must sink isolated (cross-product) atoms
   below atoms joined to the rest of the body, even when the isolated
   relation is the smallest. With t first, the a-r join below runs once per
   t-tuple (~4800 join-search steps); with t last it runs once (~2500). *)
let test_eval_planner_sinks_isolated_atoms () =
  let atoms = ref [] in
  for i = 0 to 59 do
    let n = Printf.sprintf "n%d" i in
    atoms := atom "a" [ c n ] :: atom "r" [ c n; c n ] :: !atoms
  done;
  for j = 0 to 39 do
    atoms := atom "t" [ c (Printf.sprintf "m%d" j) ] :: !atoms
  done;
  let db = Instance.of_atoms !atoms in
  let q =
    Cq.make ~name:"q" ~answer:[ v "X" ]
      ~body:[ atom "t" [ v "Z" ]; atom "a" [ v "X" ]; atom "r" [ v "X"; v "Y" ] ]
  in
  let tel = Tgd_exec.Telemetry.create () in
  let gov = Tgd_exec.Governor.create ~telemetry:tel () in
  let answers = Eval.cq ~gov db q in
  Alcotest.(check int) "answers" 60 (List.length answers);
  let steps = Tgd_exec.Telemetry.get tel "eval.steps" in
  Alcotest.(check bool)
    (Printf.sprintf "join-search steps (%d) bounded: isolated atom evaluated last" steps)
    true
    (steps <= 3_000)

let test_eval_forced () =
  let db = sample_db () in
  let body = [ atom "edge" [ v "X"; v "Y" ] ] in
  let count = ref 0 in
  Eval.bindings ~forced:(0, [ tuple [ "a"; "b" ] ]) db body (fun _ -> incr count);
  Alcotest.(check int) "forced atom restricted to given tuples" 1 !count

(* ------------------------------------------------------------------ *)
(* Datalog *)

(* Datalog saturation is the chase's fixpoint loop on existential-free
   rules, charged to the Datalog answering keys. *)
let saturate p db = Tgd_chase.Chase.run ~keys:Tgd_chase.Chase.Datalog_keys p db

let test_datalog_transitive_closure () =
  let db = sample_db () in
  let tc =
    Program.make_exn ~name:"tc"
      [
        Tgd.make ~name:"base" ~body:[ atom "edge" [ v "X"; v "Y" ] ]
          ~head:[ atom "path" [ v "X"; v "Y" ] ];
        Tgd.make ~name:"step"
          ~body:[ atom "path" [ v "X"; v "Y" ]; atom "edge" [ v "Y"; v "Z" ] ]
          ~head:[ atom "path" [ v "X"; v "Z" ] ];
      ]
  in
  let stats = saturate tc db in
  (* a,b,c are all mutually reachable (and c->c): path = {a,b,c}^2. *)
  let q = Cq.make ~name:"q" ~answer:[ v "X"; v "Y" ] ~body:[ atom "path" [ v "X"; v "Y" ] ] in
  Alcotest.(check int) "full closure" 9 (List.length (Eval.cq db q));
  Alcotest.(check int) "derived count" 9 stats.Tgd_chase.Chase.derived;
  Alcotest.(check bool) "several rounds" true (stats.Tgd_chase.Chase.rounds >= 2)

let test_datalog_idempotent () =
  let db = sample_db () in
  let p =
    Program.make_exn
      [ Tgd.make ~name:"copy" ~body:[ atom "edge" [ v "X"; v "Y" ] ] ~head:[ atom "e2" [ v "X"; v "Y" ] ] ]
  in
  let s1 = saturate p db in
  let s2 = saturate p db in
  Alcotest.(check int) "first run derives" 4 s1.Tgd_chase.Chase.derived;
  Alcotest.(check int) "second run derives nothing" 0 s2.Tgd_chase.Chase.derived

let test_datalog_constants_in_head () =
  let db = Instance.of_atoms [ atom "p" [ c "x" ] ] in
  let prog =
    Program.make_exn
      [ Tgd.make ~name:"tag" ~body:[ atom "p" [ v "X" ] ] ~head:[ atom "tagged" [ v "X"; c "yes" ] ] ]
  in
  ignore (saturate prog db);
  let q = Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom "tagged" [ v "X"; c "yes" ] ] in
  Alcotest.(check int) "head constant materialized" 1 (List.length (Eval.cq db q))

(* ------------------------------------------------------------------ *)
(* Csv_io *)

let test_csv_load () =
  let src = "edge,a,b\n# comment\n\nedge,b,c\ncolor,a,red\n" in
  match Csv_io.load_string src with
  | Error e -> Alcotest.fail e
  | Ok inst ->
    Alcotest.(check int) "three facts" 3 (Instance.cardinality inst);
    Alcotest.(check int) "two predicates" 2 (List.length (Instance.predicates inst))

let test_csv_quoting () =
  let src = "name,\"O'Hara, Ada\",\"says \"\"hi\"\"\"\n" in
  match Csv_io.load_string src with
  | Error e -> Alcotest.fail e
  | Ok inst -> (
    match Instance.facts inst with
    | [ (_, t) ] ->
      Alcotest.(check bool) "comma kept" true (Value.equal t.(0) (vc "O'Hara, Ada"));
      Alcotest.(check bool) "escaped quote" true (Value.equal t.(1) (vc "says \"hi\""))
    | _ -> Alcotest.fail "expected one fact")

let test_csv_errors () =
  (match Csv_io.load_string "p,\"unterminated\n" with
  | Ok _ -> Alcotest.fail "unterminated quote accepted"
  | Error msg -> Alcotest.(check bool) "line number" true (String.length msg > 0));
  match Csv_io.load_string "p,a\np,a,b\n" with
  | Ok _ -> Alcotest.fail "arity clash accepted"
  | Error msg -> Alcotest.(check bool) "mentions line 2" true (String.length msg > 0)

let test_csv_roundtrip () =
  let inst = sample_db () in
  match Csv_io.load_string (Csv_io.save_string inst) with
  | Error e -> Alcotest.fail e
  | Ok inst' ->
    Alcotest.(check int) "same cardinality" (Instance.cardinality inst)
      (Instance.cardinality inst');
    Alcotest.(check string) "canonical text equal" (Csv_io.save_string inst)
      (Csv_io.save_string inst')

(* Write -> read -> equal instance, on every shape of field the writer can
   be handed: separators, escaped quotes, literal newlines, leading and
   trailing whitespace (would be trimmed if left unquoted), a leading '#'
   (would read back as a comment), and the empty string. *)
let test_csv_roundtrip_hostile () =
  let inst = Instance.create () in
  let add pred args = ignore (Instance.add_fact inst (Symbol.intern pred) (Array.map Value.const args)) in
  add "plain" [| "a"; "b" |];
  add "quoty" [| "O'Hara, Ada"; "says \"hi\"" |];
  add "newliny" [| "two\nlines"; "x" |];
  add "spacey" [| " leading"; "trailing "; "\ttabbed\t" |];
  add "hashy" [| "#not-a-comment" |];
  add "#hash_pred" [| "v" |];
  add "empty_field" [| ""; "z" |];
  let text = Csv_io.save_string inst in
  match Csv_io.load_string text with
  | Error e -> Alcotest.fail e
  | Ok inst' ->
    let facts i =
      Instance.facts i
      |> List.map (fun (p, t) -> (Symbol.name p, Array.to_list (Array.map (Format.asprintf "%a" Value.pp) t)))
      |> List.sort compare
    in
    Alcotest.(check (list (pair string (list string)))) "facts equal" (facts inst) (facts inst');
    Alcotest.(check string) "text stable" text (Csv_io.save_string inst')

(* An empty relation has no facts, so the fact-per-record format drops it:
   write -> read yields the facts, and predicates with zero rows are simply
   absent. Make that contract explicit. *)
let test_csv_empty_relation () =
  let inst = Instance.create () in
  ignore (Instance.add_fact inst (Symbol.intern "edge") [| Value.const "a"; Value.const "b" |]);
  (* Force an empty relation into existence. *)
  (match Instance.relation inst (Symbol.intern "lonely") with
  | None -> ()
  | Some _ -> Alcotest.fail "lonely should not exist yet");
  let q = Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom "edge" [ v "X"; v "Y" ] ] in
  ignore (Eval.cq inst q);
  Alcotest.(check string) "empty instance saves to empty text" ""
    (Csv_io.save_string (Instance.create ()));
  (match Csv_io.load_string "" with
  | Error e -> Alcotest.fail e
  | Ok i -> Alcotest.(check int) "empty text loads empty instance" 0 (Instance.cardinality i));
  match Csv_io.load_string (Csv_io.save_string inst) with
  | Error e -> Alcotest.fail e
  | Ok inst' ->
    Alcotest.(check int) "one fact survives" 1 (Instance.cardinality inst');
    Alcotest.(check int) "only the populated predicate exists" 1
      (List.length (Instance.predicates inst'))

let test_csv_multiline_quoted () =
  let src = "p,\"a\nb\",c\nq,plain\n" in
  match Csv_io.load_string src with
  | Error e -> Alcotest.fail e
  | Ok inst -> (
    Alcotest.(check int) "two facts" 2 (Instance.cardinality inst);
    match Instance.relation inst (Symbol.intern "p") with
    | None -> Alcotest.fail "p missing"
    | Some rel -> (
      match Relation.to_list rel with
      | [ t ] -> Alcotest.(check bool) "newline kept" true (Value.equal t.(0) (vc "a\nb"))
      | _ -> Alcotest.fail "expected one p tuple"))

(* ------------------------------------------------------------------ *)
(* Plan: the one join order Eval interprets and Col_eval compiles *)

let plan ?init ?forced db body =
  let size (a : Atom.t) =
    match Instance.relation db a.Atom.pred with None -> 0 | Some rel -> Relation.cardinality rel
  in
  Join_plan.make ?init ?forced ~sizes:(Array.of_list (List.map size body)) body

let order steps = Array.to_list (Array.map (fun s -> s.Join_plan.index) steps)

let test_plan_orders_constants_first () =
  let db = sample_db () in
  match plan db [ atom "edge" [ v "X"; v "Y" ]; atom "color" [ v "X"; c "red" ] ] with
  | [| s1; s2 |] ->
    Alcotest.(check string) "selective atom first" "color" (Symbol.name s1.Join_plan.atom.Atom.pred);
    Alcotest.(check (option int)) "index probe on the constant column" (Some 1) s1.Join_plan.probe;
    Alcotest.(check (option int)) "index probe on the join column" (Some 0) s2.Join_plan.probe
  | steps -> Alcotest.fail (Printf.sprintf "expected 2 steps, got %d" (Array.length steps))

let test_plan_scan_when_unbound () =
  let db = sample_db () in
  match plan db [ atom "edge" [ v "X"; v "Y" ] ] with
  | [| s |] -> Alcotest.(check (option int)) "scan" None s.Join_plan.probe
  | _ -> Alcotest.fail "expected 1 step"

let test_plan_explain_nonempty () =
  let db = sample_db () in
  let body = [ atom "edge" [ v "X"; v "Y" ]; atom "edge" [ v "Y"; v "Z" ] ] in
  let steps = plan db body in
  (* Col_eval compiles the same plan and prints it with block row counts. *)
  Instance.seal db;
  let t = Col_eval.compile db (Cq.make ~name:"q" ~answer:[ v "X" ] ~body) in
  Alcotest.(check bool) "compiled from the shared plan" true (Col_eval.steps t = steps);
  let text = Format.asprintf "%a" Col_eval.pp t in
  Alcotest.(check bool) "explanation text" true (String.length text > 20);
  Alcotest.(check bool) "names the probe" true (contains text "index probe on c1");
  Alcotest.(check bool) "prints the row count" true (contains text "(4 rows)")

let test_plan_forced_first () =
  let db = sample_db () in
  let body = [ atom "edge" [ v "X"; v "Y" ]; atom "color" [ v "X"; c "red" ] ] in
  Alcotest.(check (list int)) "unforced: constant atom first" [ 1; 0 ] (order (plan db body));
  Alcotest.(check (list int)) "forced atom first" [ 0; 1 ] (order (plan ~forced:0 db body))

let test_plan_init_bound () =
  let db = sample_db () in
  let body = [ atom "edge" [ v "X"; v "Y" ]; atom "edge" [ v "Y"; v "Z" ] ] in
  let z = Symbol.intern "Z" in
  match plan ~init:(Symbol.equal z) db body with
  | [| s1; _ |] ->
    Alcotest.(check int) "the atom holding the bound variable first" 1 s1.Join_plan.index;
    Alcotest.(check (option int)) "probes the bound column" (Some 1) s1.Join_plan.probe;
    Alcotest.(check bool) "checks it, binds the other" true
      (s1.Join_plan.args = [| Join_plan.Bind (Symbol.intern "Y"); Join_plan.Check z |])
  | _ -> Alcotest.fail "expected 2 steps"

let test_plan_repeated_variable () =
  let db = sample_db () in
  let x = Symbol.intern "X" in
  match plan db [ atom "edge" [ v "X"; v "X" ] ] with
  | [| s |] ->
    Alcotest.(check bool) "bind then check" true
      (s.Join_plan.args = [| Join_plan.Bind x; Join_plan.Check x |]);
    Alcotest.(check (option int)) "not bound before the step: scan" None s.Join_plan.probe
  | _ -> Alcotest.fail "expected 1 step"

let test_plan_isolated_last () =
  let db = sample_db () in
  (* color is the smaller relation, but shares no variable with the rest. *)
  let body =
    [ atom "color" [ v "Z"; v "W" ]; atom "edge" [ v "X"; v "Y" ]; atom "edge" [ v "Y"; v "Q" ] ]
  in
  Alcotest.(check (list int)) "isolated atom last" [ 1; 2; 0 ] (order (plan db body))

let test_plan_checks_before_binds () =
  (* After p(X) and h(X,Y), d(Y) only filters: it goes before h(X,Z), which
     has as many bound positions and would bind Z. *)
  let body =
    [
      atom "p" [ v "X" ];
      atom "h" [ v "X"; v "Y" ];
      atom "d" [ v "Y" ];
      atom "h" [ v "X"; v "Z" ];
      atom "d" [ v "Z" ];
    ]
  in
  Alcotest.(check (list int)) "each check right after its binding" [ 0; 1; 2; 3; 4 ]
    (order (Join_plan.make ~sizes:(Array.make 5 1) body))

(* ------------------------------------------------------------------ *)
(* Sql *)

let test_sql_shape () =
  let q =
    Cq.make ~name:"q" ~answer:[ v "X" ]
      ~body:[ atom "p" [ v "X"; v "Y" ]; atom "r" [ v "Y"; c "a" ] ]
  in
  let sql = Sql.of_cq q in
  Alcotest.(check bool) "select" true (contains sql "SELECT DISTINCT t0.c1 AS a1");
  Alcotest.(check bool) "from two tables" true (contains sql "p AS t0, r AS t1");
  Alcotest.(check bool) "join condition" true (contains sql "t0.c2 = t1.c1");
  Alcotest.(check bool) "constant condition" true (contains sql "t1.c2 = 'a'")

let test_sql_boolean () =
  let q = Cq.make ~name:"q" ~answer:[] ~body:[ atom "p" [ v "X" ] ] in
  Alcotest.(check bool) "boolean selects 1" true (contains (Sql.of_cq q) "SELECT DISTINCT 1 AS sat")

let test_sql_union () =
  let q1 = Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom "p" [ v "X" ] ] in
  let q2 = Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom "r" [ v "X" ] ] in
  Alcotest.(check bool) "union" true (contains (Sql.of_ucq [ q1; q2 ]) "UNION");
  Alcotest.check_raises "empty ucq" (Invalid_argument "Sql.of_ucq: empty UCQ") (fun () ->
      ignore (Sql.of_ucq []))

let test_sql_quote () =
  Alcotest.(check string) "quote doubling" "'o''brien'" (Sql.quote "o'brien")

let test_sql_repeated_var_same_atom () =
  let q = Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom "p" [ v "X"; v "X" ] ] in
  Alcotest.(check bool) "self equality" true (contains (Sql.of_cq q) "t0.c1 = t0.c2")

(* ------------------------------------------------------------------ *)
(* Columnar sealed storage *)

let test_columnar_roundtrip_basic () =
  let r = Relation.create ~arity:2 in
  ignore (Relation.insert r [| vc "a"; vc "b" |]);
  ignore (Relation.insert r [| vc "a"; Value.Null 3 |]);
  ignore (Relation.insert r [| Value.Null 0; vc "b" |]);
  Alcotest.(check int) "an empty block before seal" 0 (Columnar.nrows (Relation.block r));
  Relation.seal r;
  let block = Relation.block r in
  Alcotest.(check int) "arity" 2 (Columnar.arity block);
  Alcotest.(check int) "nrows" 3 (Columnar.nrows block);
  let decoded = ref [] in
  List.iter (fun t -> decoded := t :: !decoded) (Relation.to_list (Relation.of_columnar block));
  Alcotest.(check bool) "decoded rows are exactly the relation" true
    (List.length !decoded = 3 && List.for_all (Relation.mem r) !decoded);
  (* Probing column 0 for "a"'s code finds exactly the two "a"-rows. *)
  let rows, start, len = Columnar.probe block ~col:0 (Value.code (vc "a")) in
  Alcotest.(check int) "probe hits" 2 len;
  for k = start to start + len - 1 do
    let c = (Columnar.col block 0).(rows.(k)) in
    Alcotest.(check bool) "probed row has the key" true (Value.equal (Value.decode c) (vc "a"))
  done;
  (* Nulls code distinctly from every constant and decode back. *)
  Alcotest.(check bool) "null decodes back" true
    (Value.equal (Value.decode (Value.code (Value.Null 3))) (Value.Null 3))

let gen_col_value =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun i -> vc (Printf.sprintf "c%d" i)) (int_bound 9));
        (1, map (fun n -> Value.Null n) (int_bound 5));
      ])

let gen_col_tuples =
  QCheck.Gen.(
    int_range 1 3 >>= fun arity ->
    int_range 0 60 >>= fun n ->
    list_repeat n (map Array.of_list (list_repeat arity gen_col_value)) >>= fun tuples ->
    return (arity, tuples))

let arb_col_tuples =
  QCheck.make
    ~print:(fun (arity, tuples) -> Printf.sprintf "arity %d, %d tuples" arity (List.length tuples))
    gen_col_tuples

let sealed_relation_of arity tuples =
  let r = Relation.create ~arity in
  List.iter (fun t -> ignore (Relation.insert r t)) tuples;
  Relation.seal r;
  r

let sorted_tuples_of_block block =
  let acc = ref [] in
  List.iter (fun t -> acc := t :: !acc) (Relation.to_list (Relation.of_columnar block));
  List.sort Tuple.compare !acc

let prop_columnar_roundtrip =
  QCheck.Test.make ~name:"columnar encode/decode round-trips the tuple set" ~count:100
    arb_col_tuples (fun (arity, tuples) ->
      let r = sealed_relation_of arity tuples in
      let block = Relation.block r in
      (* Decoded block ≡ relation contents (deduplicated, order-free). *)
      let expect = List.sort Tuple.compare (Relation.to_list r) in
      let got = sorted_tuples_of_block block in
      List.length got = List.length expect
      && List.for_all2 Tuple.equal got expect
      (* Code order ≡ value order: sorting coded rows lexicographically
         must equal sorting the decoded tuples with [Tuple.compare] —
         the invariant the range-owned merge's byte-identity rests
         on. *)
      &&
      let n = Columnar.nrows block in
      let rows = Array.init n (fun i -> Array.init arity (fun j -> (Columnar.col block j).(i))) in
      Array.sort (fun a b -> compare (a : int array) b) rows;
      let by_codes = Array.to_list (Array.map (Array.map Value.decode) rows) in
      List.for_all2 Tuple.equal by_codes got)

(* [Col_eval.sort_rows] + [uniq_rows] on flat coded rows against boxed
   tuples sorted with [Tuple.compare]. Each column draws its codes from
   one of three pools: four constants (heavy duplication), 5,000
   constants (a code range past one radix digit) or constants mixed with
   nulls (codes at and above [Value.null_base], up to five digits). Half
   the rows repeat an earlier row, and the [slack] ints past
   [rows * stride] must come back untouched. *)
let sort_syms = Array.init 5_000 (fun i -> Value.code (vc (Printf.sprintf "sort%d" i)))

let gen_sort_case st =
  let stride = Random.State.int st 5 in
  let rows = Random.State.int st (if Random.State.bool st then 65 else 3_001) in
  let pools = Array.init stride (fun _ -> Random.State.int st 3) in
  let code pool =
    match pool with
    | 0 -> sort_syms.(Random.State.int st 4)
    | 1 -> sort_syms.(Random.State.int st 5_000)
    | _ ->
      if Random.State.bool st then sort_syms.(Random.State.int st 5_000)
      else Value.null_base + Random.State.full_int st Value.null_base
  in
  let table = Array.make rows [||] in
  for r = 0 to rows - 1 do
    table.(r) <-
      (if r > 0 && Random.State.bool st then table.(Random.State.int st r)
       else Array.map code pools)
  done;
  (stride, table, Random.State.int st 8)

let arb_sort_case =
  QCheck.make
    ~print:(fun (stride, table, slack) ->
      Printf.sprintf "stride %d, %d rows, slack %d, first rows: %s" stride (Array.length table) slack
        (String.concat " "
           (List.filteri
              (fun i _ -> i < 16)
              (List.map
                 (fun r -> "(" ^ String.concat "," (List.map string_of_int (Array.to_list r)) ^ ")")
                 (Array.to_list table)))))
    gen_sort_case

let prop_sort_rows_is_tuple_order =
  QCheck.Test.make ~name:"sort_rows + uniq_rows equal sorting boxed tuples" ~count:300
    arb_sort_case (fun (stride, table, slack) ->
      let rows = Array.length table in
      let buf = Array.make ((rows * stride) + slack) (-7) in
      Array.iteri (fun r t -> Array.blit t 0 buf (r * stride) stride) table;
      let boxed = List.map (Array.map Value.decode) (Array.to_list table) in
      let decoded rows = Col_eval.decode_rows buf ~stride ~rows [] in
      let same a b = List.length a = List.length b && List.for_all2 Tuple.equal a b in
      let untouched () =
        let ok = ref true in
        for i = rows * stride to Array.length buf - 1 do
          if buf.(i) <> -7 then ok := false
        done;
        !ok
      in
      Col_eval.sort_rows buf ~stride ~rows;
      let sorted_ok = same (decoded rows) (List.sort Tuple.compare boxed) && untouched () in
      let uniq = Col_eval.uniq_rows buf ~stride ~rows in
      sorted_ok && same (decoded uniq) (List.sort_uniq Tuple.compare boxed) && untouched ())

let prop_columnar_codes_stable_under_reseal =
  QCheck.Test.make ~name:"columnar codes are stable under re-seal" ~count:100 arb_col_tuples
    (fun (arity, tuples) ->
      let r = sealed_relation_of arity tuples in
      let codes_of block =
        let n = Columnar.nrows block in
        List.init n (fun i ->
            ( Format.asprintf "%a" Tuple.pp (Array.init arity (fun j -> Value.decode (Columnar.col block j).(i))),
              Array.init arity (fun j -> (Columnar.col block j).(i)) ))
      in
      let before = codes_of (Relation.block r) in
      (* Grow the relation into its pending tail and re-seal: every
         pre-existing tuple must keep exactly the same codes. *)
      ignore (Relation.insert r (Array.make arity (vc "fresh")));
      if Relation.pending r <> 1 then false
      else begin
        Relation.seal r;
        let after = codes_of (Relation.block r) in
        List.for_all
          (fun (key, codes) ->
            match List.assoc_opt key after with
            | None -> false
            | Some codes' -> codes = codes')
          before
      end)

(* Resealing a sealed instance only reads it: every block stays the very
   same value, which is what lets concurrent evaluations seal a shared
   registry instance. *)
let test_reseal_is_a_read () =
  let db = sample_db () in
  Instance.seal db;
  let blocks () =
    List.map (fun (pred, _) -> Relation.block (rel db pred)) (Instance.predicates db)
  in
  let before = blocks () in
  Alcotest.(check bool) "every block holds its relation" true
    (List.for_all (fun (pred, _) -> Relation.pending (rel db pred) = 0) (Instance.predicates db));
  Instance.seal db;
  Alcotest.(check bool) "every block physically equal" true
    (List.for_all2 (fun b a -> b == a) before (blocks ()))

(* A block is its columns: adopting coded columns builds no index, the
   first probe of a column builds that column's index alone, and a seal
   that extends the block carries forward only the built ones — which
   still answer probes over the appended rows, in ascending row order. *)
let test_adopted_block_indexes_probed_columns () =
  let code s = Value.code (vc s) in
  let cols =
    [|
      [| code "a"; code "b"; code "a"; code "c" |];
      [| code "x"; code "x"; code "y"; code "x" |];
      [| code "p"; code "q"; code "r"; code "s" |];
    |]
  in
  (match Columnar.of_columns ~arity:3 ~nrows:3 cols with
  | Ok _ -> Alcotest.fail "adopted columns of the wrong length"
  | Error _ -> ());
  let block = Result.get_ok (Columnar.of_columns ~arity:3 ~nrows:4 cols) in
  let indexed b = List.init 3 (fun col -> Columnar.indexed b ~col) in
  Alcotest.(check (list bool)) "adopted: no index" [ false; false; false ] (indexed block);
  let probe b col s =
    let rows, start, len = Columnar.probe b ~col (code s) in
    Array.to_list (Array.sub rows start len)
  in
  Alcotest.(check (list int)) "probe column 1" [ 0; 1; 3 ] (probe block 1 "x");
  Alcotest.(check (list bool)) "only column 1 indexed" [ false; true; false ] (indexed block);
  let r = Relation.of_columnar block in
  ignore (Relation.insert r [| vc "a"; vc "x"; vc "t" |]);
  Relation.seal r;
  let grown = Relation.block r in
  Alcotest.(check (list bool)) "extend keeps only built indexes" [ false; true; false ]
    (indexed grown);
  Alcotest.(check (list int)) "the extended index sees the new row" [ 0; 1; 3; 4 ]
    (probe grown 1 "x");
  Alcotest.(check (list int)) "a fresh index over the extended block" [ 0; 2; 4 ]
    (probe grown 0 "a");
  Alcotest.(check (list bool)) "the old block is untouched" [ false; true; false ] (indexed block)

(* The compiler reads a relation's pending tail after its block, up to
   the tail's length at compile time: a row inserted since the seal is
   found, through a scan and through the tail's index, and a row inserted
   after the compile is not. *)
let test_compile_reads_pending_tail () =
  let db = sample_db () in
  Instance.seal db;
  let edge = Symbol.intern "edge" in
  ignore (Instance.add_fact db edge [| vc "z"; vc "a" |]);
  let answers plan =
    let acc = ref [] in
    Col_eval.iter plan (fun codes -> acc := Array.map Value.decode codes :: !acc);
    List.sort Tuple.compare !acc
  in
  let scan = Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom "edge" [ v "X"; v "Y" ] ] in
  let probe = Cq.make ~name:"q" ~answer:[ v "Y" ] ~body:[ atom "edge" [ c "z"; v "Y" ] ] in
  let scan_plan = Col_eval.compile db scan and probe_plan = Col_eval.compile db probe in
  ignore (Instance.add_fact db edge [| vc "z"; vc "b" |]);
  Alcotest.(check bool) "a scan reads the tail" true
    (List.exists (fun t -> Tuple.equal t [| vc "z" |]) (answers scan_plan));
  Alcotest.(check (list string)) "a probe reads the tail up to its compile-time length" [ "(a)" ]
    (List.map (Format.asprintf "%a" Tuple.pp) (answers probe_plan));
  Alcotest.(check int) "a new compile sees the later row" 2
    (List.length (answers (Col_eval.compile db probe)));
  Instance.seal db;
  Alcotest.(check int) "and so does one after the seal" 2
    (List.length (answers (Col_eval.compile db probe)))

let () =
  Alcotest.run "db"
    [
      ( "value",
        [
          Alcotest.test_case "nulls" `Quick test_value_nulls;
          Alcotest.test_case "of_term" `Quick test_value_of_term;
          Alcotest.test_case "code range" `Quick test_value_code_range;
        ] );
      ( "relation",
        [
          Alcotest.test_case "insert" `Quick test_relation_insert;
          Alcotest.test_case "lookup" `Quick test_relation_lookup;
          Alcotest.test_case "index maintenance" `Quick test_relation_index_maintained;
          Alcotest.test_case "copy chain merges tails" `Quick test_relation_copy_chain;
          Alcotest.test_case "insert of an uncodable value changes nothing" `Quick
            test_insert_uncodable;
        ] );
      ( "instance",
        [
          Alcotest.test_case "basics" `Quick test_instance_basics;
          Alcotest.test_case "copy isolation" `Quick test_instance_copy_isolated;
          Alcotest.test_case "copy keeps iteration order" `Quick test_instance_copy_keeps_order;
          Alcotest.test_case "copy-on-write per relation" `Quick test_instance_copy_on_write;
          Alcotest.test_case "of_atoms" `Quick test_instance_of_atoms;
        ] );
      ( "eval",
        [
          Alcotest.test_case "single atom" `Quick test_eval_single_atom;
          Alcotest.test_case "join" `Quick test_eval_join;
          Alcotest.test_case "constant selection" `Quick test_eval_constant_selection;
          Alcotest.test_case "repeated variable" `Quick test_eval_repeated_var;
          Alcotest.test_case "boolean queries" `Quick test_eval_boolean;
          Alcotest.test_case "missing predicate" `Quick test_eval_missing_predicate;
          Alcotest.test_case "cross product" `Quick test_eval_cross_product;
          Alcotest.test_case "isolated atoms last" `Quick test_eval_planner_sinks_isolated_atoms;
          Alcotest.test_case "constant answer" `Quick test_eval_constant_answer;
          Alcotest.test_case "ucq union dedup" `Quick test_eval_ucq_union_dedup;
          Alcotest.test_case "forced bindings" `Quick test_eval_forced;
        ] );
      ( "datalog",
        [
          Alcotest.test_case "transitive closure" `Quick test_datalog_transitive_closure;
          Alcotest.test_case "idempotent" `Quick test_datalog_idempotent;
          Alcotest.test_case "head constants" `Quick test_datalog_constants_in_head;
        ] );
      ( "csv",
        [
          Alcotest.test_case "load basic" `Quick test_csv_load;
          Alcotest.test_case "quoting" `Quick test_csv_quoting;
          Alcotest.test_case "errors" `Quick test_csv_errors;
          Alcotest.test_case "round trip" `Quick test_csv_roundtrip;
          Alcotest.test_case "round trip (hostile fields)" `Quick test_csv_roundtrip_hostile;
          Alcotest.test_case "empty relations" `Quick test_csv_empty_relation;
          Alcotest.test_case "multiline quoted field" `Quick test_csv_multiline_quoted;
        ] );
      ( "plan",
        [
          Alcotest.test_case "constants first" `Quick test_plan_orders_constants_first;
          Alcotest.test_case "scan when unbound" `Quick test_plan_scan_when_unbound;
          Alcotest.test_case "explain" `Quick test_plan_explain_nonempty;
          Alcotest.test_case "forced atom first" `Quick test_plan_forced_first;
          Alcotest.test_case "init variables are bound" `Quick test_plan_init_bound;
          Alcotest.test_case "repeated variable binds then checks" `Quick
            test_plan_repeated_variable;
          Alcotest.test_case "isolated atom last" `Quick test_plan_isolated_last;
          Alcotest.test_case "checks before binds" `Quick test_plan_checks_before_binds;
        ] );
      ( "sql",
        [
          Alcotest.test_case "shape" `Quick test_sql_shape;
          Alcotest.test_case "boolean" `Quick test_sql_boolean;
          Alcotest.test_case "union" `Quick test_sql_union;
          Alcotest.test_case "quoting" `Quick test_sql_quote;
          Alcotest.test_case "repeated var" `Quick test_sql_repeated_var_same_atom;
        ] );
      ( "columnar",
        Alcotest.test_case "round trip with nulls and probes" `Quick
          test_columnar_roundtrip_basic
        :: Alcotest.test_case "reseal is a read" `Quick test_reseal_is_a_read
        :: Alcotest.test_case "an adopted block indexes only probed columns" `Quick
             test_adopted_block_indexes_probed_columns
        :: Alcotest.test_case "compile reads a pending tail" `Quick test_compile_reads_pending_tail
        :: List.map QCheck_alcotest.to_alcotest
             [
               prop_columnar_roundtrip;
               prop_columnar_codes_stable_under_reseal;
               prop_sort_rows_is_tuple_order;
             ] );
    ]
