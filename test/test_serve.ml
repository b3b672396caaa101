(* The serving subsystem: canonical CQ forms, the prepared-query LRU,
   domain-safe telemetry, and the server brain (warm-cache behavior, epoch
   invalidation, concurrent execution), the serving loop over an adopted
   stdin/stdout-style stream, plus an end-to-end JSONL smoke of the real
   `obda serve` binary. *)

open Tgd_logic
module Json = Tgd_serve.Json
module Canon = Tgd_serve.Canon
module Prepared = Tgd_serve.Prepared
module Protocol = Tgd_serve.Protocol
module Server = Tgd_serve.Server
module Net = Tgd_serve.Net
module Telemetry = Tgd_exec.Telemetry

let v = Term.var
let c = Term.const

(* ------------------------------------------------------------------ *)
(* JSON codec *)

let test_json_roundtrip () =
  let src = {|{"a":[1,-2.5,"xé\n",true,null],"b":{"c":"","d":[[]]}}|} in
  match Json.parse src with
  | Error msg -> Alcotest.fail ("parse failed: " ^ msg)
  | Ok j -> (
    let printed = Json.to_string j in
    Alcotest.(check bool) "no raw newline" false (String.contains printed '\n');
    match Json.parse printed with
    | Error msg -> Alcotest.fail ("reparse failed: " ^ msg)
    | Ok j2 -> Alcotest.(check string) "print is stable" printed (Json.to_string j2))

let test_json_errors () =
  let bad = [ "{"; "[1,]"; "{\"a\":}"; "1 2"; "\"unterminated"; "nul" ] in
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted malformed %S" s)
      | Error _ -> ())
    bad

(* Generated trees: every float is a quarter of a small integer, so the
   12-digit rendering is exact; strings mix ASCII, the characters the
   printer escapes, control bytes and multi-byte UTF-8. *)
let gen_json_string =
  QCheck.Gen.(
    map String.concat (return "")
    <*> list_size (int_bound 6)
          (oneof
             [
               map (String.make 1) (char_range 'a' 'z');
               oneofl [ "\""; "\\"; "/"; "\n"; "\r"; "\t"; "\b"; "\012"; "\001"; "\031"; " " ];
               oneofl [ "\xc3\xa9"; "\xe6\x97\xa5\xe6\x9c\xac"; "\xf0\x9f\x90\xab"; "\xce\xbb" ];
             ]))

let gen_json =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun i -> Json.Int i) int;
                 map (fun i -> Json.Float (float_of_int i /. 4.)) (int_range (-1_000_000) 1_000_000);
                 map (fun s -> Json.String s) gen_json_string;
               ]
           in
           if n <= 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (n / 2))));
                 ( 1,
                   map (fun l -> Json.Obj l)
                     (list_size (int_bound 4) (pair gen_json_string (self (n / 2)))) );
               ]))

let arb_json = QCheck.make ~print:Json.to_string gen_json

let prop_json_roundtrip =
  QCheck.Test.make ~name:"parse inverts print" ~count:500 arb_json (fun j ->
      Json.parse (Json.to_string j) = Ok j)

(* A document is an array or an object: no strict prefix of one parses. *)
let prop_json_prefixes =
  QCheck.Test.make ~name:"every strict prefix of a document is rejected" ~count:200
    (QCheck.make ~print:Json.to_string
       QCheck.Gen.(map (fun j -> Json.List [ j ]) gen_json))
    (fun j ->
      let s = Json.to_string j in
      List.for_all
        (fun k -> Result.is_error (Json.parse (String.sub s 0 k)))
        (List.init (String.length s) Fun.id)
      && List.for_all (fun tail -> Result.is_error (Json.parse (s ^ tail))) [ "]"; ","; "x"; "{}" ])

(* 64 nested arrays or objects parse; one more is a typed error, and so is
   a line a hundred thousand levels deep — no stack overflow. *)
let test_json_nesting_bound () =
  let nest depth (opener, closer) =
    String.concat "" (List.init depth (fun _ -> opener))
    ^ "0"
    ^ String.concat "" (List.init depth (fun _ -> closer))
  in
  List.iter
    (fun brackets ->
      let label = fst brackets in
      Alcotest.(check bool) (label ^ " at the bound parses") true (Result.is_ok (Json.parse (nest 64 brackets)));
      List.iter
        (fun depth ->
          match Json.parse (nest depth brackets) with
          | Ok _ -> Alcotest.failf "%s nested %d deep parsed" label depth
          | Error msg ->
            Alcotest.(check bool) (label ^ ": names the bound") true
              (String.ends_with ~suffix:"nesting deeper than 64" msg))
        [ 65; 100_000 ])
    [ ("[", "]"); ({|{"k":|}, "}") ];
  (* A mix of both kinds counts every level. *)
  let mixed depth =
    String.concat "" (List.init depth (fun i -> if i mod 2 = 0 then "[" else {|{"k":|}))
    ^ "0"
    ^ String.concat "" (List.init depth (fun i -> if (depth - 1 - i) mod 2 = 0 then "]" else "}"))
  in
  Alcotest.(check bool) "mixed at the bound parses" true (Result.is_ok (Json.parse (mixed 64)));
  Alcotest.(check bool) "mixed past the bound fails" true (Result.is_error (Json.parse (mixed 65)))

(* ------------------------------------------------------------------ *)
(* Canonical forms: deterministic cases *)

let canon_key cq = (Canon.of_cq cq).Canon.key

let test_canon_alpha_equal () =
  let q1 =
    Cq.make ~name:"q" ~answer:[ v "X" ]
      ~body:[ Atom.of_strings "p" [ v "X"; v "Y" ]; Atom.of_strings "p" [ v "Y"; v "Z" ] ]
  in
  let q2 =
    Cq.make ~name:"other" ~answer:[ v "A" ]
      ~body:[ Atom.of_strings "p" [ v "B"; v "C" ]; Atom.of_strings "p" [ v "A"; v "B" ] ]
  in
  Alcotest.(check string) "renamed + reordered same key" (canon_key q1) (canon_key q2);
  Alcotest.(check bool) "exact" true (Canon.of_cq q1).Canon.exact

let test_canon_distinguishes () =
  let p x y = Atom.of_strings "p" [ x; y ] in
  let q_xy = Cq.make ~name:"q" ~answer:[ v "X"; v "Y" ] ~body:[ p (v "X") (v "Y") ] in
  let q_yx = Cq.make ~name:"q" ~answer:[ v "X"; v "Y" ] ~body:[ p (v "Y") (v "X") ] in
  Alcotest.(check bool) "answer order matters" false (canon_key q_xy = canon_key q_yx);
  let q_const = Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ p (v "X") (c "c3") ] in
  let q_var = Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ p (v "X") (v "Y") ] in
  Alcotest.(check bool) "constants are not variables" false (canon_key q_const = canon_key q_var)

(* ------------------------------------------------------------------ *)
(* Canonical forms: properties. The generator keeps the variable pool at
   five, well under {!Canon.max_exact_existentials}, so the exhaustive
   labeling always applies and invariance is guaranteed, not best-effort. *)

let signature = [ ("p", 2); ("q", 1); ("r", 3) ]
let gen_pred = QCheck.Gen.oneofl signature
let gen_var = QCheck.Gen.map (fun i -> v (Printf.sprintf "X%d" i)) (QCheck.Gen.int_bound 4)
let gen_const = QCheck.Gen.map (fun i -> c (Printf.sprintf "c%d" i)) (QCheck.Gen.int_bound 3)
let gen_term = QCheck.Gen.frequency [ (3, gen_var); (1, gen_const) ]

let gen_atom =
  QCheck.Gen.(
    gen_pred >>= fun (name, arity) ->
    list_repeat arity gen_term >>= fun args -> return (Atom.of_strings name args))

let gen_cq =
  QCheck.Gen.(
    int_range 1 4 >>= fun n ->
    list_repeat n gen_atom >>= fun body ->
    let vars =
      Symbol.Set.elements
        (List.fold_left (fun acc a -> Symbol.Set.union acc (Atom.vars a)) Symbol.Set.empty body)
    in
    (if vars = [] then return []
     else
       int_bound (min 2 (List.length vars - 1)) >>= fun k ->
       return (List.filteri (fun i _ -> i <= k) vars))
    >>= fun answer_vars ->
    return (Cq.make ~name:"q" ~answer:(List.map (fun x -> Term.Var x) answer_vars) ~body))

let arb_cq_seeded =
  QCheck.make
    ~print:(fun (cq, seed) -> Printf.sprintf "%s [seed %d]" (Cq.to_string cq) seed)
    QCheck.Gen.(pair gen_cq (int_bound 1_000_000))

(* An injective renaming to fresh variable names plus a seed-driven shuffle
   of the body: the canonical key must not move. *)
let scramble seed cq =
  let rng = Random.State.make [| seed |] in
  let vars =
    Symbol.Set.elements
      (List.fold_left (fun acc a -> Symbol.Set.union acc (Atom.vars a)) Symbol.Set.empty
         cq.Cq.body)
  in
  let renaming =
    Subst.of_list
      (List.mapi
         (fun i x -> (x, v (Printf.sprintf "Z%d_%d" (Random.State.int rng 1000) i)))
         vars)
  in
  let body =
    List.map (fun a -> (Random.State.bits rng, Subst.apply_atom renaming a)) cq.Cq.body
    |> List.sort compare |> List.map snd
  in
  Cq.make ~name:"scrambled" ~answer:(Subst.apply_terms renaming cq.Cq.answer) ~body

let prop_canon_invariant =
  QCheck.Test.make ~name:"canon key invariant under renaming + reordering" ~count:400
    arb_cq_seeded (fun (cq, seed) ->
      let cq' = scramble seed cq in
      canon_key cq = canon_key cq')

let prop_canon_equivalent =
  QCheck.Test.make ~name:"canonical form is homomorphically equivalent to the query" ~count:400
    arb_cq_seeded (fun (cq, seed) ->
      let canon = Canon.of_cq cq in
      Containment.equivalent cq canon.Canon.cq
      && Containment.equivalent cq (scramble seed cq))

let prop_canon_collision_sound =
  QCheck.Test.make ~name:"equal keys imply containment-equivalent queries" ~count:600
    (QCheck.make
       ~print:(fun (a, b) -> Cq.to_string a ^ " vs " ^ Cq.to_string b)
       QCheck.Gen.(pair gen_cq gen_cq))
    (fun (cq1, cq2) ->
      List.length cq1.Cq.answer <> List.length cq2.Cq.answer
      || canon_key cq1 <> canon_key cq2
      || Containment.equivalent cq1 cq2)

(* ------------------------------------------------------------------ *)
(* Telemetry under domains: counters must be exact, not approximate. *)

let test_telemetry_domain_stress () =
  let t = Telemetry.create () in
  let per_domain = 100_000 in
  let domains =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              ignore (Telemetry.add t "stress.count" 1);
              Telemetry.gauge t "stress.peak" ((d * per_domain) + i)
            done))
  in
  Array.iter Domain.join domains;
  Alcotest.(check int) "exact total over 4 domains" (4 * per_domain)
    (Telemetry.get t "stress.count");
  Alcotest.(check int) "exact peak" (4 * per_domain) (Telemetry.peak t "stress.peak")

let test_telemetry_merge () =
  let a = Telemetry.create () and b = Telemetry.create () in
  ignore (Telemetry.add a "x" 3);
  Telemetry.gauge a "g" 7;
  ignore (Telemetry.add b "x" 4);
  ignore (Telemetry.add b "y" 1);
  Telemetry.gauge b "g" 5;
  Telemetry.add_span b "phase" 0.25;
  Telemetry.merge_into ~into:a b;
  Alcotest.(check int) "summed counter" 7 (Telemetry.get a "x");
  Alcotest.(check int) "new counter" 1 (Telemetry.get a "y");
  Alcotest.(check int) "peak is max" 7 (Telemetry.peak a "g");
  Alcotest.(check bool) "phase carried" true (List.mem_assoc "phase" (Telemetry.phases a))

(* ------------------------------------------------------------------ *)
(* Prepared-query LRU *)

let mk_entry tel_ignored ~ontology ~epoch pred =
  ignore tel_ignored;
  let cq = Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ Atom.of_strings pred [ v "X" ] ] in
  let canon = Canon.of_cq cq in
  {
    Prepared.ontology;
    epoch;
    canon;
    artifact = Tgd_obda.Target.Ucq_rewriting (Tgd_rewrite.Rewrite.ucq (Program.make_exn []) canon.Canon.cq);
    prepare_s = 0.0;
  }

let test_prepared_lru () =
  let tel = Telemetry.create () in
  let cache = Prepared.create ~capacity:2 ~telemetry:tel () in
  let e1 = mk_entry tel ~ontology:"o" ~epoch:1 "p1"
  and e2 = mk_entry tel ~ontology:"o" ~epoch:1 "p2"
  and e3 = mk_entry tel ~ontology:"o" ~epoch:1 "p3" in
  Prepared.add cache e1;
  Prepared.add cache e2;
  (* touch e1 so that e2 is the LRU victim *)
  Alcotest.(check bool) "e1 hit" true
    (Prepared.find cache ~ontology:"o" ~epoch:1 ~canon:e1.Prepared.canon <> None);
  Prepared.add cache e3;
  Alcotest.(check int) "capacity held" 2 (Prepared.length cache);
  Alcotest.(check bool) "LRU victim evicted" true
    (Prepared.find cache ~ontology:"o" ~epoch:1 ~canon:e2.Prepared.canon = None);
  Alcotest.(check bool) "recent survivor" true
    (Prepared.find cache ~ontology:"o" ~epoch:1 ~canon:e1.Prepared.canon <> None);
  Alcotest.(check bool) "new entry present" true
    (Prepared.find cache ~ontology:"o" ~epoch:1 ~canon:e3.Prepared.canon <> None);
  Alcotest.(check int) "evictions" 1 (Telemetry.get tel "serve.cache.evictions");
  Alcotest.(check int) "hits" 3 (Telemetry.get tel "serve.cache.hits");
  Alcotest.(check int) "misses" 1 (Telemetry.get tel "serve.cache.misses")

let test_prepared_purge () =
  let tel = Telemetry.create () in
  let cache = Prepared.create ~capacity:8 ~telemetry:tel () in
  Prepared.add cache (mk_entry tel ~ontology:"o" ~epoch:1 "p1");
  Prepared.add cache (mk_entry tel ~ontology:"o" ~epoch:2 "p1");
  Prepared.add cache (mk_entry tel ~ontology:"other" ~epoch:1 "p1");
  Alcotest.(check int) "one stale entry dropped" 1 (Prepared.purge cache ~ontology:"o" ~keep_epoch:2);
  Alcotest.(check int) "others kept" 2 (Prepared.length cache);
  Alcotest.(check int) "purges are not evictions" 0 (Telemetry.get tel "serve.cache.evictions")

(* ------------------------------------------------------------------ *)
(* Server brain: warm cache, epoch invalidation, concurrency *)

let uni_src = "professor(X) -> person(X). advises(X,Y) -> professor(X)."

let ok_fields = function
  | Ok fields -> fields
  | Error (kind, msg) -> Alcotest.fail (Printf.sprintf "request failed: %s: %s" kind msg)

let answers fields =
  match List.assoc_opt "answers" fields with
  | Some (Json.List rows) ->
    List.map
      (function
        | Json.List cells ->
          List.map (function Json.String s -> s | j -> Json.to_string j) cells
        | j -> [ Json.to_string j ])
      rows
    |> List.sort compare
  | _ -> Alcotest.fail "no answers field"

let bool_field name fields =
  match List.assoc_opt name fields with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.fail (Printf.sprintf "no boolean %S field" name)

let boot_server ?cache_capacity csv =
  let srv = Server.create ?cache_capacity () in
  ignore
    (ok_fields
       (Server.handle srv (Protocol.Register_ontology { name = "uni"; source = Protocol.Inline uni_src })));
  ignore
    (ok_fields (Server.handle srv (Protocol.Load_csv { name = "uni"; source = Protocol.Inline csv })));
  srv

let execute srv query =
  ok_fields (Server.handle srv (Protocol.Execute { ontology = "uni"; query; budget = None; target = None }))

let test_server_warm_cache () =
  let srv = boot_server "professor,alice\nprofessor,bob" in
  let tel = Server.telemetry srv in
  let r1 = execute srv "q(X) :- person(X)." in
  Alcotest.(check bool) "first run is a miss" false (bool_field "cached" r1);
  Alcotest.(check int) "one miss" 1 (Telemetry.get tel "serve.cache.misses");
  let cqs_after_cold = Telemetry.get tel "rewrite.cqs" in
  Alcotest.(check bool) "cold run did rewrite" true (cqs_after_cold > 0);
  (* α-renamed resubmission: must hit the cache and skip rewriting. *)
  let r2 = execute srv "q(W) :- person(W)." in
  Alcotest.(check bool) "renamed rerun is cached" true (bool_field "cached" r2);
  Alcotest.(check int) "one hit" 1 (Telemetry.get tel "serve.cache.hits");
  Alcotest.(check int) "warm run skipped rewriting" cqs_after_cold (Telemetry.get tel "rewrite.cqs");
  Alcotest.(check (list (list string))) "same answers" (answers r1) (answers r2);
  Alcotest.(check (list (list string))) "ontology answers" [ [ "alice" ]; [ "bob" ] ] (answers r1)

(* A data-only mutation bumps the delta epoch but not the full epoch: the
   prepared rewriting survives (0 rewrites on the next execute), yet the
   answers come from the new instance — cached plans are never stale,
   because a rewriting depends on the TGDs alone. *)
let test_server_data_delta_keeps_cache_warm () =
  let srv = boot_server "professor,alice" in
  let tel = Server.telemetry srv in
  let r1 = execute srv "q(X) :- person(X)." in
  Alcotest.(check (list (list string))) "initial answers" [ [ "alice" ] ] (answers r1);
  Alcotest.(check int) "entry cached" 1 (Prepared.length (Server.cache srv));
  let cqs_after_cold = Telemetry.get tel "rewrite.cqs" in
  let batches_before = Telemetry.get tel "serve.delta.batches" in
  let mut =
    ok_fields
      (Server.handle srv
         (Protocol.Add_facts { name = "uni"; source = Protocol.Inline "advises,carol,dan" }))
  in
  (match List.assoc_opt "delta_epoch" mut with
  | Some (Json.Int d) -> Alcotest.(check bool) "delta epoch bumped" true (d > 1)
  | _ -> Alcotest.fail "add-facts response carries no delta_epoch");
  Alcotest.(check int) "prepared entry survives the data delta" 1
    (Prepared.length (Server.cache srv));
  let r2 = execute srv "q(Y) :- person(Y)." in
  Alcotest.(check bool) "post-delta run is a cache hit" true (bool_field "cached" r2);
  Alcotest.(check int) "0 rewrites after add-facts" cqs_after_cold
    (Telemetry.get tel "rewrite.cqs");
  Alcotest.(check (list (list string))) "no stale answers" [ [ "alice" ]; [ "carol" ] ] (answers r2);
  Alcotest.(check int) "delta batch counted" (batches_before + 1)
    (Telemetry.get tel "serve.delta.batches")

(* An ontology edit is a full-epoch bump: stale prepared entries are purged
   eagerly and the next execute re-prepares. *)
let test_server_ontology_edit_invalidates () =
  let srv = boot_server "professor,alice" in
  let r1 = execute srv "q(X) :- person(X)." in
  Alcotest.(check bool) "cold run is a miss" false (bool_field "cached" r1);
  let r2 = execute srv "q(W) :- person(W)." in
  Alcotest.(check bool) "resubmission hits" true (bool_field "cached" r2);
  ignore
    (ok_fields
       (Server.handle srv
          (Protocol.Register_ontology { name = "uni"; source = Protocol.Inline uni_src })));
  Alcotest.(check int) "stale entries purged on re-register" 0
    (Prepared.length (Server.cache srv));
  ignore
    (ok_fields
       (Server.handle srv
          (Protocol.Load_csv { name = "uni"; source = Protocol.Inline "professor,alice" })));
  let r3 = execute srv "q(X) :- person(X)." in
  Alcotest.(check bool) "post-edit run is a fresh preparation" false (bool_field "cached" r3);
  Alcotest.(check (list (list string))) "answers after the edit" [ [ "alice" ] ] (answers r3)

(* A materialization built by the materialize op stays alive across
   add-facts: the response reports the incremental statistics instead of a
   cold re-chase. *)
let test_server_materialize_delta () =
  let srv = boot_server "professor,alice" in
  let m = ok_fields (Server.handle srv (Protocol.Materialize { name = "uni" })) in
  Alcotest.(check bool) "chase completed" true (bool_field "chase_complete" m);
  (match List.assoc_opt "model_facts" m with
  | Some (Json.Int n) -> Alcotest.(check bool) "model holds the closure" true (n >= 2)
  | _ -> Alcotest.fail "materialize response carries no model_facts");
  let mut =
    ok_fields
      (Server.handle srv
         (Protocol.Add_facts { name = "uni"; source = Protocol.Inline "advises,carol,dan" }))
  in
  Alcotest.(check bool) "delta maintained the materialization" true
    (bool_field "materialized" mut);
  Alcotest.(check bool) "delta apply completed" true (bool_field "delta_complete" mut);
  (match List.assoc_opt "derived" mut with
  | Some (Json.Int d) ->
    (* advises(carol,dan) derives professor(carol) and person(carol). *)
    Alcotest.(check int) "derived facts" 2 d
  | _ -> Alcotest.fail "add-facts response carries no derived count");
  let tel = Server.telemetry srv in
  Alcotest.(check int) "derived counted under serve.delta.derived" 2
    (Telemetry.get tel "serve.delta.derived")

let test_server_concurrent_execute () =
  let srv = boot_server "professor,alice\nadvises,bob,carol" in
  let expected = [ [ "alice" ]; [ "bob" ] ] in
  let errors = Atomic.make 0 in
  let per_domain = 25 in
  let domains =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              let var = Printf.sprintf "V%d_%d" d i in
              let q = Printf.sprintf "q(%s) :- person(%s)." var var in
              match Server.handle srv (Protocol.Execute { ontology = "uni"; query = q; budget = None; target = None }) with
              | Ok fields when answers fields = expected -> ()
              | _ -> ignore (Atomic.fetch_and_add errors 1)
            done))
  in
  Array.iter Domain.join domains;
  let tel = Server.telemetry srv in
  Alcotest.(check int) "no corrupted responses" 0 (Atomic.get errors);
  Alcotest.(check int) "every request accounted" (4 * per_domain)
    (Telemetry.get tel "serve.requests");
  Alcotest.(check int) "every lookup accounted" (4 * per_domain)
    (Telemetry.get tel "serve.cache.hits" + Telemetry.get tel "serve.cache.misses")

(* No stale answers under concurrent load across BOTH bump kinds: after a
   data delta (add-facts) or an ontology edit (re-register), every execute
   from every domain must see exactly the current fact set — never a
   snapshot from before the mutation quiesced. *)
let test_server_no_stale_across_bumps () =
  let srv = boot_server "professor,p0" in
  let errors = Atomic.make 0 in
  let expected = ref [ [ "p0" ] ] in
  let verify_round round =
    let domains =
      Array.init 4 (fun d ->
          Domain.spawn (fun () ->
              for i = 1 to 5 do
                let var = Printf.sprintf "V%d_%d_%d" round d i in
                let q = Printf.sprintf "q(%s) :- person(%s)." var var in
                match
                  Server.handle srv
                    (Protocol.Execute { ontology = "uni"; query = q; budget = None; target = None })
                with
                | Ok fields when answers fields = !expected -> ()
                | _ -> ignore (Atomic.fetch_and_add errors 1)
              done))
    in
    Array.iter Domain.join domains
  in
  verify_round 0;
  (* Data-delta bumps. *)
  for i = 1 to 3 do
    ignore
      (ok_fields
         (Server.handle srv
            (Protocol.Add_facts
               { name = "uni"; source = Protocol.Inline (Printf.sprintf "professor,p%d" i) })));
    expected := List.sort compare (List.init (i + 1) (fun j -> [ Printf.sprintf "p%d" j ]));
    verify_round i
  done;
  (* A full bump mid-stream: re-register (which resets the instance) and
     reload the accumulated facts; answers must reflect the reload, not a
     prepared entry from the old epoch. *)
  ignore
    (ok_fields
       (Server.handle srv
          (Protocol.Register_ontology { name = "uni"; source = Protocol.Inline uni_src })));
  let csv = String.concat "\n" (List.init 4 (fun j -> Printf.sprintf "professor,p%d" j)) in
  ignore
    (ok_fields
       (Server.handle srv (Protocol.Load_csv { name = "uni"; source = Protocol.Inline csv })));
  verify_round 4;
  Alcotest.(check int) "no stale or corrupted responses" 0 (Atomic.get errors)

let test_server_errors () =
  let srv = Server.create () in
  (match Server.handle srv (Protocol.Execute { ontology = "ghost"; query = "q(X) :- p(X)."; budget = None; target = None }) with
  | Error ("unknown_ontology", _) -> ()
  | _ -> Alcotest.fail "expected unknown_ontology");
  ignore
    (ok_fields
       (Server.handle srv
          (Protocol.Register_ontology { name = "uni"; source = Protocol.Inline uni_src })));
  (match Server.handle srv (Protocol.Execute { ontology = "uni"; query = "not a query"; budget = None; target = None }) with
  | Error ("bad_request", _) -> ()
  | _ -> Alcotest.fail "expected bad_request on an unparsable query");
  match Protocol.parse {|{"id":42,"op":"execute","ontology":"uni"}|} with
  | Error (Json.Int 42, _) -> ()
  | _ -> Alcotest.fail "protocol error must carry the request id"

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec loop i = i + nn <= nh && (String.sub haystack i nn = needle || loop (i + 1)) in
  nn = 0 || loop 0

(* ------------------------------------------------------------------ *)
(* Data mutations in runs: arity checks, add_batches, WAL replay *)

module Registry = Tgd_serve.Registry

let entry_of reg name =
  match Registry.find reg name with
  | Some e -> e
  | None -> Alcotest.fail (Printf.sprintf "no entry %S" name)

(* A predicate used with a second arity is a bad request that names the
   predicate and both arities, and the batch changes nothing: not its
   valid facts, not the delta epoch. *)
let test_server_arity_mismatch () =
  let srv = boot_server "professor,ada" in
  let before = entry_of (Server.registry srv) "uni" in
  let expect_rejected source ~pred ~arities =
    match Server.handle srv (Protocol.Add_facts { name = "uni"; source = Protocol.Inline source }) with
    | Error ("bad_request", msg) ->
      List.iter
        (fun needle ->
          Alcotest.(check bool) (Printf.sprintf "%S names %s" msg needle) true (contains msg needle))
        (pred :: arities)
    | Error (kind, msg) -> Alcotest.failf "expected bad_request, got %s: %s" kind msg
    | Ok _ -> Alcotest.failf "%S was accepted" source
  in
  (* The instance fixes professor/1; the rules fix person/1. *)
  expect_rejected "professor,ada,bob" ~pred:"professor" ~arities:[ "1"; "2" ];
  expect_rejected "advises,carol,dan\nprofessor,ada,bob" ~pred:"professor" ~arities:[ "1"; "2" ];
  expect_rejected "person,ada,bob" ~pred:"person" ~arities:[ "1"; "2" ];
  let after = entry_of (Server.registry srv) "uni" in
  Alcotest.(check int) "delta epoch did not move" before.Registry.delta_epoch
    after.Registry.delta_epoch;
  Alcotest.(check int) "no fact of a rejected batch was added"
    (Tgd_db.Instance.cardinality before.Registry.instance)
    (Tgd_db.Instance.cardinality after.Registry.instance);
  Alcotest.(check (list (list string))) "answers unchanged" [ [ "ada" ] ]
    (answers (execute srv "q(X) :- person(X)."))

let show_instance inst = Format.asprintf "%a" Tgd_db.Instance.pp inst

(* Everything a data run must reproduce: epochs, instance and model facts
   with their null labels, the null floor and completeness. *)
let check_same_entry what (a : Registry.entry) (b : Registry.entry) =
  Alcotest.(check int) (what ^ ": epoch") a.Registry.epoch b.Registry.epoch;
  Alcotest.(check int) (what ^ ": delta epoch") a.Registry.delta_epoch b.Registry.delta_epoch;
  Alcotest.(check string) (what ^ ": instance facts") (show_instance a.Registry.instance)
    (show_instance b.Registry.instance);
  match a.Registry.materialization, b.Registry.materialization with
  | None, None -> ()
  | Some ma, Some mb ->
    Alcotest.(check string) (what ^ ": model facts") (show_instance ma.Registry.model)
      (show_instance mb.Registry.model);
    Alcotest.(check int) (what ^ ": floor") ma.Registry.floor mb.Registry.floor;
    Alcotest.(check bool) (what ^ ": complete") ma.Registry.complete mb.Registry.complete
  | Some _, None | None, Some _ -> Alcotest.failf "%s: materialization differs" what

(* Three new students per batch. Some have no member_of, so the chase
   invents a null for them; some batches give a member_of to a student of
   the previous batch, which earlier batches already chased. *)
let student_batch i =
  let fact p args = (Symbol.intern p, Array.of_list (List.map Tgd_db.Value.const args)) in
  let student i j = Printf.sprintf "new%d_%d" i j in
  List.concat_map
    (fun j ->
      let s = student i j and k = (3 * i) + j in
      [
        fact (if k mod 3 = 0 then "graduate" else "undergraduate") [ s ];
        fact "takes_course" [ s; Printf.sprintf "course%d" (k mod 60) ];
        fact "advisor" [ s; Printf.sprintf "fac%d" (k mod 40) ];
      ]
      @ if k mod 4 = 0 then [ fact "member_of" [ s; "dept1" ] ] else [])
    [ 0; 1; 2 ]
  @ if i > 0 && i mod 2 = 0 then [ fact "member_of" [ student (i - 1) 1; "dept2" ] ] else []

let materialized_university () =
  let reg = Registry.create () in
  let facts = Tgd_gen.University.generate_data (Tgd_gen.Rng.create 20140614) ~scale:200 in
  ignore (Registry.register reg ~name:"uni" ~facts Tgd_gen.University.ontology);
  (match Registry.materialize reg ~name:"uni" with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  reg

let ok_mutation = function
  | Ok (m : Registry.mutation) -> m
  | Error msg -> Alcotest.fail ("batch failed: " ^ msg)

let test_add_batches_equals_one_by_one () =
  let batches = List.init 30 student_batch in
  let fused = materialized_university () and split = materialized_university () in
  let floor0 =
    match (entry_of fused "uni").Registry.materialization with
    | Some m -> m.Registry.floor
    | None -> Alcotest.fail "not materialized"
  in
  let run = Registry.add_batches fused ~name:"uni" (List.map (fun b -> ((fun () -> None), b)) batches) in
  let one_by_one =
    List.map (fun b -> ok_mutation (List.hd (Registry.add_batches split ~name:"uni" [ ((fun () -> None), b) ]))) batches
  in
  Alcotest.(check int) "one result per batch" 30 (List.length run);
  List.iter2
    (fun r (m : Registry.mutation) ->
      let r = ok_mutation r in
      Alcotest.(check int) "added" m.Registry.added r.Registry.added;
      match r.Registry.delta, m.Registry.delta with
      | Some d1, Some d2 ->
        Alcotest.(check int) "derived" d2.Tgd_chase.Chase.derived d1.Tgd_chase.Chase.derived;
        Alcotest.(check int) "nulls" d2.Tgd_chase.Chase.nulls d1.Tgd_chase.Chase.nulls
      | _ -> Alcotest.fail "no batch-chase statistics")
    run one_by_one;
  let a = entry_of fused "uni" and b = entry_of split "uni" in
  check_same_entry "30 batches in one call" a b;
  Alcotest.(check int) "one delta epoch per batch" 31 a.Registry.delta_epoch;
  match a.Registry.materialization with
  | Some m -> Alcotest.(check bool) "the batches invented nulls" true (m.Registry.floor > floor0)
  | None -> Alcotest.fail "materialization lost"

(* Twelve facts: four new students, each an undergraduate taking a course
   under an advisor. *)
let twelve_facts tag =
  let fact p args = (Symbol.intern p, Array.of_list (List.map Tgd_db.Value.const args)) in
  List.concat_map
    (fun j ->
      let s = Printf.sprintf "%s_student%d" tag j in
      [
        fact "undergraduate" [ s ];
        fact "takes_course" [ s; Printf.sprintf "course%d" j ];
        fact "advisor" [ s; Printf.sprintf "fac%d" j ];
      ])
    [ 0; 1; 2; 3 ]

let add_one reg batch =
  ok_mutation (List.hd (Registry.add_batches reg ~name:"uni" [ ((fun () -> None), batch) ]))

let model_of (e : Registry.entry) =
  match e.Registry.materialization with
  | Some m -> m.Registry.model
  | None -> Alcotest.fail "not materialized"

(* A write pays only for what it touches: after one 12-fact batch, every
   relation the batch left alone is the very same relation (physically
   equal) in the old and the new entry — in the instance and in the
   model. *)
let test_write_shares_untouched_relations () =
  let reg = materialized_university () in
  let before = entry_of reg "uni" in
  let batch = twelve_facts "cow" in
  Alcotest.(check int) "twelve facts" 12 (List.length batch);
  ignore (add_one reg batch);
  let after = entry_of reg "uni" in
  let check_sharing what old_inst new_inst =
    let touched = ref 0 in
    List.iter
      (fun (pred, _) ->
        let old_rel = Tgd_db.Instance.relation old_inst pred
        and new_rel = Option.get (Tgd_db.Instance.relation new_inst pred) in
        match old_rel with
        | Some old_rel when Tgd_db.Relation.cardinality old_rel = Tgd_db.Relation.cardinality new_rel ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: untouched %s is shared" what (Symbol.name pred))
            true (old_rel == new_rel)
        | Some _ | None -> incr touched)
      (Tgd_db.Instance.predicates new_inst);
    !touched
  in
  Alcotest.(check int) "the batch touches three instance relations" 3
    (check_sharing "instance" before.Registry.instance after.Registry.instance);
  let touched = check_sharing "model" (model_of before) (model_of after) in
  Alcotest.(check bool) "the chase touches some model relations" true (touched >= 3)

(* Two domains answer Datalog rewritings on one entry restored from a
   snapshot: its relations are shared, adopted from blocks with the boxed
   rows and the indexes still unbuilt, so the domains race to build them.
   They start together, and every round restores afresh and must give the
   sequential answers. *)
let test_concurrent_datalog_on_restored_entry () =
  let program = Tgd_gen.University.ontology in
  let reg = Registry.create () in
  let e =
    Registry.register reg ~name:"uni"
      ~facts:(Tgd_gen.University.generate_data (Tgd_gen.Rng.create 7) ~scale:2000)
      program
  in
  let image =
    Tgd_store.Snapshot.encode
      {
        Tgd_store.Snapshot.epoch = e.Registry.epoch;
        delta_epoch = e.Registry.delta_epoch;
        program_src = "";
        instance = e.Registry.instance;
        materialization = None;
      }
  in
  let restored () =
    match Tgd_store.Snapshot.decode image with
    | Error msg -> Alcotest.fail msg
    | Ok snap ->
      (Registry.restore (Registry.create ()) ~name:"uni" ~epoch:1 ~delta_epoch:1 program
         snap.Tgd_store.Snapshot.instance)
        .Registry.instance
  in
  let artifacts =
    List.map
      (fun q ->
        Tgd_obda.Target.prepare
          ~gov:(fun () -> Tgd_exec.Governor.unlimited ())
          Tgd_obda.Target.Datalog program q)
      Tgd_gen.University.queries
  in
  let answer_all inst = List.map (fun a -> Tgd_obda.Target.answers a inst) artifacts in
  let sequential = answer_all (restored ()) in
  Alcotest.(check bool) "some query has answers" true (List.exists (fun a -> a <> []) sequential);
  let relations =
    let inst = restored () in
    List.map
      (fun (pred, _) ->
        (pred, Tgd_db.Relation.to_list (Option.get (Tgd_db.Instance.relation inst pred))))
      (Tgd_db.Instance.predicates inst)
  in
  (* Membership of every row, the domains walking the relations in
     opposite orders so that they meet on one unbuilt row set. *)
  let rows_found inst order =
    List.for_all
      (fun (pred, rows) ->
        let rel = Option.get (Tgd_db.Instance.relation inst pred) in
        List.for_all (Tgd_db.Relation.mem rel) rows)
      order
  in
  for round = 1 to 4 do
    let inst = restored () in
    let ready = Atomic.make 0 in
    let run order () =
      Atomic.incr ready;
      while Atomic.get ready < 2 do
        Domain.cpu_relax ()
      done;
      if rows_found inst order then answer_all inst else []
    in
    let domains = [ Domain.spawn (run relations); Domain.spawn (run (List.rev relations)) ] in
    List.iteri
      (fun d dom ->
        Alcotest.(check bool)
          (Printf.sprintf "round %d, domain %d: sequential answers" round d)
          true
          (Domain.join dom = sequential))
      domains
  done

(* A checkpoint image does not depend on whether the model was sealed:
   after k batches the model holds stale blocks with pending tails, and
   its image equals the image of the same entry whose model was sealed,
   on a copy, before encoding. *)
let test_image_of_unsealed_model () =
  let reg = materialized_university () in
  for k = 1 to 4 do
    ignore (add_one reg (twelve_facts (Printf.sprintf "img%d" k)))
  done;
  let e = entry_of reg "uni" in
  let m = Option.get e.Registry.materialization in
  let stale =
    List.exists
      (fun (pred, _) ->
        Tgd_db.Relation.pending (Option.get (Tgd_db.Instance.relation m.Registry.model pred)) > 0)
      (Tgd_db.Instance.predicates m.Registry.model)
  in
  Alcotest.(check bool) "the model has pending tails" true stale;
  let image model =
    Tgd_store.Snapshot.encode
      {
        Tgd_store.Snapshot.epoch = e.Registry.epoch;
        delta_epoch = e.Registry.delta_epoch;
        program_src = "";
        instance = e.Registry.instance;
        materialization = Some { m with Registry.model };
      }
  in
  let unsealed = image m.Registry.model in
  let sealed_model = Tgd_db.Instance.copy m.Registry.model in
  Tgd_db.Instance.seal sealed_model;
  Alcotest.(check bool) "images are byte-equal" true (String.equal unsealed (image sealed_model));
  Alcotest.(check bool) "encoding left the model unsealed" true
    (List.exists
       (fun (pred, _) ->
         Tgd_db.Relation.pending (Option.get (Tgd_db.Instance.relation m.Registry.model pred)) > 0)
       (Tgd_db.Instance.predicates m.Registry.model))

let blocks inst =
  List.filter_map
    (fun (pred, _) ->
      let block = Tgd_db.Relation.block (Option.get (Tgd_db.Instance.relation inst pred)) in
      if Tgd_db.Columnar.nrows block > 0 then Some block else None)
    (Tgd_db.Instance.predicates inst)

let index_built block =
  List.exists (fun col -> Tgd_db.Columnar.indexed block ~col) (List.init (Tgd_db.Columnar.arity block) Fun.id)

let image_of (e : Registry.entry) =
  Tgd_store.Snapshot.encode
    {
      Tgd_store.Snapshot.epoch = e.Registry.epoch;
      delta_epoch = e.Registry.delta_epoch;
      program_src = "";
      instance = e.Registry.instance;
      materialization = e.Registry.materialization;
    }

(* The chase runs compiled, so it indexes the model's blocks on the columns
   its joins and restricted checks probe. Nothing else probes a model:
   queries run on the instance and a checkpoint writes the model's
   columns. So across writes, queries on the instance and checkpoints,
   the queries index the instance while no query or checkpoint indexes a
   model block — on a materialized model and on one restored from an
   image. A model block that is also an instance block (a relation the
   chase never wrote is shared with the instance it was copied from) is
   the instance's to index. *)
let test_queries_build_no_model_index () =
  let program = Tgd_gen.University.ontology in
  let ucqs =
    List.map (fun q -> (Tgd_rewrite.Rewrite.ucq program q).Tgd_rewrite.Rewrite.ucq)
      Tgd_gen.University.queries
  in
  let indexed block = List.init (Tgd_db.Columnar.arity block) (fun col -> Tgd_db.Columnar.indexed block ~col) in
  let exercise reg tag =
    let instance_blocks = ref (blocks (entry_of reg "uni").Registry.instance) in
    let model_only e =
      instance_blocks := blocks e.Registry.instance @ !instance_blocks;
      List.filter (fun b -> not (List.memq b !instance_blocks)) (blocks (model_of e))
    in
    let image = ref "" in
    for k = 1 to 3 do
      ignore (add_one reg (twelve_facts (Printf.sprintf "%s%d" tag k)));
      let e = entry_of reg "uni" in
      let before = List.map (fun b -> (b, indexed b)) (model_only e) in
      Alcotest.(check bool) (tag ^ ": the model has blocks of its own") true (before <> []);
      List.iter (fun u -> ignore (Tgd_db.Par_eval.ucq ~workers:1 e.Registry.instance u)) ucqs;
      image := image_of e;
      Alcotest.(check bool) (tag ^ ": no query or checkpoint indexed a model block") true
        (List.for_all (fun (b, flags) -> indexed b = flags) before)
    done;
    Alcotest.(check bool) (tag ^ ": the queries indexed the instance") true
      (List.exists index_built (blocks (entry_of reg "uni").Registry.instance));
    !image
  in
  let reg = materialized_university () in
  let image = exercise reg "mat" in
  let snap = Result.get_ok (Tgd_store.Snapshot.decode image) in
  let restored = Registry.create () in
  let e =
    Registry.restore restored ~name:"uni" ~epoch:snap.Tgd_store.Snapshot.epoch
      ~delta_epoch:snap.Tgd_store.Snapshot.delta_epoch
      ?materialization:snap.Tgd_store.Snapshot.materialization program
      snap.Tgd_store.Snapshot.instance
  in
  Alcotest.(check bool) "restored: no index anywhere" false
    (List.exists index_built (blocks e.Registry.instance @ blocks (model_of e)));
  ignore (exercise restored "res")

(* Several domains evaluate UCQ rewritings with [Par_eval.ucq ~workers] on
   an instance fresh from an image, whose columns have no index yet: the
   domains race to build them, and every domain must get the sequential
   answers. *)
let test_parallel_eval_on_restored_entry () =
  let program = Tgd_gen.University.ontology in
  let reg = Registry.create () in
  let e =
    Registry.register reg ~name:"uni"
      ~facts:(Tgd_gen.University.generate_data (Tgd_gen.Rng.create 11) ~scale:1000)
      program
  in
  let image = image_of e in
  let restored () =
    let snap = Result.get_ok (Tgd_store.Snapshot.decode image) in
    (Registry.restore (Registry.create ()) ~name:"uni" ~epoch:1 ~delta_epoch:1 program
       snap.Tgd_store.Snapshot.instance)
      .Registry.instance
  in
  let ucqs =
    List.map (fun q -> (Tgd_rewrite.Rewrite.ucq program q).Tgd_rewrite.Rewrite.ucq)
      Tgd_gen.University.queries
  in
  let answer_all ~workers inst = List.map (Tgd_db.Par_eval.ucq ~workers ~min_tuples:16 inst) ucqs in
  let sequential = List.map (Tgd_conformance.Eval.ucq (restored ())) ucqs in
  Alcotest.(check bool) "some query has answers" true (List.exists (fun a -> a <> []) sequential);
  for round = 1 to 3 do
    let inst = restored () in
    let ready = Atomic.make 0 in
    let run order () =
      Atomic.incr ready;
      while Atomic.get ready < 3 do
        Domain.cpu_relax ()
      done;
      order (answer_all ~workers:2 inst)
    in
    let domains = [ Domain.spawn (run Fun.id); Domain.spawn (run Fun.id); Domain.spawn (run Fun.id) ] in
    List.iteri
      (fun d dom ->
        Alcotest.(check bool)
          (Printf.sprintf "round %d, domain %d: sequential answers" round d)
          true
          (Domain.join dom = sequential))
      domains
  done

let with_tmp_dir f =
  let dir = Filename.temp_dir "tgd_serve" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* A WAL tail mixing data runs with a materialize: recovery must land on
   the live server's exact state, count every record, and time its two
   phases. *)
let test_recover_mixed_tail () =
  with_tmp_dir @@ fun dir ->
  let with_server f =
    let store = Result.get_ok (Tgd_store.Store.open_dir ~fsync:false dir) in
    let srv = Server.create ~store () in
    Fun.protect ~finally:(fun () -> Server.shutdown srv) (fun () -> f srv)
  in
  let request srv r = ignore (ok_fields (Server.handle srv r)) in
  let add_facts srv csv =
    request srv (Protocol.Add_facts { name = "uni"; source = Protocol.Inline csv })
  in
  let live =
    with_server (fun srv ->
        request srv (Protocol.Register_ontology { name = "uni"; source = Protocol.Inline uni_src });
        add_facts srv "professor,ada";
        request srv (Protocol.Snapshot { name = Some "uni" });
        add_facts srv "advises,bob,carol";
        add_facts srv "professor,dan\nadvises,erin,ada";
        add_facts srv "advises,bob,frank";
        request srv (Protocol.Materialize { name = "uni" });
        add_facts srv "advises,gina,bob";
        add_facts srv "professor,hal\nadvises,ivan,hal";
        entry_of (Server.registry srv) "uni")
  in
  with_server (fun srv ->
      check_same_entry "recovered" live (entry_of (Server.registry srv) "uni");
      let tel = Server.telemetry srv in
      Alcotest.(check int) "replayed records" 6 (Telemetry.get tel "serve.store.replayed_records");
      Alcotest.(check int) "replay errors" 0 (Telemetry.get tel "serve.store.replay_errors");
      let phases =
        match List.assoc_opt "phases" (ok_fields (Server.handle srv Protocol.Stats)) with
        | Some (Json.Obj kv) -> List.map fst kv
        | _ -> Alcotest.fail "stats carries no phases object"
      in
      List.iter
        (fun span -> Alcotest.(check bool) (span ^ " in phases") true (List.mem span phases))
        [ "serve.store.restore"; "serve.store.replay" ])

(* Each replayed record's deadline runs from the start of its own batch.
   Every record closes a fresh 50-edge chain transitively. The deadline
   of the second recovery is a third of what the first one took to
   replay the whole tail: each of the 40 records fits in it about a dozen
   times over, but the run as a whole does not, so a governor made before
   its batch would stop that batch's chase and leave the model
   incomplete. *)
let test_recover_long_run_under_deadline () =
  with_tmp_dir @@ fun dir ->
  let with_server ?base_budget f =
    let store = Result.get_ok (Tgd_store.Store.open_dir ~fsync:false dir) in
    let srv = Server.create ?base_budget ~store () in
    Fun.protect ~finally:(fun () -> Server.shutdown srv) (fun () -> f srv)
  in
  let request srv r = ignore (ok_fields (Server.handle srv r)) in
  let records = 40 and chain = 50 in
  let chain_csv i =
    String.concat "\n"
      (List.init chain (fun j -> Printf.sprintf "e,c%d_%d,c%d_%d" i j i (j + 1)))
  in
  let live =
    with_server (fun srv ->
        request srv
          (Protocol.Register_ontology
             {
               name = "tc";
               source = Protocol.Inline "e(X,Y) -> t(X,Y). t(X,Y), e(Y,Z) -> t(X,Z).";
             });
        request srv (Protocol.Materialize { name = "tc" });
        for i = 1 to records do
          request srv (Protocol.Add_facts { name = "tc"; source = Protocol.Inline (chain_csv i) })
        done;
        entry_of (Server.registry srv) "tc")
  in
  (match live.Registry.materialization with
  | Some m -> Alcotest.(check bool) "live model complete" true m.Registry.complete
  | None -> Alcotest.fail "live entry not materialized");
  let replay_s =
    with_server (fun srv ->
        check_same_entry "recovered" live (entry_of (Server.registry srv) "tc");
        match List.assoc_opt "phases" (ok_fields (Server.handle srv Protocol.Stats)) with
        | Some (Json.Obj kv) -> (
          match List.assoc_opt "serve.store.replay" kv with
          | Some (Json.Float s) -> s
          | _ -> Alcotest.fail "no replay span")
        | _ -> Alcotest.fail "stats carries no phases object")
  in
  with_server ~base_budget:{ Tgd_exec.Budget.unlimited with deadline_s = Some (replay_s /. 3.0) }
    (fun srv ->
      Alcotest.(check int) "replayed records" (records + 2)
        (Telemetry.get (Server.telemetry srv) "serve.store.replayed_records");
      check_same_entry "recovered under a short deadline" live (entry_of (Server.registry srv) "tc"))

(* Records that fail inside a data run — a CSV that does not parse, a
   batch with a second arity — are counted and change nothing; the rest of
   the run still applies, one delta epoch each. *)
let test_recover_run_with_failures () =
  with_tmp_dir @@ fun dir ->
  let store = Result.get_ok (Tgd_store.Store.open_dir ~fsync:false dir) in
  List.iter
    (fun record -> ignore (Tgd_store.Store.log store ~name:"uni" record))
    Tgd_store.Wal.
      [
        Register { source = uni_src };
        Add_facts { csv = "professor,ada" };
        Add_facts { csv = "professor,ada,bob" };
        Load_csv { csv = "advises,\"unterminated" };
        Add_facts { csv = "advises,bob,ada" };
      ];
  Tgd_store.Store.close store;
  let store = Result.get_ok (Tgd_store.Store.open_dir ~fsync:false dir) in
  let srv = Server.create ~store () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let tel = Server.telemetry srv in
  Alcotest.(check int) "replayed records" 3 (Telemetry.get tel "serve.store.replayed_records");
  Alcotest.(check int) "replay errors" 2 (Telemetry.get tel "serve.store.replay_errors");
  Alcotest.(check int) "one delta epoch per applied record" 3
    (entry_of (Server.registry srv) "uni").Registry.delta_epoch;
  Alcotest.(check (list (list string))) "answers" [ [ "ada" ]; [ "bob" ] ]
    (answers (execute srv "q(X) :- person(X)."))

(* The spans the server records reach the client through stats. *)
let test_stats_phases () =
  let srv = boot_server "professor,ada" in
  ignore (ok_fields (Server.handle srv (Protocol.Materialize { name = "uni" })));
  ignore
    (ok_fields
       (Server.handle srv (Protocol.Add_facts { name = "uni"; source = Protocol.Inline "advises,bob,ada" })));
  match List.assoc_opt "phases" (ok_fields (Server.handle srv Protocol.Stats)) with
  | Some (Json.Obj kv) ->
    List.iter
      (fun span ->
        match List.assoc_opt span kv with
        | Some (Json.Float s) -> Alcotest.(check bool) (span ^ " is a duration") true (s >= 0.0)
        | _ -> Alcotest.failf "no %s span in phases" span)
      [ "serve.delta.apply"; "serve.materialize" ]
  | _ -> Alcotest.fail "stats carries no phases object"

(* Protocol-level fault injection: every abused line must come back as a
   typed error that recovers the request id whenever one is present. *)
let test_protocol_fault_injection () =
  let expect_error ?id what line =
    match Protocol.parse line with
    | Error (got_id, msg) ->
      Alcotest.(check bool) (what ^ ": non-empty message") true (String.length msg > 0);
      (match id with
      | Some i -> (
        match got_id with
        | Json.Int j -> Alcotest.(check int) (what ^ ": id recovered") i j
        | _ -> Alcotest.fail (what ^ ": expected recovered id"))
      | None -> ())
    | Ok _ -> Alcotest.fail (what ^ ": expected a parse error")
  in
  expect_error "empty object" "{}";
  expect_error "not json" "complete garbage";
  expect_error "binary garbage" "\x00\x01\xfe\xff{\x80}";
  expect_error "truncated json" {|{"op":"execute","ontology|};
  expect_error "non-object json" {|[1,2,3]|};
  expect_error "missing op" ~id:9 {|{"id":9,"ontology":"uni"}|};
  expect_error "unknown op" ~id:10 {|{"id":10,"op":"frobnicate"}|};
  expect_error "op not a string" ~id:11 {|{"id":11,"op":17}|};
  expect_error "missing required field" ~id:12 {|{"id":12,"op":"execute","query":"q(X) :- p(X)."}|};
  expect_error "tenant must be a string" ~id:13
    {|{"id":13,"op":"ping","tenant":{"org":"acme"}}|};
  (* A well-typed tenant rides along on any request. *)
  match Protocol.parse {|{"id":14,"op":"ping","tenant":"acme"}|} with
  | Ok { Protocol.tenant = Some "acme"; _ } -> ()
  | Ok _ -> Alcotest.fail "tenant field lost"
  | Error (_, msg) -> Alcotest.fail ("tenant parse failed: " ^ msg)

(* The serving loop survives a hostile stream on an adopted descriptor
   pair (how `obda serve` speaks over stdin/stdout): malformed JSON, binary
   garbage and half-finished requests interleaved with real work — one
   typed response per line, in order, then a clean return at end of input,
   and the server state is still live afterwards. *)
let test_server_run_fault_stream () =
  let srv = Server.create () in
  let script =
    [
      {|{"id":1,"op":"register-ontology","name":"uni","source":"professor(X) -> person(X). professor(ada)."}|};
      "not json at all";
      "\x00\x01\xfe\xffbinary\x00";
      {|{"op":|};
      {|{"id":2,"op":"execute","ontology":"uni","query":"q(X) :- person(X)."}|};
      {|{"id":3,"op":"execute","ontology":"uni","query":"syntactically broken"}|};
      {|{"id":4,"op":"ping"}|};
    ]
  in
  let in_path = Filename.temp_file "serve_faults_in" ".jsonl" in
  let out_path = Filename.temp_file "serve_faults_out" ".jsonl" in
  let oc = open_out in_path in
  List.iter (fun l -> output_string oc (l ^ "\n")) script;
  close_out oc;
  let ifd = Unix.openfile in_path [ Unix.O_RDONLY ] 0
  and ofd = Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
  Net.serve ~workers:1 ~adopt:(ifd, ofd) srv ~listeners:[];
  Unix.close ifd;
  Unix.close ofd;
  let ic = open_in out_path in
  let n = in_channel_length ic in
  let output = really_input_string ic n in
  close_in ic;
  Sys.remove in_path;
  Sys.remove out_path;
  let lines = String.split_on_char '\n' (String.trim output) in
  Alcotest.(check int) "one response per line, even the garbage ones" (List.length script)
    (List.length lines);
  Alcotest.(check bool) "garbage answered with typed errors" true
    (contains output {|"kind":"bad_request"|});
  Alcotest.(check bool) "real work still served" true (contains output {|[["ada"]]|});
  Alcotest.(check bool) "broken query typed, not fatal" true
    (contains output {|"id":3,"ok":false|});
  Alcotest.(check bool) "responses in request order" true
    (match List.rev lines with
    | last :: _ -> contains last {|"id":4|}
    | [] -> false);
  Alcotest.(check bool) "trailing ping answered" true (contains output {|"pong":true|});
  (* The server survived the stream. *)
  match
    Server.handle srv (Protocol.Execute { ontology = "uni"; query = "q(X) :- person(X)."; budget = None; target = None })
  with
  | Ok _ -> ()
  | Error (kind, msg) -> Alcotest.fail ("server wedged after fault stream: " ^ kind ^ ": " ^ msg)

(* ------------------------------------------------------------------ *)
(* End-to-end: the real binary over stdin/stdout JSONL *)

let obda =
  let candidates = [ "../bin/obda.exe"; "_build/default/bin/obda.exe"; "bin/obda.exe" ] in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> path
  | None -> "../bin/obda.exe"

let test_cli_serve_smoke () =
  let script = Filename.temp_file "serve_in" ".jsonl" in
  let out = Filename.temp_file "serve_out" ".jsonl" in
  let oc = open_out script in
  output_string oc
    ({|{"op":"ping","id":1}
{"op":"register-ontology","id":2,"name":"uni","source":"professor(X) -> person(X)."}
{"op":"load-csv","id":3,"name":"uni","source":"professor,ada"}
{"op":"prepare","id":4,"ontology":"uni","query":"q(X) :- person(X)."}
{"op":"execute","id":5,"ontology":"uni","query":"q(Y) :- person(Y)."}
{"op":"stats","id":6}
{"op":"nonsense","id":7}
{"op":"shutdown","id":8}
|}
    : string);
  close_out oc;
  let code = Sys.command (Printf.sprintf "%s serve --workers 1 < %s > %s 2>/dev/null" obda script out) in
  let ic = open_in out in
  let len = in_channel_length ic in
  let output = really_input_string ic len in
  close_in ic;
  Sys.remove script;
  Sys.remove out;
  Alcotest.(check int) "exit 0" 0 code;
  let lines = String.split_on_char '\n' (String.trim output) in
  Alcotest.(check int) "one response per request" 8 (List.length lines);
  Alcotest.(check bool) "pong" true (contains output {|"pong":true|});
  Alcotest.(check bool) "answers served" true (contains output {|"answers":[["ada"]]|});
  Alcotest.(check bool) "prepared entry reused" true (contains output {|"cached":true|});
  Alcotest.(check bool) "unknown op rejected" true (contains output {|"kind":"bad_request"|});
  Alcotest.(check bool) "clean stop" true (contains output {|"stopping":true|})

(* ------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "serve"
    [
      ("json", [
        Alcotest.test_case "round trip" `Quick test_json_roundtrip;
        Alcotest.test_case "malformed inputs" `Quick test_json_errors;
        Alcotest.test_case "nesting bound" `Quick test_json_nesting_bound;
      ]);
      qsuite "json-props" [ prop_json_roundtrip; prop_json_prefixes ];
      ("canon", [
        Alcotest.test_case "alpha-equivalent queries share a key" `Quick test_canon_alpha_equal;
        Alcotest.test_case "inequivalent queries are distinguished" `Quick test_canon_distinguishes;
      ]);
      qsuite "canon-props" [ prop_canon_invariant; prop_canon_equivalent; prop_canon_collision_sound ];
      ("telemetry", [
        Alcotest.test_case "4-domain exact totals" `Quick test_telemetry_domain_stress;
        Alcotest.test_case "merge_into" `Quick test_telemetry_merge;
      ]);
      ("prepared", [
        Alcotest.test_case "LRU eviction and counters" `Quick test_prepared_lru;
        Alcotest.test_case "epoch purge" `Quick test_prepared_purge;
      ]);
      ("server", [
        Alcotest.test_case "warm cache skips rewriting" `Quick test_server_warm_cache;
        Alcotest.test_case "data delta keeps the cache warm" `Quick
          test_server_data_delta_keeps_cache_warm;
        Alcotest.test_case "ontology edit invalidates prepared entries" `Quick
          test_server_ontology_edit_invalidates;
        Alcotest.test_case "materialization maintained across add-facts" `Quick
          test_server_materialize_delta;
        Alcotest.test_case "concurrent executes stay consistent" `Quick test_server_concurrent_execute;
        Alcotest.test_case "no stale answers across delta and full bumps" `Quick
          test_server_no_stale_across_bumps;
        Alcotest.test_case "typed errors" `Quick test_server_errors;
        Alcotest.test_case "arity mismatch is a bad request" `Quick test_server_arity_mismatch;
        Alcotest.test_case "stats reports phase spans" `Quick test_stats_phases;
      ]);
      ("data-runs", [
        Alcotest.test_case "30 batches in one call equal 30 calls" `Quick
          test_add_batches_equals_one_by_one;
        Alcotest.test_case "a write shares every untouched relation" `Quick
          test_write_shares_untouched_relations;
        Alcotest.test_case "concurrent Datalog answers on a restored entry" `Quick
          test_concurrent_datalog_on_restored_entry;
        Alcotest.test_case "queries and checkpoints build no model index" `Quick
          test_queries_build_no_model_index;
        Alcotest.test_case "parallel eval on a freshly restored entry" `Quick
          test_parallel_eval_on_restored_entry;
        Alcotest.test_case "image of an unsealed model equals the sealed one" `Quick
          test_image_of_unsealed_model;
        Alcotest.test_case "recovery replays a mixed tail exactly" `Quick test_recover_mixed_tail;
        Alcotest.test_case "recovery counts failing records of a run" `Quick
          test_recover_run_with_failures;
        Alcotest.test_case "recovery times each record from its own batch" `Quick
          test_recover_long_run_under_deadline;
      ]);
      ("faults", [
        Alcotest.test_case "protocol fault injection" `Quick test_protocol_fault_injection;
        Alcotest.test_case "serving loop survives a hostile stream" `Quick
          test_server_run_fault_stream;
      ]);
      ("cli", [ Alcotest.test_case "obda serve JSONL smoke" `Quick test_cli_serve_smoke ]);
    ]
