open Tgd_logic

type failure = {
  invariant : string;
  message : string;
  original : Case.t;
  shrunk : Case.t;
  corpus_file : string option;
}

type summary = {
  seed : int;
  cases : int;
  checks : int;
  passed : int;
  skipped : int;
  failed : int;
  per_invariant : (string * (int * int * int)) list;
  failures : failure list;
}

let guarded check oracle case =
  try check oracle case
  with e -> Invariant.Fail ("uncaught exception: " ^ Printexc.to_string e)

(* The reproduction predicate for shrinking: the same invariant still fails
   (with any witness — chasing the exact message would block useful
   reductions). *)
let still_fails oracle (inv : Invariant.t) case =
  match guarded inv.Invariant.check oracle case with
  | Invariant.Fail _ -> true
  | Invariant.Pass | Invariant.Skip _ -> false

let case_size (c : Case.t) =
  List.length (Program.tgds c.Case.program)
  + List.length c.Case.facts
  + List.length c.Case.query.Cq.body

let persist corpus_dir (inv : Invariant.t) (case : Case.t) =
  match corpus_dir with
  | None -> None
  | Some dir ->
    (try
       if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
       let path =
         Filename.concat dir (Printf.sprintf "%s-seed%d.case" inv.Invariant.name case.Case.seed)
       in
       Case.save ~path case;
       Some path
     with _ -> None)

type counts = { mutable pass : int; mutable skip : int; mutable fail : int }

let make_tally invariants =
  List.map (fun (inv : Invariant.t) -> (inv.Invariant.name, { pass = 0; skip = 0; fail = 0 })) invariants

let tally_of tally name = List.assoc name tally

let finish ~seed ~cases ~tally ~failures =
  let per_invariant = List.map (fun (name, c) -> (name, (c.pass, c.skip, c.fail))) tally in
  let sum f = List.fold_left (fun acc (_, c) -> acc + f c) 0 tally in
  {
    seed;
    cases;
    checks = sum (fun c -> c.pass + c.skip + c.fail);
    passed = sum (fun c -> c.pass);
    skipped = sum (fun c -> c.skip);
    failed = sum (fun c -> c.fail);
    per_invariant;
    failures = List.rev failures;
  }

let run ?(oracle = Oracle.real) ?(invariants = Invariant.all) ?corpus_dir ?(shrink = true)
    ?(stop_after = max_int) ?on_case ~seed ~cases () =
  let tally = make_tally invariants in
  let failures = ref [] in
  let n_failures = ref 0 in
  let index = ref 0 in
  while !index < cases && !n_failures < stop_after do
    let case = Gen_case.case ~seed ~index:!index in
    (match on_case with Some f -> f !index case | None -> ());
    List.iter
      (fun (inv : Invariant.t) ->
        let c = tally_of tally inv.Invariant.name in
        match guarded inv.Invariant.check oracle case with
        | Invariant.Pass -> c.pass <- c.pass + 1
        | Invariant.Skip _ -> c.skip <- c.skip + 1
        | Invariant.Fail message ->
          c.fail <- c.fail + 1;
          incr n_failures;
          let shrunk =
            if shrink then Shrink.minimize ~reproduces:(still_fails oracle inv) case else case
          in
          let corpus_file = persist corpus_dir inv shrunk in
          failures :=
            { invariant = inv.Invariant.name; message; original = case; shrunk; corpus_file }
            :: !failures)
      invariants;
    incr index
  done;
  finish ~seed ~cases:!index ~tally ~failures:!failures

let replay ?(oracle = Oracle.real) ?(invariants = Invariant.all) ~dir () =
  let tally = make_tally invariants in
  let corpus_counts = { pass = 0; skip = 0; fail = 0 } in
  let failures = ref [] in
  let files =
    if Sys.file_exists dir && Sys.is_directory dir then
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".case")
      |> List.sort String.compare
    else []
  in
  List.iter
    (fun file ->
      let path = Filename.concat dir file in
      match Case.load path with
      | Error msg ->
        corpus_counts.fail <- corpus_counts.fail + 1;
        let dummy =
          Case.make ~label:("unreadable:" ^ file)
            ~program:(Program.make_exn [])
            ~facts:[]
            (Cq.make ~name:"q" ~answer:[]
               ~body:[ Atom.make (Symbol.intern "corpus_error") [] ])
        in
        failures :=
          { invariant = "corpus"; message = msg; original = dummy; shrunk = dummy; corpus_file = Some path }
          :: !failures
      | Ok case ->
        corpus_counts.pass <- corpus_counts.pass + 1;
        List.iter
          (fun (inv : Invariant.t) ->
            let c = tally_of tally inv.Invariant.name in
            match guarded inv.Invariant.check oracle case with
            | Invariant.Pass -> c.pass <- c.pass + 1
            | Invariant.Skip _ -> c.skip <- c.skip + 1
            | Invariant.Fail message ->
              c.fail <- c.fail + 1;
              failures :=
                { invariant = inv.Invariant.name; message; original = case; shrunk = case;
                  corpus_file = Some path }
                :: !failures)
          invariants)
    files;
  finish ~seed:0 ~cases:(List.length files)
    ~tally:(tally @ [ ("corpus", corpus_counts) ])
    ~failures:!failures

let summary_to_string s =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "seed %d: %d case(s), %d check(s): %d passed, %d skipped, %d FAILED\n"
       s.seed s.cases s.checks s.passed s.skipped s.failed);
  List.iter
    (fun (name, (pass, skip, fail)) ->
      Buffer.add_string b (Printf.sprintf "  %-14s pass %4d  skip %4d  fail %4d\n" name pass skip fail))
    s.per_invariant;
  List.iter
    (fun f ->
      Buffer.add_string b
        (Printf.sprintf "failure [%s] case label=%s seed=%d\n  %s\n  shrunk to %d element(s)%s\n"
           f.invariant f.original.Case.label f.original.Case.seed f.message
           (case_size f.shrunk)
           (match f.corpus_file with None -> "" | Some p -> Printf.sprintf " -> %s" p)))
    s.failures;
  Buffer.contents b
