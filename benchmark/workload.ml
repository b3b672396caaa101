(* The five workloads: their seeded inputs and request streams.

   Everything here is a pure function of the seed, so the served pass, the
   traced in-process pass and a rerun on another commit replay identical
   request lists. A stream is a factory: each call starts the same
   sequence over from its first element. *)

open Tgd_logic
module Rng = Tgd_gen.Rng
module Json = Tgd_serve.Json

type read = {
  query : string;
  target : string option;  (** ["datalog"] pins the Datalog backend *)
  line_tail : string;  (** the request line after its id: [,"op":"execute",...}] *)
  checked : bool;  (** answers compared with the in-process oracle *)
}

type op =
  | Read of read
  | Write of string  (** an add-facts CSV payload of {!facts_per_write} new facts *)
  | Restart  (** restart the server on its data directory, then answer one query *)

type shape =
  | Read_mix  (** two connections draw from one shared request stream *)
  | Write_mix  (** connection A writes; connection B reads until A is done *)
  | Restarts  (** repeated restarts on unchanged data directories *)

type t = {
  name : string;
  shape : shape;
  entry : string;  (** registry name of the workload's ontology *)
  ontology : string;  (** register-ontology source *)
  csv : string;  (** load-csv payload *)
  materialize : bool;  (** keep a chase materialization alive across add-facts *)
  tail : string list;  (** add-facts batches logged after the set-up snapshot *)
  tail_step : int;  (** restarts rotate over the WAL prefixes of every [tail_step] tail batches *)
  pool : read array;  (** every read a uni-* stream can issue; empty for dl-cold *)
  stream : unit -> unit -> op;  (** the primary op stream (connection A) *)
  side : (unit -> unit -> op) option;  (** uni-write's read stream (connection B) *)
  round : int;  (** primary ops per round; a timed window ends on a round boundary *)
  warmup : int;  (** primary ops replayed untimed before the window *)
  rss_after : int;  (** timed primary ops after which the server's peak RSS is read *)
  tail_pct : float;  (** the tail percentile reported as [op_tail_ms] *)
  restart_read : read option;  (** the query answered after each restart *)
  checkpoint_every : int;  (** the server's [--checkpoint-every] *)
}

let names = [ "uni-read"; "uni-datalog"; "dl-cold"; "uni-write"; "recover" ]
let facts_per_write = 12

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let render_query q = Format.asprintf "%a" Tgd_parser.Printer.query q

let read_of ?target ~entry ~checked query =
  let fields =
    [ ("op", Json.String "execute"); ("ontology", Json.String entry); ("query", Json.String query) ]
    @ match target with Some t -> [ ("target", Json.String t) ] | None -> []
  in
  let obj = Json.to_string (Json.Obj fields) in
  { query; target; checked; line_tail = "," ^ String.sub obj 1 (String.length obj - 1) }

let request_line ~id fields =
  Json.to_string (Json.Obj (("id", Json.Int id) :: fields))

let execute_line ~id r = Printf.sprintf {|{"id":%d%s|} id r.line_tail

let write_line ~id ~entry csv =
  request_line ~id [ ("op", Json.String "add-facts"); ("name", Json.String entry); ("source", Json.String csv) ]

(* Consistent variable renaming: the prepared cache must hit through the
   canonical key, never through string identity. *)
let variant ~tag (q : Cq.t) =
  let renaming =
    Subst.of_list
      (Symbol.Set.elements (Cq.vars q)
      |> List.map (fun x -> (x, Term.var (Printf.sprintf "%s_%d" (Symbol.name x) tag))))
  in
  Cq.make ~name:q.Cq.name
    ~answer:(Subst.apply_terms renaming q.Cq.answer)
    ~body:(Subst.apply_atoms renaming q.Cq.body)

(* ------------------------------------------------------------------ *)
(* Streams                                                             *)

let tags = 7

(* Each round replays a fixed multiset of query indices (the deck) in a
   seeded order, each with a seeded variant tag: whole rounds keep the
   query mix exact, so run-to-run differences come from the system. *)
let deck_stream ~seed ~deck pool =
  let cards = List.concat (List.mapi (fun q count -> List.init count (fun _ -> q)) deck) in
  fun () ->
    let rng = Rng.create seed in
    let queue = ref [] in
    fun () ->
      if !queue = [] then queue := Rng.shuffle rng cards;
      match !queue with
      | q :: rest ->
        queue := rest;
        Read pool.((q * tags) + Rng.int rng tags)
      | [] -> assert false

let university_pool ?target ~entry queries =
  Array.of_list
    (List.concat_map
       (fun q ->
         List.init tags (fun tag ->
             read_of ?target ~entry ~checked:true (render_query (variant ~tag:(tag + 1) q))))
       queries)

(* Batches of three new students with four facts each: a level tag, a
   department membership and two distinct courses of the generated data. *)
let write_stream ~seed ~scale ~prefix =
  let n_dept = max 2 (scale / 20) and n_course = max 4 (scale / 3) in
  fun () ->
    let rng = Rng.create seed in
    let next_student = ref 0 in
    fun () ->
      let b = Buffer.create 256 in
      for _ = 1 to 3 do
        let s = Printf.sprintf "%s%d" prefix !next_student in
        incr next_student;
        let level = if Rng.bool rng 0.7 then "undergraduate" else "graduate" in
        let c1 = Rng.int rng n_course in
        let c2 = (c1 + 1 + Rng.int rng (n_course - 1)) mod n_course in
        Printf.bprintf b "%s,%s\nmember_of,%s,dept%d\ntakes_course,%s,course%d\ntakes_course,%s,course%d\n"
          level s s (Rng.int rng n_dept) s c1 s c2
      done;
      Write (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* dl-cold: distinct cold queries over a fixed DL-Lite TBox            *)

(* The TBox is part of the workload's definition, not of its seed:
   rewriting cost swings by more than 10x between random TBoxes, so a
   seeded TBox would make the seeds incomparable. The seed picks the data
   and the query stream. *)
let dl_tbox_seed = 2
let dl_concepts = 24
let dl_roles = 8

let dl_program () =
  let rng = Rng.create dl_tbox_seed in
  Tgd_gen.Dl_lite.to_program
    (Tgd_gen.Dl_lite.random_tbox rng ~n_concepts:dl_concepts ~n_roles:dl_roles ~n_axioms:48)

(* Atomic, path and two-path CQs in a fixed rotation, each with a canonical
   key never issued before; constants from the data domain keep the key
   space far larger than any window can use up.

   Like the TBox, the stream's predicates are part of the workload, not of
   its seed: a handful of queries with large rewritings set both the tail
   and the throughput, so drawing them per seed made the seeds
   incomparable. The seed renames the constants through a permutation of
   the domain, which maps distinct keys to distinct keys, so every seed
   replays the same rewriting work against its own data and constants. *)
let dl_stream_seed = 3

let dl_stream ~seed ~domain =
  let v = Term.var in
  let rename = Array.of_list (Rng.shuffle (Rng.create seed) (List.init domain Fun.id)) in
  fun () ->
    let rng = Rng.create dl_stream_seed in
    let sample = Rng.create (seed + 1) in
    let seen = Hashtbl.create 4096 in
    let count = ref 0 in
    let concept x = Atom.of_strings (Printf.sprintf "a%d" (Rng.int rng dl_concepts)) [ x ] in
    let role x y =
      let r = Printf.sprintf "s%d" (Rng.int rng dl_roles) in
      if Rng.bool rng 0.5 then Atom.of_strings r [ x; y ] else Atom.of_strings r [ y; x ]
    in
    let const () = Term.const (Printf.sprintf "d%d" rename.(Rng.int rng domain)) in
    let q answer body = Cq.make ~name:"q" ~answer ~body in
    let generate = function
      | 0 -> (
        match Rng.int rng 3 with
        | 0 -> q [ v "X" ] [ concept (v "X") ]
        | 1 -> q [ v "X"; v "Y" ] [ role (v "X") (v "Y") ]
        | _ -> q [ v "X" ] [ role (v "X") (const ()) ])
      | 1 -> (
        match Rng.int rng 2 with
        | 0 -> q [ v "X" ] [ role (v "X") (v "Y"); concept (v "Y") ]
        | _ -> q [ v "X" ] [ role (v "X") (const ()); concept (v "X") ])
      | _ -> (
        match Rng.int rng 2 with
        | 0 -> q [ v "X" ] [ role (v "X") (v "Y"); role (v "Y") (v "Z"); concept (v "Z") ]
        | _ -> q [ v "X" ] [ role (v "X") (v "Y"); role (v "Y") (const ()) ])
    in
    (* A shape whose keys run out falls through to the next, larger one. *)
    let rec fresh shape attempts =
      let cq = generate shape in
      let key = (Tgd_serve.Canon.of_cq cq).Tgd_serve.Canon.key in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        cq
      end
      else if attempts >= 64 then fresh (min 2 (shape + 1)) 0
      else fresh shape (attempts + 1)
    in
    fun () ->
      let shape = !count mod 3 in
      incr count;
      let cq = fresh shape 0 in
      Read (read_of ~entry:"dl" ~checked:(Rng.int sample 8 = 0) (render_query cq))

(* ------------------------------------------------------------------ *)
(* The workload table                                                  *)

let university ~seed ~scale =
  let data = Tgd_gen.University.generate_data (Rng.create seed) ~scale in
  (Tgd_parser.Printer.program_to_string Tgd_gen.University.ontology, Tgd_db.Csv_io.save_string data)

(* Zipf(s=1) over the eight university queries in list order, scaled to
   whole counts: q1 is issued eight times as often as q8. *)
let zipf_deck = [ 24; 12; 8; 6; 5; 4; 3; 3 ]

let make name ~seed ~smoke =
  let size normal small = if smoke then small else normal in
  (* One inline checkpoint per 50 writes puts 2% of uni-write's acks behind
     a snapshot, so its p99 lands inside the checkpoint stalls instead of
     on the edge between them and ordinary writes. No other workload
     writes that much after its set-up snapshot. *)
  let checkpoint_every = size 50 10 in
  let base =
    {
      name;
      shape = Read_mix;
      entry = "uni";
      ontology = "";
      csv = "";
      materialize = true;
      tail = [];
      tail_step = 1;
      pool = [||];
      stream = (fun () () -> Restart);
      side = None;
      round = 1;
      warmup = 0;
      rss_after = 0;
      tail_pct = 99.0;
      restart_read = None;
      checkpoint_every;
    }
  in
  let queries = Tgd_gen.University.queries in
  match name with
  | "uni-read" | "uni-datalog" ->
    let target = if name = "uni-datalog" then Some "datalog" else None in
    let ontology, csv = university ~seed ~scale:(if target = None then size 3000 30 else size 800 20) in
    let pool = university_pool ?target ~entry:"uni" queries in
    {
      base with
      ontology;
      csv;
      pool;
      stream = deck_stream ~seed:(seed + 1) ~deck:zipf_deck pool;
      round = List.fold_left ( + ) 0 zipf_deck;
      warmup = 2 * List.fold_left ( + ) 0 zipf_deck;
      rss_after = size 10 1 * List.fold_left ( + ) 0 zipf_deck;
    }
  | "dl-cold" ->
    let program = dl_program () in
    let domain = size 200 20 in
    let data =
      Tgd_gen.Gen_db.random_instance (Rng.create seed) program ~facts_per_predicate:(size 40 4)
        ~domain_size:domain
    in
    {
      base with
      entry = "dl";
      (* Its existential role cycles make the chase infinite: a
         materialization would only measure the chase budget. *)
      materialize = false;
      ontology = Tgd_parser.Printer.program_to_string program;
      csv = Tgd_db.Csv_io.save_string data;
      stream = dl_stream ~seed:(seed + 1) ~domain;
      round = 3;
      warmup = 30;
      rss_after = size 6000 30;
      (* Its p99 sits where the cost distribution is sparse, so it moved
         with every host hiccup; the p95 has some 700 samples beyond it. *)
      tail_pct = 95.0;
    }
  | "uni-write" ->
    let scale = size 3000 30 in
    let ontology, csv = university ~seed ~scale in
    (* Reads whose answers the new students cannot change (no advisor,
       author, chair or constant degree facts are written), so every read
       is still checked against the oracle while the data grows. *)
    let stable = List.filteri (fun i _ -> List.mem i [ 2; 3; 5; 6; 7 ]) queries in
    let pool = university_pool ~entry:"uni" stable in
    {
      base with
      shape = Write_mix;
      ontology;
      csv;
      pool;
      stream = write_stream ~seed:(seed + 1) ~scale ~prefix:"new_student";
      side = Some (deck_stream ~seed:(seed + 2) ~deck:[ 1; 1; 1; 1; 1 ] pool);
      round = checkpoint_every;
      warmup = size 20 2;
      rss_after = 10 * checkpoint_every;
    }
  | "recover" ->
    let scale = size 1000 20 in
    let ontology, csv = university ~seed ~scale in
    let next = write_stream ~seed:(seed + 1) ~scale ~prefix:"tail_student" () in
    (* Shorter than the checkpoint cadence, so no batch is checkpointed
       away. Restarts rotate over the WAL prefixes of 0, 5, ..., 30 batches:
       a crash can leave a tail of any length, and with one tail length
       every restart cost the same, so the median jumped between the
       host's fast and slow phases instead of moving with them. *)
    let tail = List.init (size 30 4) (fun _ -> next ()) in
    let tail_step = size 5 2 in
    (* The tail's new students have no advisors, so every prefix answers
       this query alike. *)
    let advised = List.nth queries 2 in
    {
      base with
      shape = Restarts;
      ontology;
      csv;
      tail = List.map (function Write csv -> csv | Read _ | Restart -> assert false) tail;
      tail_step;
      restart_read = Some (read_of ~entry:"uni" ~checked:true (render_query advised));
      round = (List.length tail / tail_step) + 1;
      warmup = 1;
      tail_pct = 90.0;
    }
  | _ -> invalid_arg (Printf.sprintf "unknown workload %S (expected one of: %s)" name (String.concat ", " names))
