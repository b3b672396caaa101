(* The served pass: the real [obda serve] binary as a child process, built
   up over the JSONL wire and driven closed-loop from this one process
   with at most two connections. *)

module Json = Tgd_serve.Json
module W = Workload

exception Broken of string

let broken fmt = Printf.ksprintf (fun s -> raise (Broken s)) fmt
let now = Unix.gettimeofday

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let copy_dir src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let path = Filename.concat src f in
      if (Unix.stat path).Unix.st_kind = Unix.S_REG then
        Out_channel.with_open_bin (Filename.concat dst f) (fun oc ->
            Out_channel.output_string oc (In_channel.with_open_bin path In_channel.input_all)))
    (Sys.readdir src)

let dir_bytes dir =
  Array.fold_left
    (fun acc f ->
      let st = Unix.stat (Filename.concat dir f) in
      if st.Unix.st_kind = Unix.S_REG then acc + st.Unix.st_size else acc)
    0 (Sys.readdir dir)

(* ------------------------------------------------------------------ *)
(* Server processes                                                    *)

(* Every child still running is killed and reaped on any exit path. *)
let live = ref []

let forget pid = live := List.filter (( <> ) pid) !live

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      forget pid)
    !live

type config = {
  obda : string;  (** the [obda] executable *)
  work : string;  (** this run's scratch directory, relative to the checkout *)
}

type server = {
  pid : int;
  sock : string;
  log : string;
  spawned : float;
}

let server_flags (w : W.t) ~dir =
  [ "--workers"; "1"; "--data-dir"; dir; "--fsync"; "true";
    "--checkpoint-every"; string_of_int w.W.checkpoint_every ]

let spawned = ref 0

let spawn cfg w ~dir =
  incr spawned;
  (* Relative socket paths stay far below the 108-byte sun_path limit
     however deep the checkout is. *)
  let sock = Filename.concat cfg.work (Printf.sprintf "s%d.sock" !spawned) in
  let log = Filename.concat cfg.work (Printf.sprintf "server%d.log" !spawned) in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  Unix.close stdin_w;
  let argv = Array.of_list (cfg.obda :: "serve" :: "--listen" :: ("unix:" ^ sock) :: server_flags w ~dir) in
  let spawned = now () in
  let pid = Unix.create_process cfg.obda argv stdin_r out out in
  Unix.close stdin_r;
  Unix.close out;
  live := pid :: !live;
  { pid; sock; log; spawned }

let log_tail srv =
  match open_in_bin srv.log with
  | exception Sys_error _ -> ""
  | ic ->
    let len = in_channel_length ic in
    let k = min len 2000 in
    seek_in ic (len - k);
    let s = really_input_string ic k in
    close_in ic;
    s

let exited srv status =
  forget srv.pid;
  match status with
  | Unix.WEXITED 0 -> ()
  | _ -> broken "obda serve exited abnormally; its log ends with:\n%s" (log_tail srv)

let wait_exit srv =
  let deadline = now () +. 30.0 in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.001;
      go ()
    | 0, _ ->
      kill_all ();
      broken "obda serve did not exit after shutdown"
    | _, status -> exited srv status
  in
  go ()

(* VmHWM, the resident-set high-water mark of the server process. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> broken "no VmHWM in /proc/%d/status" pid
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)

type conn = {
  fd : Unix.file_descr;
  acc : Buffer.t;  (** the partial reply line read so far *)
  chunk : Bytes.t;
}

let connect srv =
  let deadline = now () +. 120.0 in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX srv.sock) with
    | () -> { fd; acc = Buffer.create 4096; chunk = Bytes.create (256 * 1024) }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _) ->
      Unix.close fd;
      (match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
      | 0, _ -> ()
      | _, status ->
        exited srv status;
        broken "obda serve exited before listening");
      if now () > deadline then broken "obda serve did not listen within 120s";
      (* Fine-grained: this wait is inside setup_s and every restart time. *)
      Unix.sleepf 0.0001;
      go ()
  in
  go ()

let send c line =
  let s = line ^ "\n" in
  let rec go off =
    if off < String.length s then go (off + Unix.write_substring c.fd s off (String.length s - off))
  in
  go 0

(* Read what the socket has; [Some line] once a reply line is complete.
   Only the fresh chunk is scanned for the newline, so a reply of any size
   is assembled in linear time. *)
let receive c =
  let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  if n = 0 then broken "obda serve closed the connection";
  let rec newline i = if i >= n then -1 else if Bytes.get c.chunk i = '\n' then i else newline (i + 1) in
  match newline 0 with
  | -1 ->
    Buffer.add_subbytes c.acc c.chunk 0 n;
    None
  | k ->
    Buffer.add_subbytes c.acc c.chunk 0 k;
    let line = Buffer.contents c.acc in
    Buffer.clear c.acc;
    Buffer.add_subbytes c.acc c.chunk (k + 1) (n - k - 1);
    Some line

let rec select_read fds timeout =
  match Unix.select fds [] [] timeout with
  | ready, _, _ -> ready
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> select_read fds timeout

let rec await c =
  match select_read [ c.fd ] 120.0 with
  | [] -> broken "no reply within 120s"
  | _ -> ( match receive c with Some line -> line | None -> await c)

let call c line =
  send c line;
  await c

let next_id = ref 0

let fresh_id () =
  incr next_id;
  !next_id

let ack c ~what fields =
  let id = fresh_id () in
  let reply = call c (W.request_line ~id (("op", Json.String what) :: fields)) in
  if not (Check.matches_at reply 0 (Check.ok_prefix id)) then
    broken "%s failed: %s" what (Check.excerpt reply);
  reply

let stats c =
  match Json.parse (ack c ~what:"stats" []) with
  | Ok j -> j
  | Error e -> broken "unparseable stats reply: %s" e

let counter j key =
  match Json.obj_field "counters" j with
  | Some c -> Option.value ~default:0 (Json.int_field key c)
  | None -> 0

let stored_facts j entry =
  match Json.member "ontologies" j with
  | Some (Json.List os) -> (
    match List.find_opt (fun o -> Json.string_field "name" o = Some entry) os with
    | Some o -> Option.value ~default:0 (Json.int_field "facts" o)
    | None -> 0)
  | _ -> 0

let shutdown srv conns =
  (match conns with c :: _ -> ignore (ack c ~what:"shutdown" []) | [] -> ());
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
  wait_exit srv

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)

(* A connection slot keeps at most one request outstanding: its next one
   is sent only after the reply to the previous one arrived. [next]
   returns the request line and the reply handler, which receives the
   reply and its latency (send to complete reply line). *)
type slot = {
  sconn : conn;
  next : unit -> (string * (string -> float -> unit)) option;
  mutable pending : (float * (string -> float -> unit)) option;
}

let slot sconn next = { sconn; next; pending = None }

let drive slots =
  let rec loop () =
    List.iter
      (fun s ->
        if Option.is_none s.pending then
          match s.next () with
          | None -> ()
          | Some (line, k) ->
            let t = now () in
            send s.sconn line;
            s.pending <- Some (t, k))
      slots;
    match List.filter (fun s -> Option.is_some s.pending) slots with
    | [] -> ()
    | waiting ->
      let ready = select_read (List.map (fun s -> s.sconn.fd) waiting) 120.0 in
      if ready = [] then broken "no reply within 120s";
      (* Timestamp every completed reply before running any check. *)
      let done_ =
        List.filter_map
          (fun s ->
            if List.mem s.sconn.fd ready then
              match receive s.sconn with
              | Some line -> Some (s, line, now ())
              | None -> None
            else None)
          waiting
      in
      List.iter
        (fun (s, line, t) ->
          match s.pending with
          | Some (t0, k) ->
            s.pending <- None;
            k line (t -. t0)
          | None -> ())
        done_;
      loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* One workload, served                                                *)

type result = {
  setup_s : float list;  (** spawn to ready, one per set-up *)
  lat : float list;  (** seconds per timed op *)
  requests : int;  (** every request of the window, timed op or side read *)
  window_s : float;
  rss_mb : float;  (** server VmHWM after [rss_after] timed ops; median over restarts *)
  store_bytes : int;  (** data directory bytes *)
  facts : int;  (** facts in the stored instance *)
  client_cpu_s : float;  (** this process's CPU time over the window *)
  hits : int;  (** prepared-cache counters over the window *)
  misses : int;
  evictions : int;
}

let setup_ops (w : W.t) =
  let s k v = (k, Json.String v) in
  [
    ("register-ontology", [ s "name" w.W.entry; s "source" w.W.ontology ]);
    ("load-csv", [ s "name" w.W.entry; s "source" w.W.csv ]);
  ]
  @ (if w.W.materialize then [ ("materialize", [ s "name" w.W.entry ]) ] else [])
  @ [ ("snapshot", [ s "name" w.W.entry ]) ]

(* Spawn a server on an empty data directory and build the workload's
   state over the wire. Ready time runs from spawn to the last ack. *)
let setup cfg w ~dir =
  let srv = spawn cfg w ~dir in
  let c = connect srv in
  List.iter (fun (what, fields) -> ignore (ack c ~what fields)) (setup_ops w);
  (srv, c, now () -. srv.spawned)

(* Untimed set-ups on throwaway directories until [warm_s] has passed: the
   timed set-ups and the window then start on a host that has been running
   this workload, not on one that was idle or busy with something else. *)
let rehearse cfg w ~warm_s =
  let t0 = now () in
  let i = ref 0 in
  while now () -. t0 < warm_s do
    let dir = Filename.concat cfg.work (Printf.sprintf "warm%d" !i) in
    let srv, c, _ = setup cfg w ~dir in
    shutdown srv [ c ];
    rm_rf dir;
    incr i
  done

let run cfg (w : W.t) ~oracle ~tally ~seconds ~warm_s ~setups ~setup_budget =
  let fail kind detail = Check.fail tally ~workload:w.W.name kind detail in
  rehearse cfg w ~warm_s;
  (* Within one server process every reply to a read repeats the first
     one byte for byte. The first replies are checked against the oracle
     after the window, so the oracle never competes with the server for a
     core; that check ignores tuple order (see [Check.same_answers]). *)
  let firsts = Hashtbl.create 64 and to_verify = ref [] in
  let on_read (r : W.read) ~id line =
    match Check.answers_span line ~id with
    | Error kind -> fail kind line
    | Ok ((start, stop) as span) -> (
      if r.W.checked then
        match Hashtbl.find_opt firsts r.W.line_tail with
        | Some first ->
          if not (Check.span_equals line span first) then
            fail Check.Mismatched ("answers changed between replies to " ^ r.W.query)
        | None ->
          let answers = String.sub line start (stop - start) in
          Hashtbl.add firsts r.W.line_tail answers;
          to_verify := (r, answers) :: !to_verify)
  in
  let read_request (r : W.read) k =
    let id = fresh_id () in
    Some (W.execute_line ~id r, fun line dt -> k dt; on_read r ~id line)
  in
  (* At least [setups] set-ups, and more until [setup_budget] seconds have
     passed: a workload whose set-up takes milliseconds reports the median
     of hundreds, not of a few spawns. *)
  let setup_s = ref [] and setups_from = now () in
  let rec build i =
    let dir = Filename.concat cfg.work (Printf.sprintf "data%d" i) in
    let srv, c, t = setup cfg w ~dir in
    setup_s := t :: !setup_s;
    if i + 1 < setups || now () -. setups_from < setup_budget then begin
      shutdown srv [ c ];
      rm_rf dir;
      build (i + 1)
    end
    else (srv, c, dir)
  in
  let srv, c, dir = build 0 in
  (* Peak RSS after a fixed count of timed ops, not at the end of the
     window: dl-cold's server grows with every cold request and uni-write's
     data with every batch, so an end-of-window reading would charge a
     faster server for the extra work it got through. *)
  let rss = ref None in
  let sample_rss ops = if ops = w.W.rss_after && !rss = None then rss := Some (peak_rss_mb srv.pid) in
  let rss_mb () = match !rss with Some mb -> mb | None -> peak_rss_mb srv.pid in
  let lats = ref [] in
  let record dt = lats := dt :: !lats in
  let elapsed_from t0 = now () -. t0 in
  let result ~requests ~window_s ~rss_mb ~store_bytes ~facts ~client_cpu_s ~s0 ~s1 =
    let delta key = counter s1 key - counter s0 key in
    {
      setup_s = List.rev !setup_s;
      lat = List.rev !lats;
      requests;
      window_s;
      rss_mb;
      store_bytes;
      facts;
      client_cpu_s;
      hits = delta "serve.cache.hits";
      misses = delta "serve.cache.misses";
      evictions = delta "serve.cache.evictions";
    }
  in
  let res =
    match w.W.shape with
    | W.Read_mix ->
      let c2 = connect srv in
      let next = w.W.stream () in
      for _ = 1 to w.W.warmup do
        match next () with
        | W.Read r ->
          let id = fresh_id () in
          on_read r ~id (call c (W.execute_line ~id r))
        | W.Write _ | W.Restart -> assert false
      done;
      let s0 = stats c in
      let issued = ref 0 in
      let cpu0 = cpu_s () and t0 = now () in
      let next_request () =
        sample_rss !issued;
        if !issued mod w.W.round = 0 && elapsed_from t0 >= seconds then None
        else begin
          incr issued;
          match next () with
          | W.Read r -> read_request r record
          | W.Write _ | W.Restart -> assert false
        end
      in
      drive [ slot c next_request; slot c2 next_request ];
      let window_s = elapsed_from t0 and client_cpu_s = cpu_s () -. cpu0 in
      tally.Check.attempted <- tally.Check.attempted + !issued;
      let s1 = stats c in
      let rss_mb = rss_mb () and store_bytes = dir_bytes dir in
      shutdown srv [ c; c2 ];
      result ~requests:!issued ~window_s ~rss_mb ~store_bytes ~facts:(stored_facts s1 w.W.entry)
        ~client_cpu_s ~s0 ~s1
    | W.Write_mix ->
      let c2 = connect srv in
      let writes = w.W.stream () and reads = (Option.get w.W.side) () in
      let write_request csv k =
        let id = fresh_id () in
        let check line =
          if not (Check.matches_at line 0 (Check.ok_prefix id)) then fail (Check.not_ok line ~id) line
          else if Check.find line ~from:0 (Printf.sprintf {|,"added":%d,|} W.facts_per_write) < 0 then
            fail Check.Mismatched ("add-facts did not add every fact: " ^ line)
        in
        Some (W.write_line ~id ~entry:w.W.entry csv, fun line dt -> k dt; check line)
      in
      let sync (line, k) = k (call c line) 0.0 in
      for _ = 1 to w.W.warmup do
        match writes () with
        | W.Write csv -> Option.iter sync (write_request csv ignore)
        | W.Read _ | W.Restart -> assert false
      done;
      Array.iter (fun r -> Option.iter sync (read_request r ignore)) w.W.pool;
      (* An empty WAL makes every inline checkpoint fall on a round boundary. *)
      ignore (ack c ~what:"snapshot" [ ("name", Json.String w.W.entry) ]);
      let s0 = stats c in
      let written = ref 0 and read_count = ref 0 and writes_done = ref false in
      let cpu0 = cpu_s () and t0 = now () in
      let next_write () =
        sample_rss !written;
        if !written mod w.W.round = 0 && elapsed_from t0 >= seconds then begin
          writes_done := true;
          None
        end
        else begin
          incr written;
          match writes () with
          | W.Write csv -> write_request csv record
          | W.Read _ | W.Restart -> assert false
        end
      in
      let next_read () =
        if !writes_done then None
        else begin
          incr read_count;
          match reads () with
          | W.Read r -> read_request r ignore
          | W.Write _ | W.Restart -> assert false
        end
      in
      drive [ slot c next_write; slot c2 next_read ];
      let window_s = elapsed_from t0 and client_cpu_s = cpu_s () -. cpu0 in
      tally.Check.attempted <- tally.Check.attempted + !written + !read_count;
      let s1 = stats c in
      let facts = stored_facts s1 w.W.entry in
      if facts <> stored_facts s0 w.W.entry + (!written * W.facts_per_write) then
        fail Check.Mismatched (Printf.sprintf "stored facts %d after %d acked batches" facts !written);
      let rss_mb = rss_mb () and store_bytes = dir_bytes dir in
      shutdown srv [ c; c2 ];
      (* Durability: a restart on the same directory recovers every
         acknowledged batch. *)
      let again = spawn cfg w ~dir in
      let c3 = connect again in
      let recovered = stored_facts (stats c3) w.W.entry in
      if recovered <> facts then
        fail Check.Lost (Printf.sprintf "%d facts acknowledged, %d recovered" facts recovered);
      shutdown again [ c3 ];
      result ~requests:(!written + !read_count) ~window_s ~rss_mb ~store_bytes ~facts ~client_cpu_s
        ~s0 ~s1
    | W.Restarts ->
      let r = Option.get w.W.restart_read in
      (let id = fresh_id () in
       on_read r ~id (call c (W.execute_line ~id r)));
      (* Log the WAL tail, keeping a copy of the directory, with the
         number of facts it holds, after every [tail_step] batches. *)
      let prefixes = ref [] in
      let keep () =
        let copy = Printf.sprintf "%s-tail%d" dir (List.length !prefixes) in
        copy_dir dir copy;
        prefixes := (copy, stored_facts (stats c) w.W.entry) :: !prefixes
      in
      keep ();
      List.iteri
        (fun i csv ->
          ignore (ack c ~what:"add-facts" [ ("name", Json.String w.W.entry); ("source", Json.String csv) ]);
          if (i + 1) mod w.W.tail_step = 0 then keep ())
        w.W.tail;
      shutdown srv [ c ];
      let prefixes = Array.of_list (List.rev !prefixes) in
      let longest, facts = prefixes.(Array.length prefixes - 1) in
      let store_bytes = dir_bytes longest in
      (* Spawn to first answer on an unchanged directory, the [i]-th in
         rotation. Each restart is a new process, so each answer is checked
         against the oracle, and its fact count against the directory's. *)
      let restart i =
        Hashtbl.reset firsts;
        let dir, stored = prefixes.(i mod Array.length prefixes) in
        let srv = spawn cfg w ~dir in
        let c = connect srv in
        let id = fresh_id () in
        send c (W.execute_line ~id r);
        let line = await c in
        let dt = now () -. srv.spawned in
        on_read r ~id line;
        let rss = peak_rss_mb srv.pid and st = stats c in
        if stored_facts st w.W.entry <> stored then
          fail Check.Lost
            (Printf.sprintf "a restart on %s recovered %d of %d facts" dir (stored_facts st w.W.entry) stored);
        shutdown srv [ c ];
        (dt, rss, st)
      in
      for i = 1 to w.W.warmup do
        ignore (restart (i - 1))
      done;
      (* Cache counters come from the last restarted server. *)
      let rss = ref [] and last = ref (Json.Obj []) and n = ref 0 in
      let cpu0 = cpu_s () and t0 = now () in
      while not (!n mod w.W.round = 0 && elapsed_from t0 >= seconds) do
        let dt, r, st = restart !n in
        incr n;
        record dt;
        rss := r :: !rss;
        last := st
      done;
      let window_s = elapsed_from t0 and client_cpu_s = cpu_s () -. cpu0 in
      tally.Check.attempted <- tally.Check.attempted + !n;
      result ~requests:!n ~window_s ~rss_mb:(Stats.median !rss) ~store_bytes ~facts ~client_cpu_s ~s0:(Json.Obj [])
        ~s1:!last
  in
  let verified = Hashtbl.create 16 in
  List.iter
    (fun (r, got) ->
      let expected = Oracle.answers oracle r in
      if not (Hashtbl.mem verified (expected, got)) then
        if Check.same_answers got expected then Hashtbl.add verified (expected, got) ()
        else fail Check.Mismatched ("answers differ from the oracle for " ^ r.W.query))
    (List.rev !to_verify);
  res
