(* The serving loop: a select-based event loop over any number of
   Unix-domain / TCP listeners plus, optionally, one adopted fd pair (the
   stdin/stdout stream of [obda serve]), a connection table with
   per-connection read buffers and incremental JSONL framing, and in-order
   response multiplexing per connection while requests from different
   connections interleave through the shared worker pool.

   Threading model: exactly one event-loop thread owns every connection
   and the listener sockets. Worker domains (the request pool) never touch
   a socket — a finished job pushes its pre-serialized response line onto
   the completion queue and pokes the self-pipe, and the loop writes it
   out. Mutations, stats and shutdown execute inline on the loop thread
   behind a fence (all in-flight pool queries answered first) — including
   the durable-store contract: a mutation's WAL record is fsynced inside
   [Server.handle], i.e. before its response line is even queued.

   Ordering guarantee: responses on one connection are written strictly in
   the order the requests arrived on that connection (each request takes
   the next sequence slot at parse time; completed responses wait in
   [pending] until every earlier slot has been written). Across
   connections there is no ordering. *)

type addr =
  | Unix_path of string
  | Tcp of string * int

let addr_to_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

type listener = {
  l_fd : Unix.file_descr;
  l_addr : addr;
}

let listener_addr l = l.l_addr

let listen ?(backlog = 128) addr =
  match addr with
  | Unix_path path ->
    if Sys.file_exists path then Unix.unlink path;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try
       Unix.bind fd (Unix.ADDR_UNIX path);
       Unix.listen fd backlog
     with e ->
       (try Unix.close fd with _ -> ());
       raise e);
    { l_fd = fd; l_addr = addr }
  | Tcp (host, port) ->
    let inet =
      try Unix.inet_addr_of_string host
      with _ -> (
        match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
        | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
        | _ -> failwith (Printf.sprintf "cannot resolve %S" host))
    in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt fd Unix.SO_REUSEADDR true;
       Unix.bind fd (Unix.ADDR_INET (inet, port));
       Unix.listen fd backlog
     with e ->
       (try Unix.close fd with _ -> ());
       raise e);
    let port =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> port
    in
    { l_fd = fd; l_addr = Tcp (host, port) }

let close_listener l =
  (try Unix.close l.l_fd with _ -> ());
  match l.l_addr with
  | Unix_path p -> ( try if Sys.file_exists p then Unix.unlink p with _ -> ())
  | Tcp _ -> ()

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)

type conn = {
  id : int;
  rfd : Unix.file_descr;  (* requests are read here ... *)
  wfd : Unix.file_descr;  (* ... and answered here: the same socket, or an adopted pair *)
  owned : bool;  (* accepted here, so closed here; an adopted pair is the caller's *)
  acc : Buffer.t;  (* partial line accumulated across reads *)
  mutable next_seq : int;  (* response slot handed to the next request *)
  mutable write_head : int;  (* the slot whose response is written next *)
  pending : (int, string) Hashtbl.t;  (* completed out-of-order responses *)
  mutable out : Bytes.t;  (* serialized responses: [out_pos, out_len) is unsent *)
  mutable out_pos : int;
  mutable out_len : int;
  mutable eof : bool;  (* read side done (client half-closed or EOF) *)
}

(* All slots answered and every byte flushed: nothing left to deliver. *)
let drained c =
  c.write_head = c.next_seq && Hashtbl.length c.pending = 0 && c.out_pos >= c.out_len

type t = {
  server : Server.t;
  pool : Tgd_exec.Pool.t;
  admission : Admission.t;
  telemetry : Tgd_exec.Telemetry.t;
  max_clients : int;
  max_line : int;
  conns : (int, conn) Hashtbl.t;  (* id -> conn *)
  by_fd : (Unix.file_descr, conn) Hashtbl.t;  (* both fds of a conn *)
  completions : (int * int * string) Queue.t;  (* conn id, seq, response line *)
  completions_lock : Mutex.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  (* Queries admitted to the pool and not yet drained from [completions]:
     a control op (mutation/stats/shutdown) waits for this to reach zero. *)
  mutable pool_inflight : int;
  (* Requests held, in arrival order, behind a control op that is waiting
     for the pool to drain; empty when nothing waits. *)
  held : (int * int * Protocol.envelope) Queue.t;
  mutable stopping : bool;
  (* Listeners sit out of [select] until then: the process ran out of
     descriptors, and a listener left in would report the waiting client
     readable on every turn. *)
  mutable accept_paused_until : float;
  scratch : Bytes.t;
}

let count t key n = ignore (Tgd_exec.Telemetry.add t.telemetry key n)

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)

(* Append one response line. Room is made by moving the unsent bytes to
   the front, and by doubling the buffer when that is not enough. *)
let enqueue c line =
  let n = String.length line + 1 in
  if c.out_len + n > Bytes.length c.out then begin
    let unsent = c.out_len - c.out_pos in
    let cap = ref (Bytes.length c.out) in
    while unsent + n > !cap do
      cap := 2 * !cap
    done;
    let buf = if !cap = Bytes.length c.out then c.out else Bytes.create !cap in
    Bytes.blit c.out c.out_pos buf 0 unsent;
    c.out <- buf;
    c.out_pos <- 0;
    c.out_len <- unsent
  end;
  Bytes.blit_string line 0 c.out c.out_len (n - 1);
  Bytes.set c.out (c.out_len + n - 1) '\n';
  c.out_len <- c.out_len + n

(* Push whatever the socket will take right now, straight from the unsent
   range (a reply written in k partial writes is never copied k times);
   never blocks. *)
let try_flush t c =
  let len = c.out_len - c.out_pos in
  if len > 0 then
    match Unix.write c.wfd c.out c.out_pos len with
    | n ->
      c.out_pos <- c.out_pos + n;
      if c.out_pos >= c.out_len then begin
        c.out_pos <- 0;
        c.out_len <- 0
      end;
      true
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> true
    | exception Unix.Unix_error _ ->
      (* Peer reset mid-write: the connection is dead. *)
      false
  else true

(* Close an accepted socket; hand an adopted pair back in blocking mode. *)
let release c =
  try if c.owned then Unix.close c.rfd else Unix.clear_nonblock c.wfd with _ -> ()

let drop_conn t c =
  Hashtbl.remove t.conns c.id;
  Hashtbl.remove t.by_fd c.rfd;
  Hashtbl.remove t.by_fd c.wfd;
  release c;
  count t "serve.net.closed" 1

(* Record a completed response for its slot and advance the in-order write
   head. A response for a dropped connection is discarded (its admission
   slot was released when the completion drained). *)
let complete t ~conn_id ~seq line =
  match Hashtbl.find_opt t.conns conn_id with
  | None -> ()
  | Some c ->
    Hashtbl.replace c.pending seq line;
    let advanced = ref false in
    let continue = ref true in
    while !continue do
      match Hashtbl.find_opt c.pending c.write_head with
      | None -> continue := false
      | Some l ->
        Hashtbl.remove c.pending c.write_head;
        enqueue c l;
        c.write_head <- c.write_head + 1;
        advanced := true
    done;
    if !advanced then begin
      if not (try_flush t c) then drop_conn t c
      else if c.eof && drained c then drop_conn t c
    end

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)

let wake t =
  try ignore (Unix.write_substring t.wake_w "x" 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    (* Pipe full: a wake-up byte is already pending, which is all we need. *)
    ()

(* One request through the server brain, rendered as its response line. *)
let answer t (env : Protocol.envelope) =
  let id = env.Protocol.id in
  match Server.handle t.server env.Protocol.request with
  | Ok fields -> Protocol.response_ok ~id fields
  | Error (kind, msg) -> Protocol.response_error ~id ~kind msg
  | exception e ->
    Protocol.response_error ~id ~kind:"internal" ("request raised: " ^ Printexc.to_string e)

(* A query arriving once this process is stopping: "try again elsewhere"
   is the honest answer. *)
let shed_stopping t ~conn_id ~seq (env : Protocol.envelope) =
  count t "serve.shed.overloaded" 1;
  complete t ~conn_id ~seq
    (Protocol.response_error ~id:env.Protocol.id ~kind:"overloaded" "server stopping")

let submit_query t ~conn_id ~seq (env : Protocol.envelope) =
  let tenant = Option.value ~default:"default" env.Protocol.tenant in
  match Admission.admit t.admission ~tenant with
  | Admission.Overloaded n ->
    complete t ~conn_id ~seq
      (Protocol.response_error ~id:env.Protocol.id ~kind:"overloaded"
         (Printf.sprintf "server at max in-flight (%d); retry later" n))
  | Admission.Quota_exceeded retry_s ->
    complete t ~conn_id ~seq
      (Protocol.response_error ~id:env.Protocol.id ~kind:"quota_exceeded"
         (Printf.sprintf "tenant %S out of quota; retry in %.3fs" tenant retry_s))
  | Admission.Admitted -> (
    let job () =
      let line = answer t env in
      Mutex.lock t.completions_lock;
      Queue.push (conn_id, seq, line) t.completions;
      Mutex.unlock t.completions_lock;
      wake t
    in
    t.pool_inflight <- t.pool_inflight + 1;
    match Tgd_exec.Pool.submit t.pool job with
    | Ok _ -> ()
    | Error reject ->
      t.pool_inflight <- t.pool_inflight - 1;
      Admission.release t.admission;
      let kind, msg =
        match reject with
        | `Overloaded depth -> ("overloaded", Printf.sprintf "queue full (%d waiting)" depth)
        | `Closed -> ("internal", "worker pool closed")
      in
      complete t ~conn_id ~seq (Protocol.response_error ~id:env.Protocol.id ~kind msg))

(* Release held requests in arrival order. A query goes to the pool (or is
   shed once stopping); a control op runs inline on the loop thread, but
   only once no pool query is in flight — so it sees every earlier query
   answered and no later one started. Mutations' WAL append + fsync inside
   [Server.handle] completes before the response line is queued,
   preserving fsync-before-ack per connection. *)
let rec run_held t =
  match Queue.peek_opt t.held with
  | None -> ()
  | Some (conn_id, seq, (env : Protocol.envelope)) -> (
    match env.Protocol.request with
    | Protocol.Prepare _ | Protocol.Execute _ ->
      ignore (Queue.pop t.held);
      if t.stopping then shed_stopping t ~conn_id ~seq env else submit_query t ~conn_id ~seq env;
      run_held t
    | _ when t.pool_inflight > 0 -> ()
    | Protocol.Shutdown ->
      ignore (Queue.pop t.held);
      t.stopping <- true;
      complete t ~conn_id ~seq
        (Protocol.response_ok ~id:env.Protocol.id [ ("stopping", Json.Bool true) ]);
      run_held t
    | _ ->
      ignore (Queue.pop t.held);
      complete t ~conn_id ~seq (answer t env);
      run_held t)

let handle_line t c line =
  let seq = c.next_seq in
  c.next_seq <- seq + 1;
  count t "serve.net.lines" 1;
  match Protocol.parse line with
  | Error (id, msg) ->
    complete t ~conn_id:c.id ~seq (Protocol.response_error ~id ~kind:"bad_request" msg)
  | Ok env -> (
    match env.Protocol.request with
    | Protocol.Ping ->
      complete t ~conn_id:c.id ~seq
        (Protocol.response_ok ~id:env.Protocol.id [ ("pong", Json.Bool true) ])
    | Protocol.Prepare _ | Protocol.Execute _ when Queue.is_empty t.held ->
      if t.stopping then shed_stopping t ~conn_id:c.id ~seq env
      else submit_query t ~conn_id:c.id ~seq env
    | Protocol.Prepare _ | Protocol.Execute _ | Protocol.Register_ontology _
    | Protocol.Load_csv _ | Protocol.Add_facts _ | Protocol.Materialize _ | Protocol.Snapshot _
    | Protocol.Stats | Protocol.Shutdown ->
      Queue.push (c.id, seq, env) t.held;
      run_held t)

(* ------------------------------------------------------------------ *)
(* Reading + framing                                                   *)

(* Split the fresh chunk on newlines: the first newline completes the
   accumulated partial (if any); the trailing partial is re-accumulated.
   '\r' before the newline is tolerated. A partial exceeding [max_line] is
   a framing failure: respond once and drop the connection (there is no
   reliable way to resynchronize). Returns [false] if the conn died. *)
let feed t c chunk len =
  let alive = ref true in
  let emit line =
    if !alive then begin
      let line =
        let n = String.length line in
        if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
      in
      if String.trim line <> "" then handle_line t c line;
      (* handle_line may have dropped the conn on a write error *)
      alive := Hashtbl.mem t.conns c.id
    end
  in
  let start = ref 0 in
  (try
     for i = 0 to len - 1 do
       if Bytes.get chunk i = '\n' then begin
         if Buffer.length c.acc > 0 then begin
           Buffer.add_subbytes c.acc chunk !start (i - !start);
           let line = Buffer.contents c.acc in
           Buffer.clear c.acc;
           emit line
         end
         else emit (Bytes.sub_string chunk !start (i - !start));
         start := i + 1;
         if not !alive then raise Exit
       end
     done
   with Exit -> ());
  if !alive then begin
    if len - !start > 0 then Buffer.add_subbytes c.acc chunk !start (len - !start);
    if Buffer.length c.acc > t.max_line then begin
      count t "serve.net.oversized" 1;
      let seq = c.next_seq in
      c.next_seq <- seq + 1;
      complete t ~conn_id:c.id ~seq
        (Protocol.response_error ~id:Json.Null ~kind:"bad_request"
           (Printf.sprintf "request line exceeds %d bytes" t.max_line));
      (* Deliver the error if the socket will take it, then cut. *)
      (match Hashtbl.find_opt t.conns c.id with
      | Some c -> drop_conn t c
      | None -> ());
      alive := false
    end
  end;
  !alive

let handle_readable t c =
  match Unix.read c.rfd t.scratch 0 (Bytes.length t.scratch) with
  | 0 ->
    (* EOF (or half-close): stop reading, but deliver every response the
       connection is still owed before closing. *)
    c.eof <- true;
    if drained c then drop_conn t c
  | n -> ignore (feed t c t.scratch n)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> drop_conn t c

(* ------------------------------------------------------------------ *)
(* Accept                                                              *)

let conn_ids = ref 0

let add_conn t ~rfd ~wfd ~owned =
  incr conn_ids;
  let c =
    {
      id = !conn_ids;
      rfd;
      wfd;
      owned;
      acc = Buffer.create 256;
      next_seq = 0;
      write_head = 0;
      pending = Hashtbl.create 4;
      out = Bytes.create 256;
      out_pos = 0;
      out_len = 0;
      eof = false;
    }
  in
  Hashtbl.replace t.conns c.id c;
  Hashtbl.replace t.by_fd rfd c;
  Hashtbl.replace t.by_fd wfd c;
  count t "serve.net.accepted" 1;
  Tgd_exec.Telemetry.gauge t.telemetry "serve.net.connections.peak" (Hashtbl.length t.conns)

(* [Unix.select] takes descriptors below [FD_SETSIZE] only, and raises
   [EINVAL] for the whole call when handed one above. *)
let fd_setsize = 1024

(* On Unix a [file_descr] is its descriptor number. *)
let fd_number (fd : Unix.file_descr) : int = Obj.magic fd

let handle_accept t l =
  match Unix.accept ~cloexec:true l.l_fd with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
    (* The client stays in the backlog until a descriptor frees up. *)
    count t "serve.net.accept_errors" 1;
    t.accept_paused_until <- Unix.gettimeofday () +. 0.05
  | fd, _ ->
    Unix.set_nonblock fd;
    let refuse why =
      count t "serve.net.rejected" 1;
      (* Best-effort shed notice; the socket buffer of a fresh connection
         takes one small line without blocking. *)
      let line = Protocol.response_error ~id:Json.Null ~kind:"overloaded" why ^ "\n" in
      (try ignore (Unix.write_substring fd line 0 (String.length line)) with _ -> ());
      try Unix.close fd with _ -> ()
    in
    if Hashtbl.length t.conns >= t.max_clients then
      refuse (Printf.sprintf "server at max clients (%d)" t.max_clients)
    else if fd_number fd >= fd_setsize then
      refuse (Printf.sprintf "server out of descriptors below %d" fd_setsize)
    else add_conn t ~rfd:fd ~wfd:fd ~owned:true

(* ------------------------------------------------------------------ *)
(* Completion drain                                                    *)

let drain_completions t =
  (* Clear the wake pipe first so a poke arriving mid-drain re-triggers. *)
  (try
     while Unix.read t.wake_r t.scratch 0 (Bytes.length t.scratch) = Bytes.length t.scratch do
       ()
     done
   with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ());
  let continue = ref true in
  while !continue do
    Mutex.lock t.completions_lock;
    let item = if Queue.is_empty t.completions then None else Some (Queue.pop t.completions) in
    Mutex.unlock t.completions_lock;
    match item with
    | None -> continue := false
    | Some (conn_id, seq, line) ->
      t.pool_inflight <- t.pool_inflight - 1;
      Admission.release t.admission;
      complete t ~conn_id ~seq line
  done

(* ------------------------------------------------------------------ *)
(* The loop                                                            *)

let serve ?workers ?(queue_bound = 64) ?(max_clients = 1024) ?(max_line = 8 * 1024 * 1024)
    ?rate ?burst ?max_inflight ?now ?adopt server ~listeners =
  if max_clients <= 0 then invalid_arg "Net.serve: max_clients must be positive";
  if max_line <= 0 then invalid_arg "Net.serve: max_line must be positive";
  let workers =
    match workers with
    | Some w when w > 0 -> w
    | Some _ -> invalid_arg "Net.serve: workers must be positive"
    | None -> Tgd_exec.Pool.default_workers ()
  in
  if queue_bound <= 0 then invalid_arg "Net.serve: queue_bound must be positive";
  let telemetry = Server.telemetry server in
  let max_inflight =
    match max_inflight with
    | Some m when m > 0 -> m
    | Some _ -> invalid_arg "Net.serve: max_inflight must be positive"
    | None -> workers + queue_bound
  in
  (* A peer that disconnects mid-response must surface as EPIPE on the
     write (handled per connection), not as a process-killing SIGPIPE. *)
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let admission = Admission.create ?now ?rate ?burst ~max_inflight ~telemetry () in
  (* The pool's own bound sits at the admission limit, so admission is the
     one place shedding decisions are made. *)
  let pool = Tgd_exec.Pool.create ~workers ~queue_bound:max_inflight () in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      server;
      pool;
      admission;
      telemetry;
      max_clients;
      max_line;
      conns = Hashtbl.create 64;
      by_fd = Hashtbl.create 64;
      completions = Queue.create ();
      completions_lock = Mutex.create ();
      wake_r;
      wake_w;
      pool_inflight = 0;
      held = Queue.create ();
      stopping = false;
      accept_paused_until = 0.;
      scratch = Bytes.create 65536;
    }
  in
  let listener_fds = List.map (fun l -> l.l_fd) listeners in
  List.iter Unix.set_nonblock listener_fds;
  (* Only the output side of an adopted pair goes non-blocking: reads
     happen only after select reports the input readable, so they cannot
     block, and the caller's input descriptor keeps its mode. *)
  Option.iter
    (fun (rfd, wfd) ->
      Unix.set_nonblock wfd;
      add_conn t ~rfd ~wfd ~owned:false)
    adopt;
  (* With no listener, the last connection closing is the end of input. *)
  let finished () =
    (t.stopping || (listeners = [] && Hashtbl.length t.conns = 0))
    && t.pool_inflight = 0 && Queue.is_empty t.held
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter close_listener listeners;
      Hashtbl.iter
        (fun _ c ->
          ignore (try_flush t c);
          release c)
        t.conns;
      Hashtbl.reset t.conns;
      Hashtbl.reset t.by_fd;
      (try Unix.close t.wake_r with _ -> ());
      (try Unix.close t.wake_w with _ -> ());
      Tgd_exec.Pool.shutdown t.pool)
    (fun () ->
      while not (finished ()) do
        let pause = t.accept_paused_until -. Unix.gettimeofday () in
        let reads =
          t.wake_r
          :: (if t.stopping || pause > 0. then [] else listener_fds)
          @ Hashtbl.fold (fun _ c acc -> if c.eof then acc else c.rfd :: acc) t.conns []
        in
        let writes =
          Hashtbl.fold
            (fun _ c acc -> if c.out_len > c.out_pos then c.wfd :: acc else acc)
            t.conns []
        in
        match Unix.select reads writes [] (if pause > 0. then pause else 1.0) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | readable, writable, _ ->
          (* Drain finished jobs first: it may unblock a held control op
             and it frees admission slots before new requests are parsed. *)
          drain_completions t;
          run_held t;
          List.iter
            (fun fd ->
              if List.memq fd listener_fds then
                List.iter (fun l -> if l.l_fd == fd then handle_accept t l) listeners
              else if fd != t.wake_r then
                match Hashtbl.find_opt t.by_fd fd with
                | Some c -> handle_readable t c
                | None -> ())
            readable;
          List.iter
            (fun fd ->
              match Hashtbl.find_opt t.by_fd fd with
              | Some c ->
                if not (try_flush t c) then drop_conn t c
                else if c.eof && drained c then drop_conn t c
              | None -> ())
            writable
      done;
      (* Final flush: give straggler connections a short grace window to
         take their last bytes, then cut. *)
      let deadline = Unix.gettimeofday () +. 2.0 in
      let rec flush_all () =
        let dirty =
          Hashtbl.fold
            (fun _ c acc -> if c.out_len > c.out_pos then c :: acc else acc)
            t.conns []
        in
        if dirty <> [] && Unix.gettimeofday () < deadline then begin
          let fds = List.map (fun c -> c.wfd) dirty in
          (match Unix.select [] fds [] 0.1 with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | _, writable, _ ->
            List.iter
              (fun fd ->
                match Hashtbl.find_opt t.by_fd fd with
                | Some c -> if not (try_flush t c) then drop_conn t c
                | None -> ())
              writable);
          flush_all ()
        end
      in
      flush_all ())
