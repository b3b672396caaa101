(* The serving-path battery: admission-control semantics under a virtual
   clock, and the network front end (lib/serve/net.ml) under concurrency,
   protocol abuse, and connection faults.

   Every net test runs the real event loop (Net.serve in a thread, over a
   Unix-domain or TCP socket) against real client sockets; the assertions
   are the protocol's contract: one typed response per request line,
   strictly in per-connection order, never a crash, and exact telemetry. *)

module Server = Tgd_serve.Server
module Net = Tgd_serve.Net
module Admission = Tgd_serve.Admission
module Telemetry = Tgd_exec.Telemetry

let uni_source = "professor(X) -> person(X). professor(ada). professor(turing)."
let execute_line ~id ?tenant () =
  let tenant = match tenant with None -> "" | Some t -> Printf.sprintf {|,"tenant":%S|} t in
  Printf.sprintf
    {|{"id":%d%s,"op":"execute","ontology":"uni","query":"q(X) :- person(X)."}|} id tenant

let register_line ~id =
  Printf.sprintf {|{"id":%d,"op":"register-ontology","name":"uni","source":%S}|} id uni_source

let expected_answers = {|"answers":[["ada"],["turing"]]|}

(* ------------------------------------------------------------------ *)
(* Blocking test clients                                               *)

type client = {
  fd : Unix.file_descr;
  rbuf : Buffer.t;
}

let connect_unix path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; rbuf = Buffer.create 256 }

let connect_tcp port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; rbuf = Buffer.create 256 }

let send c s =
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring c.fd s off (n - off)) in
  go 0

let send_line c s = send c (s ^ "\n")

(* One response line, or [None] on clean EOF. Bounded wait so a wedged
   server fails the test instead of hanging the suite. *)
let recv_line ?(timeout = 10.0) c =
  let chunk = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec take () =
    let s = Buffer.contents c.rbuf in
    match String.index_opt s '\n' with
    | Some i ->
      Buffer.clear c.rbuf;
      Buffer.add_substring c.rbuf s (i + 1) (String.length s - i - 1);
      Some (String.sub s 0 i)
    | None ->
      if Unix.gettimeofday () > deadline then Alcotest.fail "recv_line: timeout";
      (match Unix.select [ c.fd ] [] [] 0.5 with
      | [], _, _ -> take ()
      | _ -> (
        match Unix.read c.fd chunk 0 (Bytes.length chunk) with
        | 0 -> if Buffer.length c.rbuf = 0 then None else Alcotest.fail "EOF mid-line"
        | n ->
          Buffer.add_subbytes c.rbuf chunk 0 n;
          take ()))
  in
  take ()

let recv_line_exn ?timeout c =
  match recv_line ?timeout c with
  | Some l -> l
  | None -> Alcotest.fail "unexpected EOF"

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i j = j = nn || (hay.[i + j] = needle.[j] && at i (j + 1)) in
  let rec go i = i + nn <= nh && (at i 0 || go (i + 1)) in
  nn = 0 || go 0

let check_contains what line needle =
  Alcotest.(check bool) (what ^ ": " ^ needle ^ " in " ^ line) true (contains line needle)

(* Work the loop finishes after a client's last response — reaping a
   dropped peer, framing a dead connection's buffered lines — lands in
   telemetry a moment later: poll for it with a bounded wait. *)
let eventually ?(timeout = 5.0) f =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () = f () || (Unix.gettimeofday () < deadline && (Thread.delay 0.01; go ())) in
  go ()

(* ------------------------------------------------------------------ *)
(* Server harness: Net.serve in a thread, always joined.               *)

let with_server ?(workers = 2) ?queue_bound ?max_clients ?max_line ?rate ?burst ?max_inflight
    ?now f =
  let srv = Server.create () in
  let path = Filename.temp_file "tgd_net" ".sock" in
  let listener = Net.listen (Net.Unix_path path) in
  let thread =
    Thread.create
      (fun () ->
        Net.serve ~workers ?queue_bound ?max_clients ?max_line ?rate ?burst ?max_inflight ?now
          srv ~listeners:[ listener ])
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try
         let c = connect_unix path in
         send_line c {|{"id":-1,"op":"shutdown"}|};
         ignore (recv_line c);
         close c
       with _ -> ());
      Thread.join thread;
      Server.shutdown srv;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f path srv)

let registered c =
  let line = recv_line_exn c in
  check_contains "register" line {|"ok":true|};
  line

(* ------------------------------------------------------------------ *)
(* Net: round trips, interleaving, ordering                            *)

let test_roundtrip_and_interleave () =
  with_server @@ fun path srv ->
  let a = connect_unix path in
  send_line a (register_line ~id:1);
  ignore (registered a);
  let b = connect_unix path in
  (* Pipeline on both connections: per-connection order must hold even
     though the requests interleave through the pool. *)
  send_line b (execute_line ~id:10 ());
  send_line b {|{"id":11,"op":"ping"}|};
  send_line a (execute_line ~id:2 ());
  let b1 = recv_line_exn b in
  let b2 = recv_line_exn b in
  let a1 = recv_line_exn a in
  check_contains "b execute first" b1 {|{"id":10,|};
  check_contains "b execute answers" b1 expected_answers;
  check_contains "b ping second (in-order even though computed first)" b2 {|{"id":11,|};
  check_contains "b pong" b2 {|"pong":true|};
  check_contains "a execute" a1 {|{"id":2,|};
  check_contains "a answers" a1 expected_answers;
  close a;
  close b;
  let tel = Server.telemetry srv in
  Alcotest.(check bool) "accepted >= 2" true (Telemetry.get tel "serve.net.accepted" >= 2)

let test_tcp_listener () =
  let srv = Server.create () in
  let listener = Net.listen (Net.Tcp ("127.0.0.1", 0)) in
  let port =
    match Net.listener_addr listener with
    | Net.Tcp (_, p) -> p
    | Net.Unix_path _ -> Alcotest.fail "expected tcp addr"
  in
  Alcotest.(check bool) "ephemeral port bound" true (port > 0);
  let thread =
    Thread.create (fun () -> Net.serve ~workers:1 srv ~listeners:[ listener ]) ()
  in
  Fun.protect
    ~finally:(fun () ->
      Thread.join thread;
      Server.shutdown srv)
    (fun () ->
      let c = connect_tcp port in
      send_line c (register_line ~id:1);
      ignore (registered c);
      send_line c (execute_line ~id:2 ());
      check_contains "tcp execute" (recv_line_exn c) expected_answers;
      send_line c {|{"id":3,"op":"shutdown"}|};
      check_contains "tcp shutdown" (recv_line_exn c) {|"stopping":true|};
      close c)

let test_mutation_fence_ordering () =
  with_server @@ fun path _srv ->
  let c = connect_unix path in
  (* Pipelined: execute, mutate, execute. The fence must answer the first
     execute with the old instance and the second with the new fact. *)
  send_line c (register_line ~id:1);
  send_line c (execute_line ~id:2 ());
  send_line c {|{"id":3,"op":"add-facts","name":"uni","source":"professor,curie"}|};
  send_line c (execute_line ~id:4 ());
  ignore (registered c);
  let r2 = recv_line_exn c in
  let r3 = recv_line_exn c in
  let r4 = recv_line_exn c in
  check_contains "pre-mutation answers" r2 expected_answers;
  check_contains "mutation acked in order" r3 {|{"id":3,"ok":true|};
  check_contains "post-mutation answers include the new fact" r4 {|["curie"]|};
  close c

(* Two mutations fenced behind an in-flight query, with a query between
   them: held requests are released in arrival order, so the middle query
   sees the first mutation and not the second. One write puts every line
   in the loop's hands while the first execute is still in flight. *)
let test_query_between_mutations () =
  with_server @@ fun path _srv ->
  let c = connect_unix path in
  send c
    (String.concat "\n"
       [
         register_line ~id:1;
         execute_line ~id:2 ();
         {|{"id":3,"op":"add-facts","name":"uni","source":"professor,curie"}|};
         execute_line ~id:4 ();
         {|{"id":5,"op":"add-facts","name":"uni","source":"professor,noether"}|};
         execute_line ~id:6 ();
       ]
    ^ "\n");
  ignore (registered c);
  check_contains "first query sees neither" (recv_line_exn c) expected_answers;
  check_contains "first mutation acked" (recv_line_exn c) {|{"id":3,"ok":true|};
  let r4 = recv_line_exn c in
  check_contains "middle query sees the first mutation" r4 {|["curie"]|};
  Alcotest.(check bool) "middle query does not see the second" false (contains r4 "noether");
  check_contains "second mutation acked" (recv_line_exn c) {|{"id":5,"ok":true|};
  check_contains "last query sees both" (recv_line_exn c) {|["noether"]|};
  close c

(* ------------------------------------------------------------------ *)
(* Net: protocol fault injection                                       *)

let test_malformed_lines_keep_connection () =
  with_server @@ fun path _srv ->
  let c = connect_unix path in
  send_line c (register_line ~id:1);
  ignore (registered c);
  send_line c "this is not json";
  check_contains "garbage -> typed error" (recv_line_exn c) {|"kind":"bad_request"|};
  send_line c {|{"op":|};
  check_contains "truncated json -> typed error" (recv_line_exn c) {|"kind":"bad_request"|};
  send_line c {|{"id":7,"op":"no-such-op"}|};
  let r = recv_line_exn c in
  check_contains "unknown op keeps the id" r {|{"id":7,|};
  check_contains "unknown op -> typed error" r {|"kind":"bad_request"|};
  send_line c {|{"id":8,"op":"execute","ontology":"uni","query":"q(X) :- person(X).","tenant":42}|};
  check_contains "non-string tenant -> typed error" (recv_line_exn c) {|"kind":"bad_request"|};
  (* Binary garbage (no newline bytes inside) is one malformed line. *)
  send c "\x00\x01\xfe\xff\x80garbage\x00\n";
  check_contains "binary garbage -> typed error" (recv_line_exn c) {|"kind":"bad_request"|};
  (* The connection survived all of it. *)
  send_line c (execute_line ~id:9 ());
  check_contains "connection still serves" (recv_line_exn c) expected_answers;
  close c

let test_oversized_line_drops_connection () =
  with_server ~max_line:256 @@ fun path _srv ->
  let a = connect_unix path in
  send_line a (register_line ~id:1);
  ignore (registered a);
  let b = connect_unix path in
  send b (String.make 600 'x');
  (* One typed error, then a clean drop. *)
  check_contains "oversize -> typed error" (recv_line_exn b) {|"kind":"bad_request"|};
  Alcotest.(check bool) "oversize -> connection dropped" true (recv_line b = None);
  close b;
  (* Other connections are untouched. *)
  send_line a (execute_line ~id:2 ());
  check_contains "survivor still serves" (recv_line_exn a) expected_answers;
  close a

(* A request nesting arrays far past the parser's depth bound is one
   malformed line, refused at once; the connection keeps serving. *)
let test_deep_nesting_is_a_bad_request () =
  with_server @@ fun path _srv ->
  let c = connect_unix path in
  let nested k = String.make k '[' ^ String.make k ']' in
  send_line c (Printf.sprintf {|{"id":%s,"op":"ping"}|} (nested 100_000));
  check_contains "deep id -> typed error" (recv_line_exn c) {|"kind":"bad_request"|};
  (* The request object is one level: 63 arrays inside it reach the bound. *)
  send_line c (Printf.sprintf {|{"id":%s,"op":"ping"}|} (nested 63));
  check_contains "nesting at the bound is served" (recv_line_exn c) {|"pong":true|};
  send_line c {|{"id":2,"op":"ping"}|};
  check_contains "the next ping is answered" (recv_line_exn c) {|"id":2|};
  close c

(* /dev/null descriptors held by the test, so that the server's next
   accept gets a high descriptor number, or none at all. *)
let fd_number (fd : Unix.file_descr) : int = Obj.magic fd

let with_fillers f =
  let fillers = ref [] in
  Fun.protect
    ~finally:(fun () -> List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !fillers)
    (fun () -> f (fun fd -> fillers := fd :: !fillers))

let open_null () = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0

(* [Unix.select] cannot watch a descriptor numbered 1024 or more: the
   server refuses such a connection as [overloaded] and keeps serving the
   ones it has. *)
let test_high_descriptor_is_refused () =
  with_server @@ fun path srv ->
  let a = connect_unix path in
  send_line a {|{"id":1,"op":"ping"}|};
  check_contains "first client served" (recv_line_exn a) {|"pong":true|};
  let b = { fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0; rbuf = Buffer.create 256 } in
  with_fillers (fun hold ->
      let rec fill () =
        match open_null () with
        | fd ->
          hold fd;
          if fd_number fd < 1023 then fill ()
        | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
          Alcotest.skip ()
      in
      fill ();
      Unix.connect b.fd (Unix.ADDR_UNIX path);
      check_contains "high descriptor -> overloaded" (recv_line_exn b) {|"kind":"overloaded"|};
      Alcotest.(check bool) "and closed" true (recv_line b = None);
      send_line a {|{"id":2,"op":"ping"}|};
      check_contains "earlier client still served" (recv_line_exn a) {|"id":2|});
  close b;
  close a;
  Alcotest.(check int) "rejection counted" 1
    (Telemetry.get (Server.telemetry srv) "serve.net.rejected")

(* With every descriptor taken, accept fails with EMFILE: the server
   counts it, keeps serving, and accepts the waiting client once
   descriptors free up. *)
let test_out_of_descriptors_pauses_accept () =
  with_server @@ fun path srv ->
  let a = connect_unix path in
  send_line a {|{"id":1,"op":"ping"}|};
  check_contains "first client served" (recv_line_exn a) {|"pong":true|};
  let b = { fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0; rbuf = Buffer.create 256 } in
  let accept_errors () = Telemetry.get (Server.telemetry srv) "serve.net.accept_errors" in
  with_fillers (fun hold ->
      let rec fill n =
        if n = 0 then Alcotest.skip ();
        match open_null () with
        | fd ->
          hold fd;
          fill (n - 1)
        | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) -> ()
      in
      fill 100_000;
      Unix.connect b.fd (Unix.ADDR_UNIX path);
      Alcotest.(check bool) "accept failure counted" true (eventually (fun () -> accept_errors () > 0));
      send_line a {|{"id":2,"op":"ping"}|};
      check_contains "earlier client still served" (recv_line_exn a) {|"id":2|});
  send_line b {|{"id":3,"op":"ping"}|};
  check_contains "the waiting client is served" (recv_line_exn b) {|"id":3|};
  close b;
  close a

let test_disconnect_mid_request () =
  with_server @@ fun path srv ->
  let a = connect_unix path in
  send_line a (register_line ~id:1);
  ignore (registered a);
  (* Disconnect with a request in flight: its response has nowhere to go
     and must be discarded without disturbing anyone else. *)
  let b = connect_unix path in
  send_line b (execute_line ~id:2 ());
  close b;
  (* Disconnect mid-line: an unterminated partial request is abandoned. *)
  let d = connect_unix path in
  send d {|{"id":3,"op":"exec|};
  close d;
  (* The loop processes the corpses; the survivor still gets answers. *)
  send_line a (execute_line ~id:4 ());
  check_contains "survivor answers" (recv_line_exn a) expected_answers;
  close a;
  let tel = Server.telemetry srv in
  Alcotest.(check bool) "drops counted" true
    (eventually (fun () -> Telemetry.get tel "serve.net.closed" >= 2))

let test_half_closed_socket_gets_all_responses () =
  with_server @@ fun path _srv ->
  let c = connect_unix path in
  send_line c (register_line ~id:1);
  send_line c (execute_line ~id:2 ());
  send_line c {|{"id":3,"op":"ping"}|};
  (* Half-close: we will never write again, but we are owed 3 responses. *)
  Unix.shutdown c.fd Unix.SHUTDOWN_SEND;
  ignore (registered c);
  check_contains "half-closed still gets execute" (recv_line_exn c) expected_answers;
  check_contains "half-closed still gets ping" (recv_line_exn c) {|"pong":true|};
  Alcotest.(check bool) "then a clean EOF" true (recv_line c = None);
  close c

(* Blank out the digits of every ["wall_s"] field: the one part of a
   reply that differs between two servers answering the same requests. *)
let mask_wall s =
  let key = {|"wall_s":|} in
  let out = Buffer.create (String.length s) in
  let n = String.length s and k = String.length key in
  let rec go i =
    if i < n then
      if i + k <= n && String.sub s i k = key then begin
        Buffer.add_string out key;
        Buffer.add_char out '#';
        let rec skip j = if j < n && String.contains "0123456789.e-+" s.[j] then skip (j + 1) else j in
        go (skip (i + k))
      end
      else begin
        Buffer.add_char out s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents out

(* Replies far larger than the socket buffer, to a client that reads late
   and in small pieces: each leaves the server in many partial writes and
   must arrive byte for byte as the server rendered it (timings aside). *)
let test_slow_reader_gets_exact_replies () =
  let facts =
    List.init 20_000 (fun i -> Printf.sprintf "professor(p%05d_of_a_long_faculty_list)." i)
  in
  let register =
    Printf.sprintf {|{"id":1,"op":"register-ontology","name":"uni","source":%S}|}
      (String.concat " " ("professor(X) -> person(X)." :: facts))
  in
  let executes = List.init 3 (fun k -> execute_line ~id:(2 + k) ()) in
  let rendered =
    let srv = Server.create () in
    Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
    List.map
      (fun line ->
        match Tgd_serve.Protocol.parse line with
        | Error _ -> Alcotest.fail "request does not parse"
        | Ok env -> (
          let id = env.Tgd_serve.Protocol.id in
          match Server.handle srv env.Tgd_serve.Protocol.request with
          | Ok fields -> Tgd_serve.Protocol.response_ok ~id fields
          | Error (kind, msg) -> Tgd_serve.Protocol.response_error ~id ~kind msg))
      (register :: executes)
  in
  Alcotest.(check bool) "replies exceed the socket buffer" true
    (String.length (List.nth rendered 1) > 400_000);
  (* One worker answers the executes in order, so only the first misses
     the prepared cache, as in the rendering above. *)
  with_server ~workers:1 @@ fun path _srv ->
  let c = connect_unix path in
  List.iter (send_line c) (register :: executes);
  Thread.delay 0.2;
  let chunk = Bytes.create 997 in
  let received = Buffer.create (1 lsl 20) in
  let lines = ref 0 in
  let deadline = Unix.gettimeofday () +. 20.0 in
  while !lines < List.length rendered && Unix.gettimeofday () < deadline do
    match Unix.select [ c.fd ] [] [] 0.5 with
    | [], _, _ -> ()
    | _ -> (
      match Unix.read c.fd chunk 0 (Bytes.length chunk) with
      | 0 -> Alcotest.fail "EOF before every reply"
      | n ->
        Buffer.add_subbytes received chunk 0 n;
        for i = 0 to n - 1 do
          if Bytes.get chunk i = '\n' then incr lines
        done)
  done;
  close c;
  Alcotest.(check string) "the bytes the server rendered"
    (mask_wall (String.concat "\n" rendered ^ "\n"))
    (mask_wall (Buffer.contents received))

let test_max_clients_rejection () =
  with_server ~max_clients:1 @@ fun path srv ->
  let a = connect_unix path in
  send_line a {|{"id":1,"op":"ping"}|};
  check_contains "first client served" (recv_line_exn a) {|"pong":true|};
  let b = connect_unix path in
  let r = recv_line_exn b in
  check_contains "beyond max-clients -> overloaded" r {|"kind":"overloaded"|};
  Alcotest.(check bool) "and closed" true (recv_line b = None);
  close b;
  close a;
  Alcotest.(check int) "rejection counted" 1
    (Telemetry.get (Server.telemetry srv) "serve.net.rejected")

(* ------------------------------------------------------------------ *)
(* Net: concurrency stress                                             *)

let test_stress_no_lost_no_dup () =
  let n_conns = 8 and m_reqs = 25 in
  with_server ~workers:4 ~max_inflight:(n_conns * m_reqs) @@ fun path srv ->
  let c0 = connect_unix path in
  send_line c0 (register_line ~id:0);
  ignore (registered c0);
  let clients = Array.init n_conns (fun _ -> connect_unix path) in
  (* Pipeline everything up front: maximal interleaving through the pool. *)
  Array.iteri
    (fun ci c ->
      for k = 0 to m_reqs - 1 do
        let id = (ci * 1000) + k in
        if k mod 5 = 4 then send_line c (Printf.sprintf {|{"id":%d,"op":"ping"}|} id)
        else send_line c (execute_line ~id ())
      done)
    clients;
  (* Every connection gets exactly its m responses, ids strictly in send
     order, answers byte-identical on every execute. *)
  Array.iteri
    (fun ci c ->
      for k = 0 to m_reqs - 1 do
        let id = (ci * 1000) + k in
        let line = recv_line_exn c in
        check_contains "in-order id" line (Printf.sprintf {|{"id":%d,|} id);
        if k mod 5 = 4 then check_contains "pong" line {|"pong":true|}
        else check_contains "answers" line expected_answers
      done)
    clients;
  (* And not one response more. *)
  Array.iter
    (fun c ->
      Unix.shutdown c.fd Unix.SHUTDOWN_SEND;
      Alcotest.(check bool) "no extra responses" true (recv_line c = None);
      close c)
    clients;
  close c0;
  let tel = Server.telemetry srv in
  Alcotest.(check int) "every line counted"
    ((n_conns * m_reqs) + 1)
    (Telemetry.get tel "serve.net.lines");
  Alcotest.(check int) "nothing shed: overloaded" 0 (Telemetry.get tel "serve.shed.overloaded");
  Alcotest.(check int) "nothing shed: quota" 0 (Telemetry.get tel "serve.shed.quota");
  Alcotest.(check int) "accepted" (n_conns + 1) (Telemetry.get tel "serve.net.accepted")

let test_overload_shedding_exact_telemetry () =
  let m = 30 in
  with_server ~workers:1 ~max_inflight:1 @@ fun path srv ->
  let c = connect_unix path in
  send_line c (register_line ~id:0);
  ignore (registered c);
  let reqs = Buffer.create 4096 in
  for k = 1 to m do
    Buffer.add_string reqs (execute_line ~id:k ());
    Buffer.add_char reqs '\n'
  done;
  send c (Buffer.contents reqs);
  let served = ref 0 and shed = ref 0 in
  for k = 1 to m do
    let line = recv_line_exn c in
    check_contains "in-order id" line (Printf.sprintf {|{"id":%d,|} k);
    if contains line {|"kind":"overloaded"|} then incr shed
    else begin
      check_contains "served answers" line expected_answers;
      incr served
    end
  done;
  close c;
  Alcotest.(check int) "every request answered exactly once" m (!served + !shed);
  Alcotest.(check bool) "the burst actually overloaded the server" true (!shed > 0);
  Alcotest.(check int) "client-observed sheds == serve.shed.overloaded" !shed
    (Telemetry.get (Server.telemetry srv) "serve.shed.overloaded")

let test_close_during_drain () =
  let n_conns = 6 and m_reqs = 20 in
  with_server ~workers:2 ~max_inflight:(n_conns * m_reqs) @@ fun path srv ->
  let c0 = connect_unix path in
  send_line c0 (register_line ~id:0);
  ignore (registered c0);
  let clients = Array.init n_conns (fun _ -> connect_unix path) in
  Array.iteri
    (fun ci c ->
      for k = 0 to m_reqs - 1 do
        send_line c (execute_line ~id:((ci * 1000) + k) ())
      done)
    clients;
  (* A line still in the kernel when its connection dies is never framed:
     the first response write to a closed peer fails (EPIPE) and the server
     drops the connection without reading what is left. So close only
     once every line has been framed, or the count depends on how the
     reads raced the writes. *)
  let tel = Server.telemetry srv in
  let expected = (n_conns * m_reqs) + 1 in
  Alcotest.(check bool) "every line framed before the closes" true
    (eventually (fun () -> Telemetry.get tel "serve.net.lines" >= expected));
  (* Kill the odd connections while their requests drain through the pool;
     the even ones must still get every response, in order. *)
  Array.iteri (fun ci c -> if ci mod 2 = 1 then close c) clients;
  Array.iteri
    (fun ci c ->
      if ci mod 2 = 0 then begin
        for k = 0 to m_reqs - 1 do
          let line = recv_line_exn c in
          check_contains "survivor in-order id" line
            (Printf.sprintf {|{"id":%d,|} ((ci * 1000) + k));
          check_contains "survivor answers" line expected_answers
        done;
        close c
      end)
    clients;
  close c0;
  Alcotest.(check int) "every line was framed and counted" expected
    (Telemetry.get tel "serve.net.lines")

(* ------------------------------------------------------------------ *)
(* Net: quotas end to end under a virtual clock                        *)

let test_quota_over_net () =
  let clock = Atomic.make 1000.0 in
  let now () = Atomic.get clock in
  with_server ~rate:1.0 ~burst:2.0 ~now @@ fun path srv ->
  let c = connect_unix path in
  send_line c (register_line ~id:0);
  ignore (registered c);
  (* Tenant t1 burns its burst of 2; the third request is shed with a
     deterministic retry hint (bucket empty, rate 1/s -> 1.000s). *)
  send_line c (execute_line ~id:1 ~tenant:"t1" ());
  send_line c (execute_line ~id:2 ~tenant:"t1" ());
  send_line c (execute_line ~id:3 ~tenant:"t1" ());
  check_contains "t1 first" (recv_line_exn c) expected_answers;
  check_contains "t1 second" (recv_line_exn c) expected_answers;
  let r3 = recv_line_exn c in
  check_contains "t1 third shed" r3 {|"kind":"quota_exceeded"|};
  check_contains "deterministic retry hint" r3 "retry in 1.000s";
  (* Tenant isolation: t2's bucket is untouched by t1's exhaustion. *)
  send_line c (execute_line ~id:4 ~tenant:"t2" ());
  check_contains "t2 unaffected" (recv_line_exn c) expected_answers;
  (* Virtual time passes; t1 earns one token back. *)
  Atomic.set clock 1001.0;
  send_line c (execute_line ~id:5 ~tenant:"t1" ());
  check_contains "t1 refilled after 1s" (recv_line_exn c) expected_answers;
  send_line c (execute_line ~id:6 ~tenant:"t1" ());
  check_contains "but only one token" (recv_line_exn c) {|"kind":"quota_exceeded"|};
  close c;
  Alcotest.(check int) "sheds counted in serve.shed.quota" 2
    (Telemetry.get (Server.telemetry srv) "serve.shed.quota")

(* ------------------------------------------------------------------ *)
(* Admission unit semantics (virtual clock, no sockets)                *)

let mk_admission ?rate ?burst ?max_inflight clock =
  Admission.create ~now:(fun () -> Atomic.get clock) ?rate ?burst ?max_inflight
    ~telemetry:(Telemetry.create ()) ()

let test_admission_refill_determinism () =
  let clock = Atomic.make 0.0 in
  let a = mk_admission ~rate:2.0 ~burst:4.0 clock in
  for i = 1 to 4 do
    match Admission.admit a ~tenant:"t" with
    | Admission.Admitted -> ()
    | _ -> Alcotest.fail (Printf.sprintf "burst admit %d refused" i)
  done;
  (match Admission.admit a ~tenant:"t" with
  | Admission.Quota_exceeded retry -> Alcotest.(check (float 1e-9)) "retry = 1/rate" 0.5 retry
  | _ -> Alcotest.fail "expected quota_exceeded");
  (* A quarter second refills half a token: still short, retry shrinks. *)
  Atomic.set clock 0.25;
  (match Admission.admit a ~tenant:"t" with
  | Admission.Quota_exceeded retry -> Alcotest.(check (float 1e-9)) "retry shrinks" 0.25 retry
  | _ -> Alcotest.fail "expected quota_exceeded");
  Atomic.set clock 0.5;
  (match Admission.admit a ~tenant:"t" with
  | Admission.Admitted -> ()
  | _ -> Alcotest.fail "expected admit after exact refill");
  (* The bucket never refills beyond burst. *)
  Atomic.set clock 1000.0;
  Alcotest.(check (float 1e-9)) "capped at burst" 4.0 (Admission.tokens a ~tenant:"t")

let test_admission_tenant_isolation () =
  let clock = Atomic.make 0.0 in
  let tel = Telemetry.create () in
  let a =
    Admission.create ~now:(fun () -> Atomic.get clock) ~rate:1.0 ~burst:1.0 ~telemetry:tel ()
  in
  (match Admission.admit a ~tenant:"greedy" with
  | Admission.Admitted -> ()
  | _ -> Alcotest.fail "greedy first");
  for _ = 1 to 5 do
    match Admission.admit a ~tenant:"greedy" with
    | Admission.Quota_exceeded _ -> ()
    | _ -> Alcotest.fail "greedy should be dry"
  done;
  (match Admission.admit a ~tenant:"modest" with
  | Admission.Admitted -> ()
  | _ -> Alcotest.fail "greedy must not starve modest");
  Alcotest.(check int) "exact shed telemetry" 5 (Telemetry.get tel "serve.shed.quota")

let test_admission_overload_precedence () =
  let clock = Atomic.make 0.0 in
  let a = mk_admission ~rate:1.0 ~burst:1.0 ~max_inflight:2 clock in
  (match Admission.admit a ~tenant:"a" with Admission.Admitted -> () | _ -> Alcotest.fail "a");
  (match Admission.admit a ~tenant:"b" with Admission.Admitted -> () | _ -> Alcotest.fail "b");
  (* Server full: even a tenant with an empty bucket sees Overloaded (the
     overload check runs first, so full servers don't drain buckets). *)
  (match Admission.admit a ~tenant:"a" with
  | Admission.Overloaded n -> Alcotest.(check int) "inflight at rejection" 2 n
  | _ -> Alcotest.fail "expected overloaded");
  Alcotest.(check (float 1e-9)) "no token spent while overloaded" 0.0
    (Admission.tokens a ~tenant:"a");
  Admission.release a;
  Alcotest.(check int) "release frees a slot" 1 (Admission.inflight a);
  (match Admission.admit a ~tenant:"c" with Admission.Admitted -> () | _ -> Alcotest.fail "c");
  Alcotest.check_raises "release underflow is a bug"
    (Invalid_argument "Admission.release: nothing in flight") (fun () ->
      Admission.release a;
      Admission.release a;
      Admission.release a)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "net"
    [
      ( "admission",
        [
          Alcotest.test_case "token-bucket refill is deterministic" `Quick
            test_admission_refill_determinism;
          Alcotest.test_case "greedy tenant cannot starve another" `Quick
            test_admission_tenant_isolation;
          Alcotest.test_case "overload check precedes quota" `Quick
            test_admission_overload_precedence;
        ] );
      ( "net",
        [
          Alcotest.test_case "roundtrip + cross-connection interleave" `Quick
            test_roundtrip_and_interleave;
          Alcotest.test_case "tcp listener on an ephemeral port" `Quick test_tcp_listener;
          Alcotest.test_case "mutation fence orders pipelined requests" `Quick
            test_mutation_fence_ordering;
          Alcotest.test_case "query between two mutations sees only the first" `Quick
            test_query_between_mutations;
        ] );
      ( "faults",
        [
          Alcotest.test_case "malformed lines keep the connection" `Quick
            test_malformed_lines_keep_connection;
          Alcotest.test_case "oversized line: typed error then drop" `Quick
            test_oversized_line_drops_connection;
          Alcotest.test_case "disconnect mid-request" `Quick test_disconnect_mid_request;
          Alcotest.test_case "deep nesting is a bad request" `Quick
            test_deep_nesting_is_a_bad_request;
          Alcotest.test_case "a descriptor past select's limit is refused" `Quick
            test_high_descriptor_is_refused;
          Alcotest.test_case "out of descriptors: accept pauses" `Quick
            test_out_of_descriptors_pauses_accept;
          Alcotest.test_case "half-closed socket gets all responses" `Quick
            test_half_closed_socket_gets_all_responses;
          Alcotest.test_case "slow reader gets the exact replies" `Quick
            test_slow_reader_gets_exact_replies;
          Alcotest.test_case "max-clients rejection" `Quick test_max_clients_rejection;
        ] );
      ( "stress",
        [
          Alcotest.test_case "N x M pipelined: no lost/dup, exact telemetry" `Quick
            test_stress_no_lost_no_dup;
          Alcotest.test_case "overload shedding: exact telemetry" `Quick
            test_overload_shedding_exact_telemetry;
          Alcotest.test_case "close during drain" `Quick test_close_during_drain;
        ] );
      ( "quota",
        [ Alcotest.test_case "per-tenant quotas over the wire" `Quick test_quota_over_net ] );
    ]
