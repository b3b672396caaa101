(* Admission control for the network front end: a server-wide in-flight
   concurrency limit plus a per-tenant token bucket. Both checks happen
   before a request reaches the worker pool, so an overloaded server sheds
   with a typed response instead of queueing without bound, and one greedy
   tenant exhausts its own bucket without starving the others.

   The clock is injected ([now]) so refill behavior is exactly testable
   under a virtual clock; production uses [Unix.gettimeofday]. *)

type outcome =
  | Admitted
  | Overloaded of int  (* in-flight count at rejection *)
  | Quota_exceeded of float  (* seconds until the bucket next yields a token *)

type bucket = {
  mutable tokens : float;
  mutable last : float;  (* clock reading of the last refill *)
}

type t = {
  lock : Mutex.t;
  now : unit -> float;
  rate : float;  (* tokens/second granted to each tenant; +inf = no quota *)
  burst : float;  (* bucket capacity *)
  max_inflight : int;  (* 0 = unlimited *)
  mutable inflight : int;
  buckets : (string, bucket) Hashtbl.t;
  telemetry : Tgd_exec.Telemetry.t;
}

let key_shed_overloaded = "serve.shed.overloaded"
let key_shed_quota = "serve.shed.quota"
let key_inflight_peak = "serve.inflight.peak"

let create ?(now = Unix.gettimeofday) ?(rate = infinity) ?burst ?(max_inflight = 0) ~telemetry
    () =
  if rate <= 0.0 then invalid_arg "Admission.create: rate must be positive";
  if max_inflight < 0 then invalid_arg "Admission.create: max_inflight must be >= 0";
  let burst =
    match burst with
    | Some b when b >= 1.0 -> b
    | Some _ -> invalid_arg "Admission.create: burst must be >= 1"
    | None -> if rate = infinity then infinity else Float.max 1.0 rate
  in
  {
    lock = Mutex.create ();
    now;
    rate;
    burst;
    max_inflight;
    inflight = 0;
    buckets = Hashtbl.create 8;
    telemetry;
  }

let refill t b now =
  if now > b.last then begin
    b.tokens <- Float.min t.burst (b.tokens +. ((now -. b.last) *. t.rate));
    b.last <- now
  end

(* Take an in-flight slot and a token, or report why not. The overload
   check runs first: a saturated server sheds before it spends tokens, so
   quota accounting reflects work actually admitted. *)
let admit t ~tenant =
  let outcome =
    Mutex.protect t.lock (fun () ->
        if t.max_inflight > 0 && t.inflight >= t.max_inflight then Overloaded t.inflight
        else if t.rate = infinity then begin
          t.inflight <- t.inflight + 1;
          Admitted
        end
        else begin
          let b =
            match Hashtbl.find_opt t.buckets tenant with
            | Some b -> b
            | None ->
              let b = { tokens = t.burst; last = t.now () } in
              Hashtbl.add t.buckets tenant b;
              b
          in
          refill t b (t.now ());
          if b.tokens >= 1.0 then begin
            b.tokens <- b.tokens -. 1.0;
            t.inflight <- t.inflight + 1;
            Admitted
          end
          else Quota_exceeded ((1.0 -. b.tokens) /. t.rate)
        end)
  in
  (match outcome with
  | Admitted ->
    Tgd_exec.Telemetry.gauge t.telemetry key_inflight_peak
      (Mutex.protect t.lock (fun () -> t.inflight))
  | Overloaded _ -> ignore (Tgd_exec.Telemetry.add t.telemetry key_shed_overloaded 1)
  | Quota_exceeded _ -> ignore (Tgd_exec.Telemetry.add t.telemetry key_shed_quota 1));
  outcome

let release t =
  Mutex.protect t.lock (fun () ->
      if t.inflight <= 0 then invalid_arg "Admission.release: nothing in flight";
      t.inflight <- t.inflight - 1)

let inflight t = Mutex.protect t.lock (fun () -> t.inflight)

let tokens t ~tenant =
  Mutex.protect t.lock (fun () ->
      if t.rate = infinity then infinity
      else
        match Hashtbl.find_opt t.buckets tenant with
        | None -> t.burst
        | Some b ->
          refill t b (t.now ());
          b.tokens)
