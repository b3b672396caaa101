type stop_reason =
  | Deadline of float
  | Cancelled
  | Limit of {
      counter : string;
      limit : int;
    }

let stop_reason_to_string = function
  | Deadline s -> Printf.sprintf "deadline: %gs wall-clock budget exhausted" s
  | Cancelled -> "cancelled"
  | Limit { counter; limit } -> Printf.sprintf "budget: %s limit %d reached" counter limit

type diagnostics = {
  reason : stop_reason;
  wall_s : float;
  counters : (string * int) list;
  peaks : (string * int) list;
  phases : (string * float) list;
}

let diag_summary d = stop_reason_to_string d.reason

let pp_diagnostics ppf d =
  Format.fprintf ppf "@[<v>truncated: %s (%.3fs elapsed)" (stop_reason_to_string d.reason) d.wall_s;
  List.iter (fun (k, v) -> Format.fprintf ppf "@,  %s = %d" k v) d.counters;
  List.iter (fun (k, v) -> Format.fprintf ppf "@,  peak %s = %d" k v) d.peaks;
  Format.fprintf ppf "@]"

type t = {
  budget : Budget.t;
  cancel : (unit -> bool) option;
  telemetry : Telemetry.t;
  started : float;
  deadline_abs : float option;
  mutable stopped : stop_reason option;
  mutable polls : int;
}

let create ?(budget = Budget.unlimited) ?cancel ?telemetry () =
  let started = Unix.gettimeofday () in
  {
    budget;
    cancel;
    telemetry = (match telemetry with Some t -> t | None -> Telemetry.create ());
    started;
    deadline_abs = Option.map (fun s -> started +. s) budget.Budget.deadline_s;
    stopped = None;
    polls = 0;
  }

let unlimited () = create ()
let telemetry g = g.telemetry
let elapsed_s g = Unix.gettimeofday () -. g.started

let stop g reason = if g.stopped = None then g.stopped <- Some reason

(* Re-check the external stop sources: one clock read and one callback.
   [charge] and [gauge] sit at coarse loop levels and call it every time;
   [live] and [tick] run per tuple and go through [poll]'s stride. *)
let refresh g =
  if g.stopped = None then begin
    (match g.deadline_abs with
    | Some d when Unix.gettimeofday () > d ->
      stop g (Deadline (Option.value ~default:0.0 g.budget.Budget.deadline_s))
    | _ -> ());
    match g.cancel with
    | Some f when g.stopped = None && f () -> stop g Cancelled
    | _ -> ()
  end

(* Poll stride: deadline and cancellation are re-checked every 64 calls of
   [live] and [tick] together. The counter is shared by every domain
   running the governor and updated without synchronisation; a lost
   increment only shifts the next re-check. *)
let poll_mask = 0x3f

let poll g =
  g.polls <- g.polls + 1;
  if g.polls land poll_mask = 0 then refresh g

let live g =
  match g.stopped with
  | Some _ -> false
  | None ->
    poll g;
    g.stopped = None

(* A counter key's budget limit; [max_int] stands for none. *)
let limit_of g key = Option.value ~default:max_int (Budget.limit g.budget key)

(* The one place a counter budget stops a run: at [value >= limit]. *)
let check_limit g key limit v = if v >= limit then stop g (Limit { counter = key; limit })

let charge ?(n = 1) g key =
  check_limit g key (limit_of g key) (Telemetry.add g.telemetry key n);
  refresh g

type meter = {
  gov : t;
  key : string;
  limit : int;
  mutable cell : int Atomic.t option; (* created by the first tick *)
}

let meter g key = { gov = g; key; limit = limit_of g key; cell = None }

let tick ?(n = 1) m =
  let cell =
    match m.cell with
    | Some c -> c
    | None ->
      let c = Telemetry.counter m.gov.telemetry m.key in
      m.cell <- Some c;
      c
  in
  check_limit m.gov m.key m.limit (Atomic.fetch_and_add cell n + n);
  poll m.gov

let gauge g key v =
  Telemetry.gauge g.telemetry key v;
  match Budget.limit g.budget key with
  | Some limit when v > limit -> stop g (Limit { counter = key; limit })
  | _ -> ()

let stopped g = g.stopped

let diagnostics g =
  match g.stopped with
  | None -> None
  | Some reason ->
    Some
      {
        reason;
        wall_s = elapsed_s g;
        counters = Telemetry.counters g.telemetry;
        peaks = Telemetry.peaks g.telemetry;
        phases = Telemetry.phases g.telemetry;
      }

let report_json ?(run = "run") ?(extra = []) g =
  let reason =
    match g.stopped with
    | None -> "null"
    | Some r -> Telemetry.json_string (stop_reason_to_string r)
  in
  let extra_fields =
    List.map (fun (k, v) -> Printf.sprintf ", %s: %s" (Telemetry.json_string k) v) extra
  in
  Printf.sprintf "{\"run\": %s, \"outcome\": %s, \"reason\": %s, \"wall_s\": %.6f, %s%s}"
    (Telemetry.json_string run)
    (Telemetry.json_string (match g.stopped with None -> "complete" | Some _ -> "truncated"))
    reason (elapsed_s g)
    (Telemetry.to_json_fields g.telemetry)
    (String.concat "" extra_fields)
