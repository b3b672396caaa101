(* The one Domain worker pool: a bounded job queue consumed by a fixed set
   of domains, plus a caller-participating batch runner for morsel-driven
   parallel work. The request executor (lib/serve), the parallel evaluator
   (lib/db) and UCQ minimization (lib/logic) all draw workers from it. *)

let env_domains () =
  match Sys.getenv_opt "TGDLIB_DOMAINS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | Some _ | None -> None)

let default_workers () =
  match env_domains () with
  | Some n -> n
  | None -> max 1 (min 8 (Domain.recommended_domain_count ()))

type reject =
  [ `Overloaded of int
  | `Closed ]

type t = {
  lock : Mutex.t;
  nonempty : Condition.t;
  idle : Condition.t;
  queue : (unit -> unit) Queue.t;
  bound : int option;
  mutable closed : bool;
  mutable running : int;
  mutable domains : unit Domain.t list;
  size : int;
}

let worker t () =
  let rec loop () =
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not t.closed do
      Condition.wait t.nonempty t.lock
    done;
    if Queue.is_empty t.queue then
      (* closed and drained *)
      Mutex.unlock t.lock
    else begin
      let job = Queue.pop t.queue in
      t.running <- t.running + 1;
      Mutex.unlock t.lock;
      (* A raising job must never take a worker down; error accounting is
         the submitter's business (wrap the thunk). *)
      (try job () with _ -> ());
      Mutex.protect t.lock (fun () ->
          t.running <- t.running - 1;
          if t.running = 0 && Queue.is_empty t.queue then Condition.broadcast t.idle);
      loop ()
    end
  in
  loop ()

let create ?workers ?queue_bound () =
  (match queue_bound with
  | Some b when b <= 0 -> invalid_arg "Pool.create: queue_bound must be positive"
  | _ -> ());
  let workers =
    match workers with
    | Some w when w > 0 -> w
    | Some _ -> invalid_arg "Pool.create: workers must be positive"
    | None -> default_workers ()
  in
  (* Never spawn more worker domains than the hardware can run: every
     minor collection is a stop-the-world barrier across all domains, and
     when runnable domains outnumber cores the barrier pays OS scheduling
     latency to assemble — measured as a 972 -> 207 rps collapse on the
     serve bench. Extra requested workers add nothing a core-sized pool
     can't do (the queue is work-conserving), so the request is clamped.
     TGDLIB_OVERSUBSCRIBE=1 disables the clamp for experiments. *)
  let workers =
    let oversubscribe =
      match Sys.getenv_opt "TGDLIB_OVERSUBSCRIBE" with
      | Some ("1" | "true" | "yes") -> true
      | Some _ | None -> false
    in
    if oversubscribe then workers
    else min workers (max 1 (Domain.recommended_domain_count ()))
  in
  let t =
    {
      lock = Mutex.create ();
      nonempty = Condition.create ();
      idle = Condition.create ();
      queue = Queue.create ();
      bound = queue_bound;
      closed = false;
      running = 0;
      domains = [];
      size = workers;
    }
  in
  t.domains <- List.init workers (fun _ -> Domain.spawn (worker t));
  t

let size t = t.size

let submit t job =
  Mutex.protect t.lock (fun () ->
      if t.closed then Error `Closed
      else
        match t.bound with
        | Some b when Queue.length t.queue >= b -> Error (`Overloaded (Queue.length t.queue))
        | _ ->
          Queue.push job t.queue;
          Condition.signal t.nonempty;
          Ok (Queue.length t.queue))

let drain t =
  Mutex.protect t.lock (fun () ->
      while not (Queue.is_empty t.queue && t.running = 0) do
        Condition.wait t.idle t.lock
      done)

let shutdown t =
  let doms =
    Mutex.protect t.lock (fun () ->
        if t.closed then []
        else begin
          t.closed <- true;
          Condition.broadcast t.nonempty;
          let doms = t.domains in
          t.domains <- [];
          doms
        end)
  in
  List.iter Domain.join doms

(* ------------------------------------------------------------------ *)
(* Morsel batches                                                      *)

let run_morsels t ~n f =
  if n > 0 then begin
    let next = Atomic.make 0 in
    let completed = Atomic.make 0 in
    let failure : exn option Atomic.t = Atomic.make None in
    let batch_lock = Mutex.create () in
    let batch_done = Condition.create () in
    let drainer () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (if Atomic.get failure = None then
             try f i with e -> ignore (Atomic.compare_and_set failure None (Some e)));
          let d = 1 + Atomic.fetch_and_add completed 1 in
          if d = n then begin
            Mutex.lock batch_lock;
            Condition.broadcast batch_done;
            Mutex.unlock batch_lock
          end;
          loop ()
        end
      in
      loop ()
    in
    (* Enlist up to [size] helper jobs; shedding (queue full, closed) is
       harmless because the caller drains whatever the helpers do not. *)
    let helpers = min t.size (n - 1) in
    for _ = 1 to helpers do
      ignore (submit t drainer)
    done;
    drainer ();
    Mutex.lock batch_lock;
    while Atomic.get completed < n do
      Condition.wait batch_done batch_lock
    done;
    Mutex.unlock batch_lock;
    match Atomic.get failure with Some e -> raise e | None -> ()
  end
