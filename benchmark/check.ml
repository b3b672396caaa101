(* Correctness accounting and linear-time reply checks.

   Replies can be megabytes long (q5's answers), so a check never searches
   for the expected answers inside the reply: it locates the answers field
   by its short key, then compares the expected bytes at that offset. Every
   scan is linear in the reply. *)

type failure =
  | Error_reply  (** a typed error response *)
  | Shed  (** refused with [overloaded] *)
  | Inexact  (** [exact] false: truncated rewriting or evaluation *)
  | Mismatched  (** wrong id, order, shape or answers *)
  | Lost  (** no reply *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable reported : int;
}

let tally () = { attempted = 0; failed = 0; reported = 0 }

let label = function
  | Error_reply -> "error reply"
  | Shed -> "shed"
  | Inexact -> "inexact answer"
  | Mismatched -> "mismatch"
  | Lost -> "lost reply"

let excerpt s = if String.length s <= 160 then s else String.sub s 0 160 ^ "..."

(* Count a failure; the first few are printed with a [MISMATCH] marker. *)
let fail t ~workload kind detail =
  t.failed <- t.failed + 1;
  if t.reported < 5 then begin
    t.reported <- t.reported + 1;
    Printf.printf "[MISMATCH] %s: %s: %s\n%!" workload (label kind) (excerpt detail)
  end

(* ------------------------------------------------------------------ *)
(* Byte-level helpers                                                  *)

let matches_at s pos expected =
  let m = String.length expected in
  pos >= 0
  && pos + m <= String.length s
  &&
  let rec eq k = k = m || (String.unsafe_get s (pos + k) = String.unsafe_get expected k && eq (k + 1)) in
  eq 0

(* First index >= [from] where the short [needle] starts in [s], or -1.
   Candidates are found with [String.index_from_opt] on the needle's first
   byte, so the scan is linear for the short keys searched here. *)
let find s ~from needle =
  let n = String.length s and m = String.length needle in
  let rec go i =
    if i + m > n then -1
    else
      match String.index_from_opt s i needle.[0] with
      | None -> -1
      | Some j -> if j + m > n then -1 else if matches_at s j needle then j else go (j + 1)
  in
  if from >= n then -1 else go from

let ok_prefix id = Printf.sprintf {|{"id":%d,"ok":true|} id

(* Classify a reply that is not [ok]: shed, a typed error, or a reply to
   some other request (out of order or unaddressed). *)
let not_ok line ~id =
  if matches_at line 0 (Printf.sprintf {|{"id":%d,"ok":false|} id) then
    if find line ~from:0 {|"kind":"overloaded"|} >= 0 then Shed else Error_reply
  else Mismatched

(* The byte span of an execute reply's answers array, after checking the
   reply's id, [ok] and [exact]. *)
let answers_span line ~id =
  if not (matches_at line 0 (ok_prefix id)) then Error (not_ok line ~id)
  else
    let a = find line ~from:0 {|,"answers":|} in
    if a < 0 then Error Mismatched
    else
      let start = a + 11 in
      let e = find line ~from:start {|,"exact":|} in
      if e < 0 then Error Mismatched
      else if not (matches_at line (e + 9) "true") then Error Inexact
      else Ok (start, e)

let span_equals line (start, stop) expected =
  stop - start = String.length expected && matches_at line start expected

(* Answer arrays equal up to tuple order. Answers are sorted by symbol id,
   and symbol ids are process-local intern indices, so two processes
   holding the same instance may list the same answers in different
   orders. *)
let same_answers a b =
  a = b
  ||
  let tuples s =
    match Tgd_serve.Json.parse s with
    | Ok (Tgd_serve.Json.List ts) -> Some (List.sort compare (List.map Tgd_serve.Json.to_string ts))
    | _ -> None
  in
  match tuples a, tuples b with Some x, Some y -> x = y | _ -> false
