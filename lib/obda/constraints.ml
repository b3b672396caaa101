open Tgd_logic
open Tgd_db

type t = {
  name : string;
  body : Atom.t list;
}

let counter = ref 0

let make ?name body =
  if body = [] then invalid_arg "Constraints.make: empty body";
  let name =
    match name with
    | Some n -> n
    | None ->
      incr counter;
      Printf.sprintf "nc%d" !counter
  in
  { name; body }

let to_boolean_cq nc = Cq.make ~name:nc.name ~answer:[] ~body:nc.body

type violation = {
  constraint_ : t;
  witness : Cq.t;
}

type verdict = {
  consistent : bool;
  violations : violation list;
  complete : bool;
}

let check ?config ?(unfold = Fun.id) program constraints inst =
  let complete = ref true in
  let violations =
    List.concat_map
      (fun nc ->
        let r = Tgd_rewrite.Rewrite.ucq ?config program (to_boolean_cq nc) in
        (match r.Tgd_rewrite.Rewrite.outcome with
        | Tgd_rewrite.Rewrite.Complete -> ()
        | Tgd_rewrite.Rewrite.Truncated _ -> complete := false);
        List.filter_map
          (fun disjunct ->
            match Col_eval.iter (Col_eval.compile inst disjunct) (fun _ -> raise Exit) with
            | () -> None
            | exception Exit -> Some { constraint_ = nc; witness = disjunct })
          (unfold r.Tgd_rewrite.Rewrite.ucq))
      constraints
  in
  { consistent = violations = []; violations; complete = !complete }
