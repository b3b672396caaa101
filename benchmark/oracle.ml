(* The sequential reference: an in-memory server built from the same
   inputs and queried through [Server.handle] on this thread. Whatever it
   answers is, by definition, what the served and traced paths must return
   byte for byte. *)

module Server = Tgd_serve.Server
module P = Tgd_serve.Protocol
module Json = Tgd_serve.Json

type t = {
  srv : Server.t;
  entry : string;
  memo : (string * string option, string) Hashtbl.t;
}

let handle_exn srv what request =
  match Server.handle srv request with
  | Ok fields -> fields
  | Error (kind, msg) -> failwith (Printf.sprintf "oracle %s: %s: %s" what kind msg)

let create (w : Workload.t) =
  let srv = Server.create () in
  let name = w.Workload.entry in
  ignore
    (handle_exn srv "register" (P.Register_ontology { name; source = P.Inline w.Workload.ontology }));
  ignore (handle_exn srv "load-csv" (P.Load_csv { name; source = P.Inline w.Workload.csv }));
  List.iter
    (fun csv -> ignore (handle_exn srv "add-facts" (P.Add_facts { name; source = P.Inline csv })))
    w.Workload.tail;
  { srv; entry = name; memo = Hashtbl.create 64 }

(* The rendered answers array of a read; memoized per (query, target). *)
let answers t (r : Workload.read) =
  let key = (r.Workload.query, r.Workload.target) in
  match Hashtbl.find_opt t.memo key with
  | Some a -> a
  | None ->
    let fields =
      handle_exn t.srv "execute"
        (P.Execute
           { ontology = t.entry; query = r.Workload.query; budget = None; target = r.Workload.target })
    in
    if List.assoc_opt "exact" fields <> Some (Json.Bool true) then
      failwith ("oracle: inexact answer to " ^ r.Workload.query);
    let a = Json.to_string (List.assoc "answers" fields) in
    Hashtbl.replace t.memo key a;
    a

let shutdown t = Server.shutdown t.srv
