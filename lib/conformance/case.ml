open Tgd_logic

type t = {
  label : string;
  seed : int;
  program : Program.t;
  facts : Atom.t list;
  query : Cq.t;
}

let make ?(label = "handcrafted") ?(seed = 0) ~program ~facts query =
  { label; seed; program; facts; query }

let instance case = Tgd_db.Instance.of_atoms case.facts

let to_string case =
  let doc =
    {
      Tgd_parser.Parser.rules = Program.tgds case.program;
      facts = case.facts;
      queries = [ case.query ];
      constraints = [];
    }
  in
  Format.asprintf "%% tgd-conformance case v1@.%% label: %s@.%% seed: %d@.%a" case.label
    case.seed Tgd_parser.Printer.document doc

(* Metadata lives in comment lines the parser skips; scan them by hand. *)
let metadata src =
  let label = ref "corpus" and seed = ref 0 in
  String.split_on_char '\n' src
  |> List.iter (fun line ->
         let line = String.trim line in
         let prefixed p =
           if String.length line >= String.length p && String.sub line 0 (String.length p) = p
           then Some (String.trim (String.sub line (String.length p) (String.length line - String.length p)))
           else None
         in
         (match prefixed "% label:" with Some v -> label := v | None -> ());
         match prefixed "% seed:" with
         | Some v -> ( match int_of_string_opt v with Some n -> seed := n | None -> ())
         | None -> ());
  (!label, !seed)

let of_string ?(filename = "<case>") src =
  match Tgd_parser.Parser.parse_string ~filename src with
  | Error e -> Error (Format.asprintf "%a" Tgd_parser.Parser.pp_error e)
  | Ok doc -> (
    match Tgd_parser.Parser.program_of_document ~name:filename doc with
    | Error msg -> Error msg
    | Ok program -> (
      match doc.Tgd_parser.Parser.queries with
      | [ query ] ->
        let label, seed = metadata src in
        Ok { label; seed; program; facts = doc.Tgd_parser.Parser.facts; query }
      | [] -> Error "case has no query"
      | _ -> Error "case has more than one query"))

let save case ~path =
  let oc = open_out path in
  output_string oc (to_string case);
  close_out oc

let load path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let len = in_channel_length ic in
    let src = really_input_string ic len in
    close_in ic;
    of_string ~filename:(Filename.basename path) src
