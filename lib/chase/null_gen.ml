type t = { start : int; mutable counter : int }

let create ?(start = 0) () = { start; counter = start }

let next g =
  let label = g.counter + 1 in
  (* Every label stays codable, so a columnar block can hold any null. *)
  if label < 0 || label >= Tgd_db.Value.null_base then
    invalid_arg (Printf.sprintf "Null_gen.next: null label %d is out of range" label);
  g.counter <- label;
  Tgd_db.Value.Null label

let count g = g.counter - g.start
