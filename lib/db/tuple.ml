type t = Value.t array

let equal t1 t2 = Array.length t1 = Array.length t2 && Array.for_all2 Value.equal t1 t2

let compare t1 t2 =
  let c = Int.compare (Array.length t1) (Array.length t2) in
  if c <> 0 then c
  else
    let rec loop i =
      if i >= Array.length t1 then 0
      else
        let c = Value.compare t1.(i) t2.(i) in
        if c <> 0 then c else loop (i + 1)
    in
    loop 0

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",") Value.pp)
    (Array.to_list t)

let has_null = Array.exists Value.is_null
