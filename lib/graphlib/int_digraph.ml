type t = {
  n : int;
  edges : (int * int) array;
  out : int list array; (* edge indices, per source vertex *)
}

let make ~n ~edges =
  Array.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then invalid_arg "Int_digraph.make: endpoint out of range")
    edges;
  let out = Array.make (max n 1) [] in
  Array.iteri (fun i (u, _) -> out.(u) <- i :: out.(u)) edges;
  (* Keep edge order deterministic: indices ascending. *)
  Array.iteri (fun u l -> out.(u) <- List.rev l) out;
  { n; edges; out }

let edge g i = g.edges.(i)

let all_edges_ok _ = true

(* Iterative Tarjan. *)
let scc ?(edge_ok = all_edges_ok) g =
  let n = g.n in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp = Array.make n (-1) in
  let stack = ref [] in
  let next_index = ref 0 in
  let next_comp = ref 0 in
  (* Explicit DFS stack: (vertex, remaining out-edges). *)
  let visit root =
    let work = ref [ (root, g.out.(root)) ] in
    index.(root) <- !next_index;
    lowlink.(root) <- !next_index;
    incr next_index;
    stack := root :: !stack;
    on_stack.(root) <- true;
    while !work <> [] do
      match !work with
      | [] -> ()
      | (v, rest) :: tail -> (
        match rest with
        | e :: rest' when not (edge_ok e) -> work := (v, rest') :: tail
        | e :: rest' ->
          let _, w = g.edges.(e) in
          if index.(w) = -1 then begin
            index.(w) <- !next_index;
            lowlink.(w) <- !next_index;
            incr next_index;
            stack := w :: !stack;
            on_stack.(w) <- true;
            work := (w, g.out.(w)) :: (v, rest') :: tail
          end
          else begin
            if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w);
            work := (v, rest') :: tail
          end
        | [] ->
          if lowlink.(v) = index.(v) then begin
            let rec pop () =
              match !stack with
              | [] -> assert false
              | w :: rest ->
                stack := rest;
                on_stack.(w) <- false;
                comp.(w) <- !next_comp;
                if w <> v then pop ()
            in
            pop ();
            incr next_comp
          end;
          work := tail;
          (match tail with
          | (parent, _) :: _ -> lowlink.(parent) <- min lowlink.(parent) lowlink.(v)
          | [] -> ()))
    done
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then visit v
  done;
  (comp, !next_comp)

let scc_internal_edges ?(edge_ok = all_edges_ok) g =
  let comp, ncomp = scc ~edge_ok g in
  let internal = Array.make ncomp [] in
  Array.iteri
    (fun i (u, v) ->
      if edge_ok i && comp.(u) = comp.(v) then internal.(comp.(u)) <- i :: internal.(comp.(u)))
    g.edges;
  let acc = ref [] in
  for c = ncomp - 1 downto 0 do
    if internal.(c) <> [] then acc := (c, List.rev internal.(c)) :: !acc
  done;
  !acc

exception Done

let simple_cycles ?(limit = 10_000) ?(max_steps = 1_000_000) ?(edge_ok = all_edges_ok) g =
  let cycles = ref [] in
  let count = ref 0 in
  let steps = ref 0 in
  let on_path = Array.make g.n false in
  (* Enumerate simple cycles whose minimal vertex is [root]: DFS over
     vertices >= root only. Every simple cycle is rooted at its unique
     minimal vertex, so no duplicates arise. *)
  let rec dfs root v path =
    incr steps;
    if !steps > max_steps then raise Done;
    let explore e =
      if edge_ok e then begin
        let _, w = g.edges.(e) in
        if w = root then begin
          cycles := List.rev (e :: path) :: !cycles;
          incr count;
          if !count >= limit then raise Done
        end
        else if w > root && not (on_path.(w)) then begin
          on_path.(w) <- true;
          dfs root w (e :: path);
          on_path.(w) <- false
        end
      end
    in
    List.iter explore g.out.(v)
  in
  (try
     for root = 0 to g.n - 1 do
       on_path.(root) <- true;
       dfs root root [];
       on_path.(root) <- false
     done
   with Done -> ());
  List.rev !cycles

let reachable g src =
  let seen = Array.make g.n false in
  let rec go v =
    if not seen.(v) then begin
      seen.(v) <- true;
      List.iter (fun e -> go (snd g.edges.(e))) g.out.(v)
    end
  in
  go src;
  seen
