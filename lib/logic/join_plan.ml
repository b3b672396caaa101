type arg =
  | Const of Symbol.t
  | Bind of Symbol.t
  | Check of Symbol.t

type step = {
  index : int;
  atom : Atom.t;
  probe : int option;
  args : arg array;
}

(* [codes] lays the atoms out in body order, each as its arity followed by
   one code per argument: [fixed] for a position fixed before the first
   step (a constant or an [init] variable), otherwise the variable's id.
   Ids number the variables from 0 in order of first occurrence;
   [vars.(2 * id)] is variable [id] and [vars.(2 * id + 1)] the one atom
   holding it, [many] if two atoms or more do, or [fixed] for an [init]
   variable, which no code names. No placed atom holds an unbound
   variable, so for an unbound variable [many] is exactly "another unplaced
   atom holds it". *)
type prepared = {
  atoms : Atom.t array;
  codes : int array;
  vars : int array;
  nvars : int;
}

let fixed = -1
let many = -2

let rec var_id (vars : int array) v id =
  if id < 0 || vars.(2 * id) = v then id else var_id vars v (id - 1)

let prepare ?(init = fun _ -> false) body =
  let atoms = Array.of_list body in
  let n = Array.length atoms in
  let len = ref n in
  for i = 0 to n - 1 do
    len := !len + Array.length atoms.(i).Atom.args
  done;
  let codes = Array.make !len fixed in
  let vars = Array.make (2 * (!len - n)) fixed in
  let nv = ref 0 and p = ref 0 in
  for i = 0 to n - 1 do
    let args = atoms.(i).Atom.args in
    codes.(!p) <- Array.length args;
    incr p;
    for k = 0 to Array.length args - 1 do
      (match args.(k) with
      | Term.Const _ -> ()
      | Term.Var v ->
        let id = var_id vars (v :> int) (!nv - 1) in
        if id >= 0 then begin
          let holder = vars.((2 * id) + 1) in
          if holder <> fixed then codes.(!p) <- id;
          if holder >= 0 && holder <> i then vars.((2 * id) + 1) <- many
        end
        else begin
          vars.(2 * !nv) <- (v :> int);
          if not (init v) then begin
            vars.((2 * !nv) + 1) <- i;
            codes.(!p) <- !nv
          end;
          incr nv
        end);
      incr p
    done
  done;
  { atoms; codes; vars; nvars = !nv }

(* An order is one int array, allocated once: per step, the index of the
   atom placed and the position of its first code ([2 * n] ints); per
   variable, the step that binds it ([nvars] ints from [2 * n]); per atom,
   the step that places it ([n] ints from [2 * n + nvars]). Both are [n]
   until then. *)
type order = int array

(* Is the position coded [c] fixed before step [step]? *)
let fixed_before (o : order) n c step = c = fixed || o.((2 * n) + c) < step

let rec rank o n step p k stop count ahead =
  if k >= stop then (2 * count) + if ahead then 1 else 0
  else
    let c = p.codes.(k) in
    if fixed_before o n c step then rank o n step p (k + 1) stop (count + 1) ahead
    else rank o n step p (k + 1) stop count (ahead || p.vars.((2 * c) + 1) = many)

(* The preference before the size tie-break for the atom coded in
   [first..stop): an atom with every position fixed first, as it only
   filters (an atom that binds before it multiplies the work of the check),
   then bound positions, then joined-ahead (an unbound variable shared with
   another atom). *)
let filters_first = max_int / 2

let preference o n step p first stop =
  let r = rank o n step p first stop 0 false in
  if r = 2 * (stop - first) then filters_first + r else r

let order ?(forced = -1) ~(sizes : int array) p =
  let n = Array.length p.atoms and codes = p.codes in
  let o = Array.make ((3 * n) + p.nvars) n in
  let placed = (2 * n) + p.nvars in
  for step = 0 to n - 1 do
    let best = ref (-1) and best_rank = ref 0 and best_first = ref 0 and start = ref 0 in
    for i = 0 to n - 1 do
      let first = !start + 1 in
      let stop = first + codes.(!start) in
      if o.(placed + i) = n then begin
        let r = if i = forced then max_int else preference o n step p first stop in
        if !best < 0 || r > !best_rank || (r = !best_rank && sizes.(i) < sizes.(!best)) then begin
          best := i;
          best_rank := r;
          best_first := first
        end
      end;
      start := stop
    done;
    o.(placed + !best) <- step;
    for k = !best_first to !best_first + codes.(!best_first - 1) - 1 do
      let c = codes.(k) in
      if c <> fixed && o.((2 * n) + c) > step then o.((2 * n) + c) <- step
    done;
    o.(2 * step) <- !best;
    o.((2 * step) + 1) <- !best_first
  done;
  o

(* The first position, counted from [first], fixed before [step]. *)
let rec first_fixed o n step codes first k stop =
  if first + k >= stop then None
  else if fixed_before o n codes.(first + k) step then Some k
  else first_fixed o n step codes first (k + 1) stop

(* Does the code at [first + k] repeat one at an earlier position of the
   same atom? *)
let rec repeats (codes : int array) first c k =
  k > 0 && (codes.(first + k - 1) = c || repeats codes first c (k - 1))

(* Read off what each step of an order probes, checks and binds. *)
let steps p o =
  let n = Array.length p.atoms and codes = p.codes in
  Array.init n (fun step ->
      let index = o.(2 * step) and first = o.((2 * step) + 1) in
      let atom = p.atoms.(index) in
      let probe = first_fixed o n step codes first 0 (first + Array.length atom.Atom.args) in
      let args =
        Array.mapi
          (fun k t ->
            match t with
            | Term.Const c -> Const c
            | Term.Var v ->
              let c = codes.(first + k) in
              if fixed_before o n c step || repeats codes first c k then Check v else Bind v)
          atom.Atom.args
      in
      { index; atom; probe; args })

let atoms p o = Array.init (Array.length p.atoms) (fun step -> p.atoms.(o.(2 * step)))

let make ?init ?forced ~sizes body =
  let p = prepare ?init body in
  steps p (order ?forced ~sizes p)
