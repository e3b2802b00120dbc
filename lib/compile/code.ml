module F = Pet_logic.Formula
module Dnf = Pet_logic.Dnf
module Universe = Pet_valuation.Universe

type conj = { mask : int; bits : int }

(* One table of [2^n] entries. Entry [v] is valuation [v]'s benefit
   bitset shifted left by one, with bit 0 set iff [v] satisfies the
   constraints: one byte for a form of at most 7 benefits, eight
   beyond. *)
type t = {
  n : int;
  full : int; (* (1 lsl n) - 1 *)
  names : string array; (* benefit names, benefit-universe order *)
  wide : bool; (* eight-byte entries *)
  tab : Bytes.t;
}

let max_tabulated_predicates = 16

let compile_conjunction xp c =
  List.fold_left
    (fun acc (l : Pet_logic.Literal.t) ->
      let i = Universe.index xp l.var in
      {
        mask = acc.mask lor (1 lsl i);
        bits = (if l.sign then acc.bits lor (1 lsl i) else acc.bits);
      })
    { mask = 0; bits = 0 } c

(* A constraint formula becomes a closure over the valuation word:
   variable indices are resolved once, so evaluating it 2^n times does
   no name lookups. *)
let rec compile_formula xp = function
  | F.True -> fun _ -> true
  | F.False -> fun _ -> false
  | F.Var x ->
    let i = Universe.index xp x in
    fun v -> (v lsr i) land 1 = 1
  | F.Not f ->
    let g = compile_formula xp f in
    fun v -> not (g v)
  | F.And (a, b) ->
    let ga = compile_formula xp a and gb = compile_formula xp b in
    fun v -> ga v && gb v
  | F.Or (a, b) ->
    let ga = compile_formula xp a and gb = compile_formula xp b in
    fun v -> ga v || gb v
  | F.Implies (a, b) ->
    let ga = compile_formula xp a and gb = compile_formula xp b in
    fun v -> (not (ga v)) || gb v
  | F.Iff (a, b) ->
    let ga = compile_formula xp a and gb = compile_formula xp b in
    fun v -> Bool.equal (ga v) (gb v)

let conj_holds c v = v land c.mask = c.bits

(* Each conjunction of group [i] sets bit [i] on its completions, the
   submasks [s] of its free positions: [(s - 1) land free] walks them
   downwards and the loop ends after [s = 0]. *)
let fill_benefit_table ~n groups tab =
  let full = (1 lsl n) - 1 in
  Array.fill tab 0 (full + 1) 0;
  Array.iteri
    (fun i conjs ->
      let bit = 1 lsl i in
      Array.iter
        (fun c ->
          let free = full land lnot c.mask in
          let s = ref free and continue = ref true in
          while !continue do
            let v = c.bits lor !s in
            tab.(v) <- tab.(v) lor bit;
            if !s = 0 then continue := false else s := (!s - 1) land free
          done)
        conjs)
    groups

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Entry [v] of a table of one-byte entries, or of eight-byte ones when
   [wide]. The callers keep [v] below [2^n]. *)
let[@inline] get tab wide v =
  if wide then Int64.to_int (get64u tab (v lsl 3))
  else Char.code (Bytes.unsafe_get tab v)

let[@inline] set tab wide v x =
  if wide then set64u tab (v lsl 3) (Int64.of_int x)
  else Bytes.unsafe_set tab v (Char.unsafe_chr x)

let max_benefits = Sys.int_size - 1

let create ~xp ~benefits ~rule ~constraints =
  let n = Universe.size xp in
  if n > max_tabulated_predicates then
    invalid_arg
      (Printf.sprintf "Pet_compile.Code.create: %d predicates exceed the \
                       tabulation threshold (%d)"
         n max_tabulated_predicates);
  let names = Array.of_list benefits in
  if Array.length names > max_benefits then
    invalid_arg
      (Printf.sprintf "Pet_compile.Code.create: %d benefits exceed %d"
         (Array.length names) max_benefits);
  let index name =
    match Universe.index_opt xp name with
    | Some i -> ignore i
    | None ->
      invalid_arg
        (Printf.sprintf
           "Pet_compile.Code.create: %S is not a form predicate" name)
  in
  List.iter
    (fun f -> List.iter index (F.vars f))
    (constraints
    @ Array.to_list (Array.map (fun b -> Dnf.to_formula (rule b)) names));
  let rules =
    Array.map
      (fun b -> Array.of_list (List.map (compile_conjunction xp) (rule b)))
      names
  in
  let consistent = compile_formula xp (F.conj constraints) in
  let full = (1 lsl n) - 1 in
  (* A byte holds the consistency bit and up to 7 benefits. *)
  let wide = Array.length names > 7 in
  (* Filled in place, as {!fill_benefit_table} fills an [int array]:
     the build allocates the table and nothing of its size beside it. *)
  let tab = Bytes.make (if wide then (full + 1) lsl 3 else full + 1) '\000' in
  Array.iteri
    (fun i conjs ->
      let bit = 2 lsl i in
      Array.iter
        (fun c ->
          let free = full land lnot c.mask in
          let s = ref free and continue = ref true in
          while !continue do
            let v = c.bits lor !s in
            set tab wide v (get tab wide v lor bit);
            if !s = 0 then continue := false else s := (!s - 1) land free
          done)
        conjs)
    rules;
  for v = 0 to full do
    if consistent v then set tab wide v (get tab wide v lor 1)
  done;
  { n; full; names; wide; tab }

let predicates t = t.n
let benefit_count t = Array.length t.names
let benefit_name t i = t.names.(i)
let full_benefit_mask t = (1 lsl Array.length t.names) - 1

let check_valuation t v =
  if v < 0 || v > t.full then invalid_arg "Pet_compile.Code: valuation out of range"

let consistent_bits t v =
  check_valuation t v;
  get t.tab t.wide v land 1 = 1

let benefit_bits t v =
  check_valuation t v;
  get t.tab t.wide v lsr 1

(* The completions of (dom, bits) are [bits lor s] for every submask
   [s] of the free positions; [(s - 1) land free] steps through them in
   decreasing order and the walk ends after s = 0. Each completion is
   one read of its entry. Top-level, so a query allocates no closure. *)
let rec benefit_and_from tab wide bits free s acc =
  let e = get tab wide (bits lor s) in
  let acc = if e land 1 = 1 then acc land (e lsr 1) else acc in
  if s = 0 then acc
  else benefit_and_from tab wide bits free ((s - 1) land free) acc

let benefit_mask t ~dom ~bits =
  let free = t.full land lnot dom in
  benefit_and_from t.tab t.wide bits free free (full_benefit_mask t)

(* Whether some consistent completion [v], with entry [e], has
   [stop_when v e]. *)
let fold_completions t ~dom ~bits ~stop_when =
  let free = t.full land lnot dom and tab = t.tab and wide = t.wide in
  let rec go s =
    let v = bits lor s in
    let e = get tab wide v in
    if e land 1 = 1 && stop_when v e then true
    else if s = 0 then false
    else go ((s - 1) land free)
  in
  go free

let consistent t ~dom ~bits =
  fold_completions t ~dom ~bits ~stop_when:(fun _ _ -> true)

let entails_benefit t ~dom ~bits i =
  let bit = 2 lsl i in
  not (fold_completions t ~dom ~bits ~stop_when:(fun _ e -> e land bit = 0))

let entails_literal t ~dom ~bits i value =
  let bit = 1 lsl i in
  let wanted = if value then bit else 0 in
  not
    (fold_completions t ~dom ~bits ~stop_when:(fun v _ -> v land bit <> wanted))
