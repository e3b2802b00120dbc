module F = Pet_logic.Formula
module Dnf = Pet_logic.Dnf
module Universe = Pet_valuation.Universe

type conj = { mask : int; bits : int }

type t = {
  n : int;
  full : int; (* (1 lsl n) - 1 *)
  names : string array; (* benefit names, benefit-universe order *)
  rules : conj array array; (* rules.(i) = compiled DNF of benefit i *)
  consistent_tab : Bytes.t; (* 2^n bytes, '\001' iff constraints hold *)
  benefit_tab : int array; (* 2^n benefit bitsets *)
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

let benefit_table ~n groups =
  let tab = Array.make (1 lsl n) 0 in
  fill_benefit_table ~n groups tab;
  tab

let create ~xp ~benefits ~rule ~constraints =
  let n = Universe.size xp in
  if n > max_tabulated_predicates then
    invalid_arg
      (Printf.sprintf "Pet_compile.Code.create: %d predicates exceed the \
                       tabulation threshold (%d)"
         n max_tabulated_predicates);
  let names = Array.of_list benefits in
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
  let size = 1 lsl n in
  let consistent_tab = Bytes.make size '\001' in
  for v = 0 to size - 1 do
    if not (consistent v) then Bytes.unsafe_set consistent_tab v '\000'
  done;
  { n; full = size - 1; names; rules; consistent_tab;
    benefit_tab = benefit_table ~n rules }

let predicates t = t.n
let benefit_count t = Array.length t.names
let benefit_name t i = t.names.(i)
let full_benefit_mask t = (1 lsl Array.length t.names) - 1
let conjunctions t i = t.rules.(i)
let consistent_bits t v = Bytes.unsafe_get t.consistent_tab v <> '\000'
let benefit_tab_get t v = Array.unsafe_get t.benefit_tab v
let benefit_bits t v = t.benefit_tab.(v)

(* The completions of (dom, bits) are [bits lor s] for every submask
   [s] of the free positions; [(s - 1) land free] steps through them in
   decreasing order and the walk ends after s = 0. Top-level, so a
   query allocates no closure. *)
let rec benefit_and_from t bits free s acc =
  let v = bits lor s in
  let acc = if consistent_bits t v then acc land benefit_tab_get t v else acc in
  if s = 0 then acc else benefit_and_from t bits free ((s - 1) land free) acc

let benefit_mask t ~dom ~bits =
  let free = t.full land lnot dom in
  benefit_and_from t bits free free (full_benefit_mask t)

let fold_completions t ~dom ~bits ~stop_when =
  let free = t.full land lnot dom in
  let rec go s =
    let v = bits lor s in
    if consistent_bits t v && stop_when v then true
    else if s = 0 then false
    else go ((s - 1) land free)
  in
  go free

let consistent t ~dom ~bits = fold_completions t ~dom ~bits ~stop_when:(fun _ -> true)

let entails_benefit t ~dom ~bits i =
  let bit = 1 lsl i in
  not
    (fold_completions t ~dom ~bits ~stop_when:(fun v ->
         benefit_tab_get t v land bit = 0))

let entails_literal t ~dom ~bits i value =
  let bit = 1 lsl i in
  let wanted = if value then bit else 0 in
  not
    (fold_completions t ~dom ~bits ~stop_when:(fun v -> v land bit <> wanted))
