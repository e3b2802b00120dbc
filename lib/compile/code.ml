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

(* A top-level recursion, so tabulating 2^n valuations makes no closure
   per valuation. *)
let rec dnf_holds_from conjs v i =
  i < Array.length conjs
  && (conj_holds (Array.unsafe_get conjs i) v || dnf_holds_from conjs v (i + 1))

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
  let benefit_tab = Array.make size 0 in
  for v = 0 to size - 1 do
    if not (consistent v) then Bytes.unsafe_set consistent_tab v '\000';
    let granted = ref 0 in
    for i = 0 to Array.length rules - 1 do
      if dnf_holds_from (Array.unsafe_get rules i) v 0 then
        granted := !granted lor (1 lsl i)
    done;
    benefit_tab.(v) <- !granted
  done;
  { n; full = size - 1; names; rules; consistent_tab; benefit_tab }

let predicates t = t.n
let benefit_count t = Array.length t.names
let benefit_name t i = t.names.(i)
let full_benefit_mask t = (1 lsl Array.length t.names) - 1
let conjunctions t i = t.rules.(i)
let consistent_bits t v = Bytes.unsafe_get t.consistent_tab v <> '\000'
let benefit_tab_get t v = Array.unsafe_get t.benefit_tab v
let benefit_bits t v = t.benefit_tab.(v)

type scan = { any : bool; and_bits : int; or_bits : int; benefit_and : int }

(* The completions of (dom, bits) are [bits lor s] for every submask
   [s] of the free positions; [(s - 1) land free] steps through them in
   decreasing order and the loop ends after s = 0. *)
let scan t ~dom ~bits =
  let free = t.full land lnot dom in
  let any = ref false in
  let and_bits = ref t.full
  and or_bits = ref 0
  and benefit_and = ref (full_benefit_mask t) in
  let s = ref free in
  let continue = ref true in
  while !continue do
    let v = bits lor !s in
    if consistent_bits t v then begin
      any := true;
      and_bits := !and_bits land v;
      or_bits := !or_bits lor v;
      benefit_and := !benefit_and land benefit_tab_get t v
    end;
    if !s = 0 then continue := false else s := (!s - 1) land free
  done;
  { any = !any; and_bits = !and_bits; or_bits = !or_bits;
    benefit_and = !benefit_and }

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
