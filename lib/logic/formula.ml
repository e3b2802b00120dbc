type t =
  | True
  | False
  | Var of string
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | Iff of t * t

let rec equal a b =
  match a, b with
  | True, True | False, False -> true
  | Var x, Var y -> String.equal x y
  | Not a, Not b -> equal a b
  | And (a1, a2), And (b1, b2)
  | Or (a1, a2), Or (b1, b2)
  | Implies (a1, a2), Implies (b1, b2)
  | Iff (a1, a2), Iff (b1, b2) -> equal a1 b1 && equal a2 b2
  | (True | False | Var _ | Not _ | And _ | Or _ | Implies _ | Iff _), _ ->
    false

let compare = Stdlib.compare

let var x = Var x

let neg = function
  | True -> False
  | False -> True
  | Not f -> f
  | f -> Not f

let and_ a b =
  match a, b with
  | True, f | f, True -> f
  | False, _ | _, False -> False
  | _ -> And (a, b)

let or_ a b =
  match a, b with
  | False, f | f, False -> f
  | True, _ | _, True -> True
  | _ -> Or (a, b)

let imp a b =
  match a, b with
  | False, _ -> True
  | True, f -> f
  | _, True -> True
  | f, False -> neg f
  | _ -> Implies (a, b)

let iff a b =
  match a, b with
  | True, f | f, True -> f
  | False, f | f, False -> neg f
  | _ -> Iff (a, b)

let conj fs = List.fold_left and_ True fs
let disj fs = List.fold_left or_ False fs

let rec eval rho = function
  | True -> true
  | False -> false
  | Var x -> rho x
  | Not f -> not (eval rho f)
  | And (a, b) -> eval rho a && eval rho b
  | Or (a, b) -> eval rho a || eval rho b
  | Implies (a, b) -> (not (eval rho a)) || eval rho b
  | Iff (a, b) -> Bool.equal (eval rho a) (eval rho b)

module Sset = Set.Make (String)

let vars f =
  let rec go acc = function
    | True | False -> acc
    | Var x -> Sset.add x acc
    | Not f -> go acc f
    | And (a, b) | Or (a, b) | Implies (a, b) | Iff (a, b) -> go (go acc a) b
  in
  Sset.elements (go Sset.empty f)

let rec size = function
  | True | False | Var _ -> 1
  | Not f -> 1 + size f
  | And (a, b) | Or (a, b) | Implies (a, b) | Iff (a, b) ->
    1 + size a + size b

let rec map_vars s = function
  | True -> True
  | False -> False
  | Var x -> s x
  | Not f -> neg (map_vars s f)
  | And (a, b) -> and_ (map_vars s a) (map_vars s b)
  | Or (a, b) -> or_ (map_vars s a) (map_vars s b)
  | Implies (a, b) -> imp (map_vars s a) (map_vars s b)
  | Iff (a, b) -> iff (map_vars s a) (map_vars s b)

let all_assignments names =
  let names = Array.of_list names in
  let n = Array.length names in
  if n > Sys.int_size - 2 then
    invalid_arg "Formula.all_assignments: too many variables";
  let assignment bits x =
    let rec find i =
      if i >= n then raise Not_found
      else if String.equal names.(i) x then (bits lsr i) land 1 = 1
      else find (i + 1)
    in
    find 0
  in
  List.init (1 lsl n) assignment

let tautology f = List.for_all (fun rho -> eval rho f) (all_assignments (vars f))

let satisfiable f = List.exists (fun rho -> eval rho f) (all_assignments (vars f))

let merge_vars f g =
  Sset.elements (Sset.union (Sset.of_list (vars f)) (Sset.of_list (vars g)))

let entails f g =
  List.for_all
    (fun rho -> (not (eval rho f)) || eval rho g)
    (all_assignments (merge_vars f g))

let equivalent f g =
  List.for_all
    (fun rho -> Bool.equal (eval rho f) (eval rho g))
    (all_assignments (merge_vars f g))

(* Printing with minimal parentheses. Precedences, tightest first:
   atoms/negation, conjunction, disjunction, implication (right
   associative), equivalence. *)
let add_to_buffer b f =
  let rec go prec = function
    | True -> Buffer.add_string b "true"
    | False -> Buffer.add_string b "false"
    | Var x -> Buffer.add_string b x
    | Not f ->
      if 4 < prec then Buffer.add_char b '(';
      Buffer.add_char b '!';
      go 5 f;
      if 4 < prec then Buffer.add_char b ')'
    | And (l, r) -> binary prec 3 l " & " r 3 4
    | Or (l, r) -> binary prec 2 l " | " r 2 3
    | Implies (l, r) -> binary prec 1 l " -> " r 2 1
    | Iff (l, r) -> binary prec 0 l " <-> " r 1 1
  (* An operator of precedence [p] in a context of [prec]: parenthesized
     when it binds more loosely; its operands printed at [pl] and [pr]. *)
  and binary prec p l op r pl pr =
    if p < prec then Buffer.add_char b '(';
    go pl l;
    Buffer.add_string b op;
    go pr r;
    if p < prec then Buffer.add_char b ')'
  in
  go 0 f

let to_string f =
  let b = Buffer.create 64 in
  add_to_buffer b f;
  Buffer.contents b

let pp ppf f = Fmt.string ppf (to_string f)

let ( && ) = and_
let ( || ) = or_
let ( => ) = imp
let ( <=> ) = iff
