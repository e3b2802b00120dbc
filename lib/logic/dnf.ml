type conjunction = Literal.t list
type t = conjunction list

let normalize_conjunction lits =
  let sorted = List.sort_uniq Literal.compare lits in
  let contradictory =
    List.exists (fun l -> List.mem (Literal.negate l) sorted) sorted
  in
  if contradictory then None else Some sorted

let subsumes c c' = List.for_all (fun l -> List.mem l c') c

let remove_subsumed dnf =
  let keep c =
    not
      (List.exists
         (fun c' -> (not (List.equal Literal.equal c c')) && subsumes c' c)
         dnf)
  in
  (* [sort_uniq] first so that two equal conjunctions don't knock each
     other out through the strict-subsumption test. *)
  List.filter keep (List.sort_uniq Stdlib.compare dnf)

(* Distribution over an NNF formula. Conjunctions are lists of literals;
   [None]-producing (contradictory) branches are pruned eagerly. *)
let of_formula f =
  let rec go = function
    | Formula.True -> [ [] ]
    | Formula.False -> []
    | Formula.Var x -> [ [ Literal.pos x ] ]
    | Formula.Not (Formula.Var x) -> [ [ Literal.neg x ] ]
    | Formula.Or (a, b) -> go a @ go b
    | Formula.And (a, b) ->
      let das = go a and dbs = go b in
      List.concat_map
        (fun ca ->
          List.filter_map
            (fun cb -> normalize_conjunction (ca @ cb))
            dbs)
        das
    | Formula.Not _ | Formula.Implies _ | Formula.Iff _ ->
      assert false (* input is NNF *)
  in
  remove_subsumed (go (Nnf.of_formula f))

let conjunction_to_formula c = Formula.conj (List.map Literal.to_formula c)

let to_formula dnf = Formula.disj (List.map conjunction_to_formula dnf)

let conjunction_holds rho c = List.for_all (Literal.holds rho) c
let holds rho dnf = List.exists (conjunction_holds rho) dnf

module Sset = Set.Make (String)

let vars dnf =
  let add acc (l : Literal.t) = Sset.add l.var acc in
  Sset.elements
    (List.fold_left (fun acc c -> List.fold_left add acc c) Sset.empty dnf)

(* [x1 sep x2 sep ... xn], each [x] printed by [add]. *)
let add_separated b add sep = function
  | [] -> ()
  | x :: xs ->
    add b x;
    List.iter
      (fun x ->
        Buffer.add_string b sep;
        add b x)
      xs

let add_conjunction b = function
  | [] -> Buffer.add_string b "true"
  | c -> add_separated b Literal.add_to_buffer " & " c

let add_to_buffer b = function
  | [] -> Buffer.add_string b "false"
  | dnf -> add_separated b add_conjunction " | " dnf

let pp ppf dnf =
  let b = Buffer.create 64 in
  add_to_buffer b dnf;
  Fmt.string ppf (Buffer.contents b)
