module F = Pet_logic.Formula
module Universe = Pet_valuation.Universe
module Total = Pet_valuation.Total
module Code = Pet_compile.Code

type t = {
  xp : Universe.t;
  xb : Universe.t;
  rules : Rule.t list; (* in benefit-universe order *)
  constraints : F.t list;
}

let validate_vars ~what ~allowed vars =
  List.iter
    (fun v ->
      if not (Universe.mem allowed v) then
        invalid_arg
          (Printf.sprintf "Exposure.create: %s mentions %s outside the form"
             what v))
    vars

let create ~xp ~xb ~rules ?(constraints = []) () =
  List.iter
    (fun name ->
      if Universe.mem xb name then
        invalid_arg
          ("Exposure.create: name " ^ name ^ " is both a predicate and a benefit"))
    (Universe.names xp);
  let find_rule benefit =
    match List.filter (fun (r : Rule.t) -> r.benefit = benefit) rules with
    | [ r ] -> r
    | [] -> invalid_arg ("Exposure.create: benefit " ^ benefit ^ " has no rule")
    | _ ->
      invalid_arg ("Exposure.create: benefit " ^ benefit ^ " has several rules")
  in
  List.iter
    (fun (r : Rule.t) ->
      if not (Universe.mem xb r.benefit) then
        invalid_arg ("Exposure.create: rule for unknown benefit " ^ r.benefit);
      validate_vars ~what:("the rule for " ^ r.benefit) ~allowed:xp
        (Pet_logic.Dnf.vars r.dnf))
    rules;
  List.iter
    (fun c -> validate_vars ~what:"a constraint" ~allowed:xp (F.vars c))
    constraints;
  let rules = List.map find_rule (Universe.names xb) in
  { xp; xb; rules; constraints }

let xp e = e.xp
let xb e = e.xb
let rules e = e.rules

let rule_for e benefit =
  match List.find_opt (fun (r : Rule.t) -> r.benefit = benefit) e.rules with
  | Some r -> r
  | None -> raise Not_found

let constraints e = e.constraints
let constraints_formula e = F.conj e.constraints

(* Flatten a conjunction of literals; [None] when any conjunct is not a
   literal. *)
let rec literal_conjunction = function
  | F.And (a, b) -> (
    match literal_conjunction a, literal_conjunction b with
    | Some la, Some lb -> Some (la @ lb)
    | _ -> None)
  | f -> (
    match Pet_logic.Literal.of_formula f with
    | Some l -> Some [ l ]
    | None -> None)

let implications e =
  List.filter_map
    (fun c ->
      match c with
      | F.Implies (lhs, rhs) -> (
        match literal_conjunction lhs, literal_conjunction rhs with
        | Some premises, Some consequences -> Some (premises, consequences)
        | _ -> None)
      | _ -> (
        match literal_conjunction c with
        | Some consequences -> Some ([], consequences)
        | None -> None))
    e.constraints

let to_formula e =
  F.conj (List.map Rule.to_formula e.rules @ e.constraints)

let benefits_of_assignment e rho =
  List.filter_map
    (fun (r : Rule.t) ->
      if Rule.triggered_by rho r then Some r.benefit else None)
    e.rules

let satisfies_constraints e v =
  List.for_all (fun c -> F.eval (Total.rho v) c) e.constraints

(* The valuations whose word passes [keep], in increasing bit order. *)
let valuations_where e keep =
  let rec go bits acc =
    if bits < 0 then acc
    else
      go (bits - 1) (if keep bits then Total.of_bits e.xp bits :: acc else acc)
  in
  go ((1 lsl Universe.size e.xp) - 1) []

let consistent_word e = Code.compile_formula e.xp (constraints_formula e)

let conjunction_words e =
  Array.of_list
    (List.map
       (fun r ->
         Array.of_list
           (List.map (Code.compile_conjunction e.xp) (Rule.conjunctions r)))
       e.rules)

let realistic e = valuations_where e (consistent_word e)

let eligible e =
  let consistent = consistent_word e in
  let conjs = Array.concat (Array.to_list (conjunction_words e)) in
  valuations_where e (fun bits ->
      consistent bits && Array.exists (fun c -> Code.conj_holds c bits) conjs)

let pp ppf e =
  Fmt.pf ppf "@[<v>form %a@,benefits %a@,@[<v>%a@]@,@[<v>%a@]@]" Universe.pp
    e.xp Universe.pp e.xb
    Fmt.(list ~sep:cut Rule.pp)
    e.rules
    Fmt.(list ~sep:cut (fun ppf c -> Fmt.pf ppf "constraint %a" F.pp c))
    e.constraints
