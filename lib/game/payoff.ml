module Atlas = Pet_minimize.Atlas
module Algorithm1 = Pet_minimize.Algorithm1
module Universe = Pet_valuation.Universe
module Partial = Pet_valuation.Partial

type kind = Blank | Sm | Weighted of (string -> float)
type scorer = Count | Blanks | Weights of float array

let universe atlas =
  Pet_rules.Exposure.xp (Pet_rules.Engine.exposure (Atlas.engine atlas))

let scorer atlas = function
  | Sm -> Count
  | Blank -> Blanks
  | Weighted weight ->
    Weights (Array.of_list (List.map weight (Universe.names (universe atlas))))

let blank_mask atlas ~mas =
  let w = (Atlas.mas atlas mas).Algorithm1.mas in
  let full = (1 lsl Universe.size (Partial.universe w)) - 1 in
  lnot (Partial.domain_mask w) land full

let disagreement atlas ~mas (c : Crowd.t) =
  c.ones land c.zeros land blank_mask atlas ~mas

(* Sum of the weights of the set bits of [mask], in ascending bit order. *)
let rec weight_sum weights mask k total =
  if mask = 0 then total
  else
    weight_sum weights (mask lsr 1) (k + 1)
      (if mask land 1 = 1 then total +. weights.(k) else total)

let integral scorer ~disagreement ~count =
  match scorer with
  | Count -> max 0 (count - 1)
  | Blanks -> Universe.popcount disagreement
  | Weights _ -> invalid_arg "Payoff.integral: a weighted payoff"

let score scorer ~disagreement ~count =
  match scorer with
  | Weights weights -> weight_sum weights disagreement 0 0.
  | Count | Blanks -> float_of_int (integral scorer ~disagreement ~count)

let of_crowd atlas scorer ~mas (c : Crowd.t) =
  score scorer ~disagreement:(disagreement atlas ~mas c) ~count:c.count

(* [f] of every set bit of [mask] below [k], in ascending order. *)
let rec bits_below mask k f acc =
  if k = 0 then acc
  else
    let k = k - 1 in
    bits_below mask k f (if (mask lsr k) land 1 = 1 then f k :: acc else acc)

let protected atlas ~mas c =
  let u = universe atlas in
  bits_below (disagreement atlas ~mas c) (Universe.size u) (Universe.name u) []

let deduced atlas ~mas (c : Crowd.t) =
  if c.count = 0 then []
  else
    let u = universe atlas in
    let agree = blank_mask atlas ~mas land lnot (disagreement atlas ~mas c) in
    bits_below agree (Universe.size u)
      (fun k -> (Universe.name u k, (c.ones lsr k) land 1 = 1))
      []

let undeducible_blanks atlas ~mas ~crowd =
  protected atlas ~mas (Crowd.of_players atlas crowd)

let deduced_blanks atlas ~mas ~crowd =
  deduced atlas ~mas (Crowd.of_players atlas crowd)

let value atlas kind ~mas ~crowd =
  of_crowd atlas (scorer atlas kind) ~mas (Crowd.of_players atlas crowd)

let of_profile profile kind ~player =
  let atlas = Profile.atlas profile in
  let mas = Profile.move_of profile player in
  of_crowd atlas (scorer atlas kind) ~mas (Profile.aggregate profile mas)

let weight_of_string s =
  match String.index_opt s '=' with
  | Some i -> (
    let name = String.sub s 0 i in
    match float_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
    | Some w when w >= 0. -> Ok (name, w)
    | _ -> Error ("invalid weight in " ^ s))
  | None -> Error ("expected PREDICATE=WEIGHT, got " ^ s)

let weighted universe weights =
  let unknown (name, _) = not (Pet_valuation.Universe.mem universe name) in
  match List.find_opt unknown weights with
  | Some (name, _) -> Error ("unknown predicate " ^ name)
  | None -> Ok (Weighted (fun name -> Option.value ~default:1.0 (List.assoc_opt name weights)))

let pp_kind ppf = function
  | Blank -> Fmt.string ppf "PO_blank"
  | Sm -> Fmt.string ppf "PO_SM"
  | Weighted _ -> Fmt.string ppf "PO_blank(weighted)"
