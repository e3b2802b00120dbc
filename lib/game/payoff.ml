module Atlas = Pet_minimize.Atlas
module Algorithm1 = Pet_minimize.Algorithm1
module Universe = Pet_valuation.Universe
module Partial = Pet_valuation.Partial

type kind = Blank | Sm | Weighted of (string -> float)

(* Bitmask of the blank positions on which at least two crowd members
   disagree: positions where both a 0 and a 1 occur among the crowd. *)
let disagreement_mask atlas ~mas ~crowd =
  let w = (Atlas.mas atlas mas).Algorithm1.mas in
  let universe = Partial.universe w in
  let full = (1 lsl Universe.size universe) - 1 in
  let blank_mask = lnot (Partial.domain_mask w) land full in
  let ones, zeros =
    List.fold_left
      (fun (ones, zeros) i ->
        let bits = Atlas.player_bits atlas i in
        (ones lor bits, zeros lor (lnot bits land full)))
      (0, 0) crowd
  in
  ones land zeros land blank_mask

let blanks_of_mask universe mask =
  List.filteri (fun i _ -> (mask lsr i) land 1 = 1) (Universe.names universe)

let undeducible_blanks atlas ~mas ~crowd =
  let w = (Atlas.mas atlas mas).Algorithm1.mas in
  blanks_of_mask (Partial.universe w) (disagreement_mask atlas ~mas ~crowd)

let deduced_blanks atlas ~mas ~crowd =
  match crowd with
  | [] -> []
  | first :: _ ->
    let w = (Atlas.mas atlas mas).Algorithm1.mas in
    let universe = Partial.universe w in
    let full = (1 lsl Universe.size universe) - 1 in
    let blank_mask = lnot (Partial.domain_mask w) land full in
    let agree = blank_mask land lnot (disagreement_mask atlas ~mas ~crowd) in
    let bits = Atlas.player_bits atlas first in
    List.filteri (fun i _ -> (agree lsr i) land 1 = 1) (Universe.names universe)
    |> List.map (fun name ->
           let i = Universe.index universe name in
           (name, (bits lsr i) land 1 = 1))

let value atlas kind ~mas ~crowd =
  match kind with
  | Sm -> float_of_int (max 0 (List.length crowd - 1))
  | Blank ->
    float_of_int (Universe.popcount (disagreement_mask atlas ~mas ~crowd))
  | Weighted weight ->
    List.fold_left
      (fun acc name -> acc +. weight name)
      0.
      (undeducible_blanks atlas ~mas ~crowd)

let of_profile profile kind ~player =
  let atlas = Profile.atlas profile in
  let mas = Profile.move_of profile player in
  value atlas kind ~mas ~crowd:(Profile.crowd profile mas)

let pp_kind ppf = function
  | Blank -> Fmt.string ppf "PO_blank"
  | Sm -> Fmt.string ppf "PO_SM"
  | Weighted _ -> Fmt.string ppf "PO_blank(weighted)"
