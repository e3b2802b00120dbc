module Atlas = Pet_minimize.Atlas
module Algorithm1 = Pet_minimize.Algorithm1
module Partial = Pet_valuation.Partial

type disclosure = {
  published : (string * bool) list;
  deduced : (string * bool) list;
  protected : string list;
  crowd_size : int;
}

let of_crowd atlas ~mas (crowd : Crowd.t) =
  {
    published = Partial.bindings (Atlas.mas atlas mas).Algorithm1.mas;
    deduced = Payoff.deduced atlas ~mas crowd;
    protected = Payoff.protected atlas ~mas crowd;
    crowd_size = crowd.count;
  }

let of_move profile ~mas =
  of_crowd (Profile.atlas profile) ~mas (Profile.aggregate profile mas)

let for_player profile ~player =
  of_move profile ~mas:(Profile.move_of profile player)

let pp ppf d =
  let pp_lit ppf (name, b) = Fmt.pf ppf "%s=%d" name (if b then 1 else 0) in
  Fmt.pf ppf
    "@[<v>published: %a@,deduced by attacker: %a@,protected: %a@,crowd: %d@]"
    Fmt.(list ~sep:sp pp_lit)
    d.published
    Fmt.(list ~sep:sp pp_lit)
    d.deduced
    Fmt.(list ~sep:sp string)
    d.protected d.crowd_size
