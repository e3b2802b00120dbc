module Atlas = Pet_minimize.Atlas
module Algorithm1 = Pet_minimize.Algorithm1
module Partial = Pet_valuation.Partial
module Total = Pet_valuation.Total
module Universe = Pet_valuation.Universe
module Profile = Pet_game.Profile
module Payoff = Pet_game.Payoff
module Deduction = Pet_game.Deduction
module Crowd = Pet_game.Crowd

type option_report = {
  mas : Partial.t;
  benefits : string list;
  po_blank : float;
  po_sm : float;
  po_weighted : float option;
  disclosure : Deduction.disclosure;
  recommended : bool;
}

type t = {
  valuation : Total.t;
  granted : string list;
  options : option_report list;
  minimization_ratio : float;
}

let build ?weights atlas profile v =
  let player =
    match Atlas.find_player atlas v with
    | Some i -> i
    | None -> invalid_arg "Report.build: valuation is not a player"
  in
  let played = Profile.move_of profile player in
  let weighted =
    Option.map (fun w -> Payoff.scorer atlas (Payoff.Weighted w)) weights
  in
  let option_of m =
    let choice = Atlas.mas atlas m in
    (* Evaluate the option as if the applicant picked it: they join the
       move's crowd (they are already in it when it is their equilibrium
       move). *)
    let crowd = Profile.aggregate profile m in
    let crowd = if m = played then crowd else Crowd.join atlas crowd player in
    let disagreement = Payoff.disagreement atlas ~mas:m crowd in
    let score scorer = Payoff.score scorer ~disagreement ~count:crowd.count in
    {
      mas = choice.Algorithm1.mas;
      benefits = choice.Algorithm1.benefits;
      po_blank = score Payoff.Blanks;
      po_sm = score Payoff.Count;
      po_weighted = Option.map score weighted;
      disclosure = Deduction.of_crowd atlas ~mas:m crowd;
      recommended = m = played;
    }
  in
  let options =
    List.init (Atlas.choice_count atlas player) (fun k ->
        option_of (Atlas.choice atlas player k))
  in
  let recommended = List.find (fun o -> o.recommended) options in
  let n = Universe.size (Partial.universe recommended.mas) in
  {
    valuation = v;
    granted = recommended.benefits;
    options;
    minimization_ratio =
      float_of_int (Partial.blank_count recommended.mas) /. float_of_int n;
  }

let recommended t = List.find (fun o -> o.recommended) t.options

let pp ppf t =
  Fmt.pf ppf "@[<v>Your full form:    %a@," Total.pp t.valuation;
  Fmt.pf ppf "Benefits due:      %a@,"
    Fmt.(list ~sep:(any ", ") string)
    t.granted;
  Fmt.pf ppf "You have %d way(s) to prove eligibility:@,"
    (List.length t.options);
  List.iter
    (fun o ->
      Fmt.pf ppf "  %a%s@," Partial.pp o.mas
        (if o.recommended then "   <- recommended" else "");
      Fmt.pf ppf "    hides %.0f predicate(s) from any attacker; %.0f other applicant(s) look identical@,"
        o.po_blank o.po_sm;
      (match o.po_weighted with
      | Some w -> Fmt.pf ppf "    weighted privacy score: %.1f@," w
      | None -> ());
      match o.disclosure.Deduction.deduced with
      | [] -> ()
      | deduced ->
        Fmt.pf ppf "    note: not sending %a still reveals %a@,"
          Fmt.(
            list ~sep:(any ", ") (fun ppf (name, _) -> Fmt.string ppf name))
          deduced
          Fmt.(
            list ~sep:(any ", ") (fun ppf (name, b) ->
                Fmt.pf ppf "%s=%d" name (if b then 1 else 0)))
          deduced)
    t.options;
  Fmt.pf ppf "Minimization: %.0f%% of the form stays blank@]"
    (100. *. t.minimization_ratio)

let to_json t =
  let lit (name, b) = Json.Obj [ (name, Json.Bool b) ] in
  Json.Obj
    [
      ("valuation", Json.String (Total.to_string t.valuation));
      ("granted", Json.List (List.map (fun b -> Json.String b) t.granted));
      ( "options",
        Json.List
          (List.map
             (fun o ->
               Json.Obj
                 [
                   ("mas", Json.String (Partial.to_string o.mas));
                   ( "benefits",
                     Json.List (List.map (fun b -> Json.String b) o.benefits)
                   );
                   ("po_blank", Json.Float o.po_blank);
                   ("po_sm", Json.Float o.po_sm);
                   ( "po_weighted",
                     match o.po_weighted with
                     | Some w -> Json.Float w
                     | None -> Json.Null );
                   ( "published",
                     Json.List
                       (List.map lit o.disclosure.Deduction.published) );
                   ( "deduced",
                     Json.List (List.map lit o.disclosure.Deduction.deduced)
                   );
                   ( "protected",
                     Json.List
                       (List.map
                          (fun p -> Json.String p)
                          o.disclosure.Deduction.protected) );
                   ("crowd", Json.Int o.disclosure.Deduction.crowd_size);
                   ("recommended", Json.Bool o.recommended);
                 ])
             t.options) );
      ("minimization_ratio", Json.Float t.minimization_ratio);
    ]
