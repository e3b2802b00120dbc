module Atlas = Pet_minimize.Atlas

type recruit = {
  player : int;
  previous_mas : int;
  previous_payoff : float;
  new_payoff : float;
}

type result = {
  mas : int;
  crowd_before : int;
  payoff_before : float;
  payoff_after : float;
  recruits : recruit list;
  beneficiaries : int;
}

(* A move's [PO_blank] under the crowd aggregate [crowd]. *)
let po_blank atlas ~mas crowd = Payoff.of_crowd atlas Payoff.Blanks ~mas crowd

let improve ?(max_recruits = 3) profile ~mas =
  let atlas = Profile.atlas profile in
  let base_crowd = Profile.aggregate profile mas in
  let payoff = po_blank atlas ~mas in
  let payoff_before = payoff base_crowd in
  let candidates =
    List.filter
      (fun i -> Profile.move_of profile i <> mas)
      (Atlas.players_of_mas atlas mas)
  in
  (* Greedy: at each step recruit the candidate that maximizes the move's
     payoff; stop when no candidate strictly improves it. *)
  let rec grow crowd chosen candidates k =
    if k = 0 then (crowd, List.rev chosen)
    else
      let best =
        List.fold_left
          (fun best i ->
            let gain = payoff (Crowd.join atlas crowd i) in
            match best with
            | Some (_, g) when g >= gain -> best
            | _ when gain > payoff crowd -> Some (i, gain)
            | _ -> best)
          None candidates
      in
      match best with
      | None -> (crowd, List.rev chosen)
      | Some (i, _) ->
        grow (Crowd.join atlas crowd i) (i :: chosen)
          (List.filter (( <> ) i) candidates)
          (k - 1)
  in
  let crowd_after, chosen = grow base_crowd [] candidates max_recruits in
  if chosen = [] then None
  else
    let payoff_after = payoff crowd_after in
    let recruits =
      List.map
        (fun i ->
          let previous_mas = Profile.move_of profile i in
          let previous_payoff =
            po_blank atlas ~mas:previous_mas
              (Profile.aggregate profile previous_mas)
          in
          { player = i; previous_mas; previous_payoff; new_payoff = payoff_after })
        chosen
    in
    Some
      {
        mas;
        crowd_before = base_crowd.count;
        payoff_before;
        payoff_after;
        recruits;
        beneficiaries = base_crowd.count;
      }

type plan = {
  steps : result list;
  final : Profile.t;
  recruited : int;
  floor_before : float;
  floor_after : float;
}

let floor_of profile =
  let atlas = Profile.atlas profile in
  let lowest = ref infinity in
  for m = 0 to Atlas.mas_count atlas - 1 do
    let crowd = Profile.aggregate profile m in
    if crowd.count > 0 then lowest := min !lowest (po_blank atlas ~mas:m crowd)
  done;
  if !lowest = infinity then 0. else !lowest

let apply_step profile (r : result) =
  let atlas = Profile.atlas profile in
  let moved = List.map (fun rec_ -> rec_.player) r.recruits in
  Profile.make atlas
    (Array.init (Atlas.player_count atlas) (fun i ->
         if List.mem i moved then r.mas else Profile.move_of profile i))

let plan ?(budget = 5) profile =
  let atlas = Profile.atlas profile in
  let floor_before = floor_of profile in
  (* Played moves in ascending payoff order; try to lift the worst one
     first, re-evaluating after each applied step. *)
  let rec go profile steps recruited =
    if recruited >= budget then (profile, steps, recruited)
    else
      let candidates =
        List.init (Atlas.mas_count atlas) Fun.id
        |> List.filter (fun m -> Profile.crowd_size profile m > 0)
        |> List.map (fun m ->
               (po_blank atlas ~mas:m (Profile.aggregate profile m), m))
        |> List.sort compare
      in
      let rec try_moves = function
        | [] -> None
        | (_, m) :: rest -> (
          match improve ~max_recruits:(budget - recruited) profile ~mas:m with
          | Some r -> Some r
          | None -> try_moves rest)
      in
      match try_moves candidates with
      | None -> (profile, steps, recruited)
      | Some r ->
        go (apply_step profile r) (r :: steps)
          (recruited + List.length r.recruits)
  in
  let final, steps, recruited = go profile [] 0 in
  {
    steps = List.rev steps;
    final;
    recruited;
    floor_before;
    floor_after = floor_of final;
  }

let pp ppf r =
  Fmt.pf ppf
    "MAS %d: PO_blank %.0f -> %.0f for %d players, recruiting %d volunteer(s)"
    r.mas r.payoff_before r.payoff_after r.beneficiaries
    (List.length r.recruits)
