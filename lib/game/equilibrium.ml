module Atlas = Pet_minimize.Atlas

type deviation = {
  player : int;
  from_mas : int;
  to_mas : int;
  current : float;
  deviated : float;
}

(* Player [i]'s payoff at its current move, and its payoff if it
   deviated to [m], joining [m]'s crowd. *)
let current atlas scorer profile i =
  let m = Profile.move_of profile i in
  Payoff.of_crowd atlas scorer ~mas:m (Profile.aggregate profile m)

let deviated atlas scorer profile i m =
  Payoff.of_crowd atlas scorer ~mas:m
    (Crowd.join atlas (Profile.aggregate profile m) i)

let find_improvement profile payoff =
  let atlas = Profile.atlas profile in
  let scorer = Payoff.scorer atlas payoff in
  let n = Atlas.player_count atlas in
  let rec check_player i =
    if i >= n then None
    else
      let from_mas = Profile.move_of profile i in
      let current = current atlas scorer profile i in
      let rec check_moves k =
        if k >= Atlas.choice_count atlas i then check_player (i + 1)
        else
          let m = Atlas.choice atlas i k in
          if m = from_mas then check_moves (k + 1)
          else
            let deviated = deviated atlas scorer profile i m in
            if deviated > current then
              Some { player = i; from_mas; to_mas = m; current; deviated }
            else check_moves (k + 1)
      in
      check_moves 0
  in
  check_player 0

let is_nash profile payoff = find_improvement profile payoff = None

let deviations profile payoff =
  let atlas = Profile.atlas profile in
  let scorer = Payoff.scorer atlas payoff in
  let found = ref [] in
  for i = Atlas.player_count atlas - 1 downto 0 do
    let from_mas = Profile.move_of profile i in
    let current = current atlas scorer profile i in
    for k = Atlas.choice_count atlas i - 1 downto 0 do
      let m = Atlas.choice atlas i k in
      if m <> from_mas then
        let deviated = deviated atlas scorer profile i m in
        if deviated > current then
          found :=
            { player = i; from_mas; to_mas = m; current; deviated } :: !found
    done
  done;
  !found

let refine ?max_steps profile payoff =
  let atlas = Profile.atlas profile in
  let max_steps =
    match max_steps with
    | Some s -> s
    | None -> 20 * max 1 (Atlas.player_count atlas)
  in
  (* A step moves one player in place, on a copy taken at the first
     step: the caller's profile is never changed. *)
  let rec go profile ~owned steps =
    if steps >= max_steps then (profile, false)
    else
      match find_improvement profile payoff with
      | None -> (profile, true)
      | Some d ->
        let profile = if owned then profile else Profile.copy profile in
        Profile.move profile d.player d.to_mas;
        go profile ~owned:true (steps + 1)
  in
  go profile ~owned:false 0

let pp_deviation ppf d =
  Fmt.pf ppf "player %d: MAS %d (%.1f) -> MAS %d (%.1f)" d.player d.from_mas
    d.current d.to_mas d.deviated
