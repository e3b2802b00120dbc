module Atlas = Pet_minimize.Atlas

type t = {
  atlas : Atlas.t;
  strategies : (int * float) list array; (* ascending MAS index, sums to 1 *)
}

let of_pure profile =
  let atlas = Profile.atlas profile in
  {
    atlas;
    strategies =
      Array.init (Atlas.player_count atlas) (fun i ->
          [ (Profile.move_of profile i, 1.0) ]);
  }

let atlas t = t.atlas

let strategy t ~player =
  if player < 0 || player >= Array.length t.strategies then
    invalid_arg "Mixed.strategy: out of range";
  t.strategies.(player)

let normalize dist =
  let dist = List.filter (fun (_, p) -> p > 1e-12) dist in
  let total = List.fold_left (fun acc (_, p) -> acc +. p) 0. dist in
  List.map (fun (m, p) -> (m, p /. total)) dist
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let perturb t ~player ~mas ~epsilon =
  if epsilon < 0. || epsilon > 1. then invalid_arg "Mixed.perturb: epsilon";
  if not (List.mem mas (Atlas.choices_of_player t.atlas player)) then
    invalid_arg "Mixed.perturb: MAS is not a choice of the player";
  let current = t.strategies.(player) in
  let scaled = List.map (fun (m, p) -> (m, p *. (1. -. epsilon))) current in
  let bumped =
    if List.mem_assoc mas scaled then
      List.map
        (fun (m, p) -> if m = mas then (m, p +. epsilon) else (m, p))
        scaled
    else (mas, epsilon) :: scaled
  in
  let strategies = Array.copy t.strategies in
  strategies.(player) <- normalize bumped;
  { t with strategies }

let draw rng dist =
  let u = Random.State.float rng 1.0 in
  let rec go acc = function
    | [] -> assert false
    | [ (m, _) ] -> m
    | (m, p) :: rest -> if u < acc +. p then m else go (acc +. p) rest
  in
  go 0. dist

let sample ~seed t =
  let rng = Random.State.make [| seed |] in
  Profile.make t.atlas (Array.map (fun dist -> draw rng dist) t.strategies)

let expected_payoff ?(samples = 200) ~seed t ~player kind =
  let degenerate =
    Array.for_all (fun dist -> List.length dist = 1) t.strategies
  in
  let samples = if degenerate then 1 else samples in
  let total = ref 0. in
  for k = 0 to samples - 1 do
    let profile = sample ~seed:(seed + k) t in
    total := !total +. Payoff.of_profile profile kind ~player
  done;
  !total /. float_of_int samples
