module Total = Pet_valuation.Total
module Partial = Pet_valuation.Partial
module Engine = Pet_rules.Engine
module Exposure = Pet_rules.Exposure
module Code = Pet_compile.Code

type t = {
  engine : Engine.t;
  xp : Pet_valuation.Universe.t;
  mas : Algorithm1.choice array; (* lexicographic order *)
  players : int array; (* valuation bits, increasing *)
  choices_of_player : int list array; (* ascending MAS indices *)
  players_of_mas : int list array; (* ascending player indices *)
}

module Pmap = Map.Make (struct
  type t = Partial.t

  let compare = Partial.compare
end)

let max_enumerable_predicates = 24

let obs_mas_gauge = Pet_obs.Metrics.gauge "pet_atlas_mas"
let obs_players_gauge = Pet_obs.Metrics.gauge "pet_atlas_players"

(* Algorithm 1's answer for [v] is a function of a key, so it runs once
   per distinct key. In Chain and Entail mode the key is the set of rule
   conjunctions [v] satisfies: the candidates are products of those
   conjunctions (a conjunction [v] satisfies restricted to [v] is the
   conjunction itself), and closure, the accuracy filter and the
   minimality filter see only the candidates. In Exact mode the MAS are
   restrictions of [v]'s own bits, so the key is [v]. [fill_key] writes
   [v]'s key into [key], whose length {!key_words} gives. *)
let key_words mode conjs =
  match mode with
  | Algorithm1.Exact -> 1
  | Chain | Entail -> (Array.length conjs + Sys.int_size - 1) / Sys.int_size

let fill_key mode conjs key v =
  match mode with
  | Algorithm1.Exact -> key.(0) <- v
  | Chain | Entail ->
    Array.fill key 0 (Array.length key) 0;
    for j = 0 to Array.length conjs - 1 do
      if Code.conj_holds conjs.(j) v then
        let w = j / Sys.int_size in
        key.(w) <- key.(w) lor (1 lsl (j mod Sys.int_size))
    done

(* The benefit bitset of every total valuation: each conjunction of
   benefit [i]'s rule sets bit [i] on its completions. *)
let benefit_table rules ~full =
  let tab = Array.make (full + 1) 0 in
  Array.iteri
    (fun i conjs ->
      let bit = 1 lsl i in
      Array.iter
        (fun (c : Code.conj) ->
          let free = full land lnot c.mask in
          let s = ref free and continue = ref true in
          while !continue do
            let v = c.bits lor !s in
            tab.(v) <- tab.(v) lor bit;
            if !s = 0 then continue := false else s := (!s - 1) land free
          done)
        conjs)
    rules;
  tab

(* The players of MAS [m] proving [proves] (a benefit bitset): the
   completions of [m] whose benefit bitset in [benefit_tab] equals it,
   ascending. [(s - 1) land free] walks the submasks of the free
   positions downwards, so consing yields increasing words. *)
let crowd benefit_tab ~full ~proves m =
  let dom = Partial.domain_mask m and bits = Partial.bits m in
  let free = full land lnot dom in
  let rec go s acc =
    let v = bits lor s in
    let acc = if benefit_tab.(v) = proves then v :: acc else acc in
    if s = 0 then acc else go ((s - 1) land free) acc
  in
  go free []

let build ?(mode = Algorithm1.Chain) engine =
  Pet_obs.Span.enter "atlas.build" @@ fun () ->
  let exposure = Engine.exposure engine in
  let xp = Exposure.xp exposure in
  let n = Pet_valuation.Universe.size xp in
  if n > max_enumerable_predicates then
    invalid_arg
      "Atlas.build: form too large to enumerate; use Symbolic.build for \
       the global statistics";
  let xb = Exposure.xb exposure in
  (* Benefit bitsets are ints, so they stay non-negative. *)
  if Pet_valuation.Universe.size xb >= Sys.int_size then
    invalid_arg "Atlas.build: too many benefits";
  let rules = Exposure.conjunction_words exposure in
  let full = (1 lsl n) - 1 in
  let tab = benefit_table rules ~full in
  (* Collect the deduplicated MAS set over all realistic eligible
     valuations (a non-zero benefit bitset and the constraints hold),
     running Algorithm 1 once per key. The key is built in one buffer
     and copied only when it is new. *)
  let consistent = Exposure.consistent_word exposure in
  let mas_of = Algorithm1.mas_of ~mode engine in
  let conjs = Array.concat (Array.to_list rules) in
  let key = Array.make (key_words mode conjs) 0 in
  let seen = Hashtbl.create 1024 in
  let mas_set = ref Pmap.empty in
  for v = 0 to full do
    if tab.(v) <> 0 && consistent v then begin
      fill_key mode conjs key v;
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen (Array.copy key) ();
        List.iter
          (fun (c : Algorithm1.choice) ->
            mas_set := Pmap.add c.mas c !mas_set)
          (mas_of (Total.of_bits xp v))
      end
    end
  done;
  (* OCaml empties the minor heap before [Array.make], [init], [map] or
     [of_list] creates an array of more than 256 (Max_young_wosize)
     elements from a young block, and in a process of several domains
     every minor collection stops the world (DESIGN.md §5). So every
     array below starts from an immediate and is filled, or holds ints,
     or, here, comes from [Array.concat], which allocates a large result
     in the major heap. *)
  let mas =
    Pmap.fold (fun _ c acc -> c :: acc) !mas_set []
    |> List.sort (fun (a : Algorithm1.choice) b ->
           Partial.compare_lex a.mas b.mas)
    |> List.map (fun c -> [| c |])
    |> Array.concat
  in
  let nm = Array.length mas in
  (* Potential players per MAS (Algorithm 1, lines 18-23): the
     extensions with the benefit set the MAS proves, read off one table
     of benefit bitsets over every total valuation. A MAS proves exactly
     the benefits it was chosen for. *)
  let players_of_mas = Array.make nm [] in
  Array.iteri
    (fun mi (c : Algorithm1.choice) ->
      let proves =
        List.fold_left
          (fun acc b -> acc lor (1 lsl Pet_valuation.Universe.index xb b))
          0 c.benefits
      in
      players_of_mas.(mi) <- crowd tab ~full ~proves c.mas)
    mas;
  (* The benefit table is dead now; it becomes the player index. Crowd
     members are marked -1 (benefit bitsets are non-negative), then
     numbered in one ascending pass. *)
  let np = ref 0 in
  Array.iter
    (List.iter (fun v ->
         if tab.(v) >= 0 then begin
           tab.(v) <- -1;
           incr np
         end))
    players_of_mas;
  let players = Array.make !np 0 in
  let next = ref 0 in
  for v = 0 to full do
    if tab.(v) < 0 then begin
      tab.(v) <- !next;
      players.(!next) <- v;
      incr next
    end
  done;
  let choices_of_player = Array.make !np [] in
  for mi = nm - 1 downto 0 do
    let ps = List.map (fun v -> tab.(v)) players_of_mas.(mi) in
    players_of_mas.(mi) <- ps;
    List.iter
      (fun pi -> choices_of_player.(pi) <- mi :: choices_of_player.(pi))
      ps
  done;
  Pet_obs.Metrics.set_gauge obs_mas_gauge (float_of_int nm);
  Pet_obs.Metrics.set_gauge obs_players_gauge (float_of_int !np);
  { engine; xp; mas; players; choices_of_player; players_of_mas }

let engine t = t.engine
let mas_count t = Array.length t.mas

let mas t i =
  if i < 0 || i >= Array.length t.mas then invalid_arg "Atlas.mas: out of range";
  t.mas.(i)

let mas_list t = Array.to_list t.mas

(* Binary search over [a], sorted by [cmp]. *)
let search a cmp x =
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let c = cmp a.(mid) x in
      if c = 0 then Some mid else if c < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

(* [compare_lex] ranks each position _ < 0 < 1 from the domain and value
   masks, so on one universe it is 0 exactly when [Partial.equal] holds;
   the final [equal] also rejects a [w] with bits beyond the universe. *)
let find_mas t w =
  let cmp (c : Algorithm1.choice) w = Partial.compare_lex c.mas w in
  match search t.mas cmp w with
  | Some i when Partial.equal t.mas.(i).mas w -> Some i
  | _ -> None

let player_count t = Array.length t.players

let player_bits t i =
  if i < 0 || i >= Array.length t.players then
    invalid_arg "Atlas.player: out of range";
  t.players.(i)

let player t i = Total.of_bits t.xp (player_bits t i)
let find_player t v = search t.players Int.compare (Total.bits v)

let choices_of_player t i =
  if i < 0 || i >= Array.length t.choices_of_player then
    invalid_arg "Atlas.choices_of_player: out of range";
  t.choices_of_player.(i)

let players_of_mas t i =
  if i < 0 || i >= Array.length t.players_of_mas then
    invalid_arg "Atlas.players_of_mas: out of range";
  t.players_of_mas.(i)

let forced_players_of_mas t i =
  List.filter
    (fun pi -> match t.choices_of_player.(pi) with [ _ ] -> true | _ -> false)
    (players_of_mas t i)

let choice_distribution t =
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun choices ->
      let k = List.length choices in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    t.choices_of_player;
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let domain_size_range t =
  Array.fold_left
    (fun (lo, hi) (c : Algorithm1.choice) ->
      let d = Partial.domain_size c.mas in
      (min lo d, max hi d))
    (max_int, 0) t.mas

let pp_summary ppf t =
  let lo, hi = domain_size_range t in
  Fmt.pf ppf "@[<v>Number of MAS: %d@,Number of valuations: %d@,"
    (mas_count t) (player_count t);
  Fmt.pf ppf "Number of predicates per MAS: %d to %d@," lo hi;
  List.iter
    (fun (k, n) ->
      Fmt.pf ppf "Number of valuations with %d MAS: %d@," k n)
    (choice_distribution t);
  Fmt.pf ppf "@]"
