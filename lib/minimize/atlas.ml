module Total = Pet_valuation.Total
module Partial = Pet_valuation.Partial
module Universe = Pet_valuation.Universe
module Engine = Pet_rules.Engine
module Exposure = Pet_rules.Exposure
module Code = Pet_compile.Code

type t = {
  engine : Engine.t;
  xp : Universe.t;
  mas : Algorithm1.choice array; (* lexicographic order *)
  np : int;
  (* Players: [Cells.length players], kept so that {!player_count}, which
     Algorithm 2 calls in its loops, reads a field. A call to
     [Cells.length] is not inlined across the -opaque modules of dune's
     default profile. *)
  (* The integer arrays are {!Cells}, each as narrow as its largest
     value allows: every value is a valuation word of at most 24 bits, an
     index or an offset. *)
  players : Cells.t; (* valuation bits, increasing *)
  (* The bipartite graph as two flat adjacency lists. The players of MAS
     [m] are [crowds] over [crowd_off[m] .. crowd_off[m + 1] - 1],
     ascending player indices; the choices of player [i] are [choices]
     over [choice_off[i] .. choice_off[i + 1] - 1], ascending MAS
     indices. *)
  crowd_off : Cells.t;
  crowds : Cells.t;
  choice_off : Cells.t;
  choices : Cells.t;
}

let max_enumerable_predicates = 24

(* Cell [i] of [c], unchecked: every read below is of an index the build
   wrote or an accessor checked. *)
let[@inline] cell c i =
  if Cells.byte c 0 = '\002' then Cells.get16 c ((2 * i) + 2)
  else Int32.to_int (Cells.get32 c ((4 * i) + 4))

let obs_mas_gauge = Pet_obs.Metrics.gauge "pet_atlas_mas"
let obs_players_gauge = Pet_obs.Metrics.gauge "pet_atlas_players"

(* An insert-only set of non-negative ints: linear probing over a
   power-of-two table, at most half full, -1 marking a free slot. The
   table is [slots.a.(0 .. slots.len - 1)]; it doubles into [spare], and
   both are scratch buffers, so a set that grew in one build does not
   grow again in the next. *)
module Int_set = struct
  type t = {
    mutable slots : Wordbuf.t;
    mutable spare : Wordbuf.t;
    mutable size : int;
  }

  let create scratch =
    let slots = Scratch.buffer scratch in
    Wordbuf.fill slots 64 (-1);
    { slots; spare = Scratch.buffer scratch; size = 0 }

  let rec probe slots mask k i =
    let x = slots.(i) in
    if x = -1 || x = k then i else probe slots mask k ((i + 1) land mask)

  let slot (slots : Wordbuf.t) k =
    let mask = slots.len - 1 in
    let h = k * 0x9E3779B1 in
    probe slots.a mask k ((h lxor (h lsr 29)) land mask)

  let grow s =
    let old = s.slots and slots = s.spare in
    Wordbuf.fill slots (2 * old.len) (-1);
    for i = 0 to old.len - 1 do
      let k = old.a.(i) in
      if k >= 0 then slots.a.(slot slots k) <- k
    done;
    s.slots <- slots;
    s.spare <- old

  let mem s k = s.slots.a.(slot s.slots k) = k

  (* Whether [k] was new. *)
  let add s k =
    let i = slot s.slots k in
    s.slots.a.(i) <> k
    && begin
         s.slots.a.(i) <- k;
         s.size <- s.size + 1;
         if 2 * s.size > s.slots.len then grow s;
         true
       end
end

(* Algorithm 1's answer for [v] is a function of a key, so it runs once
   per distinct key. In Chain and Entail mode the key is the set of rule
   conjunctions [v] satisfies: the candidates are products of those
   conjunctions (a conjunction [v] satisfies restricted to [v] is the
   conjunction itself), and closure, the accuracy filter and the
   minimality filter see only the candidates. With fewer conjunctions
   than the bits of a non-negative int, that set is one word, and the
   benefit-table kernel fills a table of them with one group per
   conjunction. A valuation's benefit bitset follows from its
   conjunction set ([granted]), so that one table serves as both. In
   Exact mode the MAS are restrictions of [v]'s own bits, so the key is
   [v]; it is also the key of a form with more conjunctions, where the
   answer is no less a function of [v], and the table is the benefit
   table itself. [conjunction_groups] is [None] then, or else the mask,
   over the conjunction table's bits, of each benefit's conjunctions. *)
let conjunction_groups mode rules =
  let count = Array.fold_left (fun k cs -> k + Array.length cs) 0 rules in
  match mode with
  | Algorithm1.Chain | Entail when count < Sys.int_size ->
    let next = ref 0 in
    Some
      (Array.map
         (fun cs ->
           let first = !next in
           next := first + Array.length cs;
           ((1 lsl Array.length cs) - 1) lsl first)
         rules)
  | Chain | Entail | Exact -> None

(* The benefit bitset of a valuation satisfying the conjunctions [set]. *)
let granted groups set =
  let g = ref 0 in
  for i = 0 to Array.length groups - 1 do
    if set land groups.(i) <> 0 then g := !g lor (1 lsl i)
  done;
  !g

let build ?(mode = Algorithm1.Chain) engine =
  Pet_obs.Span.enter "atlas.build" @@ fun () ->
  let exposure = Engine.exposure engine in
  let xp = Exposure.xp exposure in
  let n = Universe.size xp in
  if n > max_enumerable_predicates then
    invalid_arg
      "Atlas.build: form too large to enumerate; use Symbolic.build for \
       the global statistics";
  let xb = Exposure.xb exposure in
  (* Benefit bitsets are ints, so they stay non-negative. *)
  if Universe.size xb >= Sys.int_size then
    invalid_arg "Atlas.build: too many benefits";
  let rules = Exposure.conjunction_words exposure in
  let full = (1 lsl n) - 1 in
  let groups = conjunction_groups mode rules in
  (* Every working array below comes from the domain's scratch; only the
     atlas's own arrays are allocated (DESIGN.md §5). *)
  Scratch.with_scratch @@ fun scratch ->
  let tab = Scratch.array scratch (full + 1) 0 in
  (match groups with
  | Some _ ->
    Code.fill_benefit_table ~n
      (Array.map (fun c -> [| c |]) (Array.concat (Array.to_list rules)))
      tab
  | None -> Code.fill_benefit_table ~n rules tab);
  let benefits_of set =
    match groups with Some g -> granted g set | None -> set
  in
  (* Collect the deduplicated MAS set over all realistic eligible
     valuations (a non-zero benefit bitset and the constraints hold),
     running Algorithm 1 once per key. A MAS is its domain and value
     words, deduplicated as one word, and the benefit bitset it proves,
     which is that of every valuation it came from. *)
  let consistent = Exposure.consistent_word exposure in
  let mas_words = Algorithm1.mas_words ~mode engine in
  let seen = Int_set.create scratch and found = Int_set.create scratch in
  let doms = Scratch.buffer scratch
  and bits = Scratch.buffer scratch
  and proves = Scratch.buffer scratch in
  let current = ref 0 in
  let emit dom =
    let v = !current in
    if Int_set.add found ((dom lsl n) lor (v land dom)) then begin
      Wordbuf.push doms dom;
      Wordbuf.push bits (v land dom);
      Wordbuf.push proves (benefits_of tab.(v))
    end
  in
  for v = 0 to full do
    if tab.(v) <> 0 then begin
      (* The constraints are tested only for a key not yet seen. *)
      let key = match groups with Some _ -> tab.(v) | None -> v in
      if (not (Int_set.mem seen key)) && consistent v then begin
        ignore (Int_set.add seen key);
        current := v;
        ignore (mas_words v emit)
      end
    end
  done;
  let nm = doms.len in
  let order = Scratch.buffer scratch in
  for i = 0 to nm - 1 do
    Wordbuf.push order i
  done;
  Wordbuf.sort order (fun i j ->
      Partial.compare_lex_words doms.a.(i) bits.a.(i) doms.a.(j) bits.a.(j));
  let order = order.a in
  (* OCaml empties the minor heap before [Array.make], [init], [map] or
     [of_list] creates an array of more than 256 (Max_young_wosize)
     elements from a young block, and in a process of several domains
     every minor collection stops the world (DESIGN.md §5). So the MAS
     array comes from [Array.concat], which allocates a large result in
     the major heap, and every other array below is {!Cells}, which are
     bytes. *)
  (* The MAS of one benefit bitset share its list of names, and the list
     of a bitset is its lowest benefit's name on the list of the rest, so
     each bitset costs one cons cell. *)
  let names = Hashtbl.create 8 in
  let rec benefits granted =
    if granted = 0 then []
    else
      match Hashtbl.find_opt names granted with
      | Some l -> l
      | None ->
        let low = granted land -granted in
        let l =
          Universe.name xb (Universe.popcount (low - 1))
          :: benefits (granted lxor low)
        in
        Hashtbl.add names granted l;
        l
  in
  let mas = ref [] in
  for k = nm - 1 downto 0 do
    let i = order.(k) in
    let c : Algorithm1.choice =
      {
        mas = Partial.of_masks xp ~dom:doms.a.(i) ~bits:bits.a.(i);
        benefits = benefits proves.a.(i);
      }
    in
    mas := [| c |] :: !mas
  done;
  let mas = Array.concat !mas in
  (* Potential players per MAS (Algorithm 1, lines 18-23): the
     extensions with the benefit set the MAS proves, read off the benefit
     table. [(s - free) land free] walks the submasks of the free
     positions upwards, so each crowd comes out ascending. *)
  (match groups with
  | Some g ->
    for v = 0 to full do
      if tab.(v) <> 0 then tab.(v) <- granted g tab.(v)
    done
  | None -> ());
  let members = Scratch.buffer scratch in
  let offsets = Scratch.buffer scratch in
  Wordbuf.push offsets 0;
  for k = 0 to nm - 1 do
    let i = order.(k) in
    let b = bits.a.(i) and p = proves.a.(i) in
    let free = full land lnot doms.a.(i) in
    let s = ref 0 and continue = ref true in
    while !continue do
      let v = b lor !s in
      if tab.(v) = p then Wordbuf.push members v;
      s := (!s - free) land free;
      continue := !s <> 0
    done;
    Wordbuf.push offsets members.len
  done;
  let crowd_off = Cells.of_wordbuf offsets in
  (* The benefit table is dead now; it becomes the player index. Crowd
     members are marked -1 (benefit bitsets are non-negative), then
     numbered in one ascending pass, and the crowds renumbered. *)
  let ne = members.len in
  let np = ref 0 and top = ref 0 in
  for e = 0 to ne - 1 do
    let v = members.a.(e) in
    if tab.(v) >= 0 then begin
      tab.(v) <- -1;
      incr np;
      top := Int.max !top v
    end
  done;
  let np = !np in
  let players = Cells.create ~max:!top np in
  let next = ref 0 in
  for v = 0 to full do
    if tab.(v) < 0 then begin
      tab.(v) <- !next;
      Cells.set players !next v;
      incr next
    end
  done;
  for e = 0 to ne - 1 do
    members.a.(e) <- tab.(members.a.(e))
  done;
  let crowds = Cells.of_wordbuf members in
  (* The choices of each player, in [members], which is dead now: count
     them into [off.(p + 1)] and sum, so [off.(p)] is where [p]'s start
     and [off] is [choice_off]; fill in MAS order, advancing [off.(p)]. *)
  let off = members in
  Wordbuf.fill off (np + 1) 0;
  let off = off.a in
  for e = 0 to ne - 1 do
    let p = cell crowds e + 1 in
    off.(p) <- off.(p) + 1
  done;
  for p = 1 to np do
    off.(p) <- off.(p) + off.(p - 1)
  done;
  let choice_off = Cells.of_wordbuf members in
  let choices = Cells.create ~max:(nm - 1) ne in
  for m = 0 to nm - 1 do
    for e = offsets.a.(m) to offsets.a.(m + 1) - 1 do
      let p = cell crowds e in
      Cells.set choices off.(p) m;
      off.(p) <- off.(p) + 1
    done
  done;
  Pet_obs.Metrics.set_gauge obs_mas_gauge (float_of_int nm);
  Pet_obs.Metrics.set_gauge obs_players_gauge (float_of_int np);
  { engine; xp; mas; np; players; crowd_off; crowds; choice_off; choices }

let engine t = t.engine
let mas_count t = Array.length t.mas

let mas t i =
  if i < 0 || i >= Array.length t.mas then invalid_arg "Atlas.mas: out of range";
  t.mas.(i)

let mas_list t = Array.to_list t.mas

(* Binary search over [0 .. n - 1] for the index whose [cmp] with [x],
   ascending in the index, is 0. *)
let search n cmp x =
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let c = cmp mid x in
      if c = 0 then Some mid else if c < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 n

(* [compare_lex] ranks each position _ < 0 < 1 from the domain and value
   masks, so on one universe it is 0 exactly when [Partial.equal] holds;
   the final [equal] also rejects a [w] with bits beyond the universe. *)
let find_mas t w =
  let cmp i w = Partial.compare_lex t.mas.(i).Algorithm1.mas w in
  match search (Array.length t.mas) cmp w with
  | Some i when Partial.equal t.mas.(i).mas w -> Some i
  | _ -> None

(* The accessors check the player or MAS index, and then read the
   cells unchecked: the offsets are in range by construction. *)
let player_count t = t.np

let check_player t i =
  if i < 0 || i >= t.np then invalid_arg "Atlas.choices_of_player: out of range"

let check_mas t m =
  if m < 0 || m >= Array.length t.mas then
    invalid_arg "Atlas.players_of_mas: out of range"

let player_bits t i =
  if i < 0 || i >= t.np then invalid_arg "Atlas.player: out of range";
  cell t.players i

let player t i = Total.of_bits t.xp (player_bits t i)

let find_player t v =
  search t.np
    (fun i x -> Int.compare (cell t.players i) x)
    (Total.bits v)

let choice_count t i =
  check_player t i;
  cell t.choice_off (i + 1) - cell t.choice_off i

let choice t i k =
  check_player t i;
  let off = cell t.choice_off i in
  if k < 0 || k >= cell t.choice_off (i + 1) - off then
    invalid_arg "Atlas.choice: out of range";
  cell t.choices (off + k)

(* Whether [m] is among [choices] from [e] up to [last]. *)
let rec scan_choices choices m e last =
  e < last && (cell choices e = m || scan_choices choices m (e + 1) last)

let has_choice t i m =
  check_player t i;
  scan_choices t.choices m (cell t.choice_off i) (cell t.choice_off (i + 1))

let crowd_size t m =
  check_mas t m;
  cell t.crowd_off (m + 1) - cell t.crowd_off m

let crowd_member t m k =
  check_mas t m;
  let off = cell t.crowd_off m in
  if k < 0 || k >= cell t.crowd_off (m + 1) - off then
    invalid_arg "Atlas.crowd_member: out of range";
  cell t.crowds (off + k)

let crowd_offset t m =
  if m < 0 || m > Array.length t.mas then
    invalid_arg "Atlas.crowd_offset: out of range";
  cell t.crowd_off m

let choices_of_player t i = List.init (choice_count t i) (choice t i)
let players_of_mas t m = List.init (crowd_size t m) (crowd_member t m)

let forced_players_of_mas t m =
  List.filter (fun i -> choice_count t i = 1) (players_of_mas t m)

let choice_distribution t =
  let tbl = Hashtbl.create 8 in
  for i = 0 to player_count t - 1 do
    let k = choice_count t i in
    Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  done;
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
