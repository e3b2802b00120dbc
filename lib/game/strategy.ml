module Atlas = Pet_minimize.Atlas
module Scratch = Pet_minimize.Scratch
module Wordbuf = Pet_minimize.Wordbuf

(* A binary heap of ints, kept in [data.a.(0 .. data.len - 1)].
   Deletion is lazy: an entry that went stale stays where it is and is
   dropped by [pop_valid] when it reaches the top. Its operations are
   top-level recursions over int arrays, so they allocate nothing but
   the doubling of [data]. *)
module Heap = struct
  type t = { before : int -> int -> bool; data : Wordbuf.t }

  let rec up h x i =
    let a = h.data.a in
    let parent = (i - 1) / 2 in
    if i > 0 && h.before x a.(parent) then begin
      a.(i) <- a.(parent);
      up h x parent
    end
    else a.(i) <- x

  let push h x =
    Wordbuf.push h.data x;
    up h x (h.data.len - 1)

  let rec down h last i =
    let a = h.data.a and size = h.data.len in
    let l = (2 * i) + 1 in
    if l >= size then a.(i) <- last
    else
      let c = if l + 1 < size && h.before a.(l + 1) a.(l) then l + 1 else l in
      if h.before a.(c) last then begin
        a.(i) <- a.(c);
        down h last c
      end
      else a.(i) <- last

  let remove_top h =
    let size = h.data.len - 1 in
    Wordbuf.truncate h.data size;
    if size > 0 then down h h.data.a.(size) 0

  (* Pop entries until one satisfies [valid], and return that one; -1
     when the heap runs out. *)
  let rec pop_valid h valid =
    if h.data.len = 0 then -1
    else
      let x = h.data.a.(0) in
      remove_top h;
      if valid x then x else pop_valid h valid
end

(* The deadlock heap's entries: entry [e] is a pending player's best
   move and its score, as cached when the entry was pushed. They live in
   flat arrays, scores unboxed, so that filing one allocates nothing but
   their doubling. *)
type entries = {
  scratch : Scratch.t;
  mutable scores : float array;
  moves : Wordbuf.t;
  players : Wordbuf.t;
}

let add_entry es score move player =
  let e = es.moves.len in
  if e = Array.length es.scores then begin
    let scores = Scratch.floats es.scratch (2 * e) in
    Array.blit es.scores 0 scores 0 e;
    es.scores <- scores
  end;
  es.scores.(e) <- score;
  Wordbuf.push es.moves move;
  Wordbuf.push es.players player;
  e

(* The deadlock order of lines 11-16: highest score, then lowest move,
   then lowest player. *)
let deadlock_before es a b =
  let sa = es.scores.(a) and sb = es.scores.(b) in
  let moves = es.moves.a in
  sa > sb
  || sa = sb
     && (moves.(a) < moves.(b)
        || (moves.(a) = moves.(b) && es.players.a.(a) < es.players.a.(b)))

(* Every array is taken from the domain's scratch (DESIGN.md §5);
   {!Profile.make} copies [committed] into the profile's cells. *)
type state = {
  atlas : Atlas.t;
  scoring : Payoff.scorer;
  blank_mask : int array; (* per MAS *)
  (* Per MAS [m], in [live.(Atlas.crowd_offset atlas m + k)] for
     [k < live_len.(m)]: the players to update on a commit to it — those
     who can play it, less the committed and, under [Count], [delisted]
     ones. *)
  live : int array;
  live_len : int array;
  (* Per MAS, the committed crowd's aggregate ({!Crowd}), so that
     scoring a prospective commitment is O(1). *)
  ones : int array;
  zeros : int array;
  count : int array;
  committed : int array; (* player -> MAS, -1 while pending *)
  (* Per pending player, kept current after every commit: *)
  best : int array; (* the first move with the maximum score *)
  dominant : int array; (* 1 iff the best move strictly beats every
                           other, else 0 *)
  delisted : int array; (* [Count] only: the MAS whose [live] skips the
                           player, or -1 *)
  dominants : Heap.t; (* dominant players, lowest index on top *)
  entries : entries;
  deadlock : Heap.t; (* entries of non-dominant players, in deadlock order *)
}

let make_state scratch atlas payoff =
  let nm = Atlas.mas_count atlas in
  let np = Atlas.player_count atlas in
  let ints n x = Scratch.array scratch n x in
  let entries =
    {
      scratch;
      scores = Scratch.floats scratch 16;
      moves = Scratch.buffer scratch;
      players = Scratch.buffer scratch;
    }
  in
  let live = ints (Atlas.crowd_offset atlas nm) 0
  and live_len = ints nm 0
  and blank_mask = ints nm 0 in
  for m = 0 to nm - 1 do
    let start = Atlas.crowd_offset atlas m and size = Atlas.crowd_size atlas m in
    for k = 0 to size - 1 do
      live.(start + k) <- Atlas.crowd_member atlas m k
    done;
    live_len.(m) <- size;
    blank_mask.(m) <- Payoff.blank_mask atlas ~mas:m
  done;
  {
    atlas;
    scoring = Payoff.scorer atlas payoff;
    blank_mask;
    live;
    live_len;
    ones = ints nm 0;
    zeros = ints nm 0;
    count = ints nm 0;
    committed = ints np (-1);
    best = ints np (-1);
    dominant = ints np 0;
    delisted = ints (match payoff with Payoff.Sm -> np | _ -> 0) (-1);
    dominants =
      { before = (fun (i : int) j -> i < j); data = Scratch.buffer scratch };
    entries;
    deadlock =
      { before = deadlock_before entries; data = Scratch.buffer scratch };
  }

(* Payoff of a player with valuation [bits] if they joined a crowd of
   [count] on move [m] whose aggregates are [ones] and [zeros]: the
   crowd joined as in {!Crowd.add}, scored by {!Payoff.score}. It is
   inlined, as are [score] and [update], and integral payoffs come back
   from [Payoff.integral] as ints, so that scores stay unboxed: boxed,
   they would be about a third of a [PO_SM] run's minor words. *)
let[@inline] value st bits m ~ones ~zeros ~count =
  let disagreement =
    (ones lor bits) land (zeros lor lnot bits) land st.blank_mask.(m)
  and count = count + 1 in
  match st.scoring with
  | Payoff.Weights _ -> Payoff.score st.scoring ~disagreement ~count
  | Payoff.Count | Payoff.Blanks ->
    float_of_int (Payoff.integral st.scoring ~disagreement ~count)

(* Payoff of player [i] if they joined move [m]'s committed crowd. *)
let[@inline] score st i m =
  value st (Atlas.player_bits st.atlas i) m ~ones:st.ones.(m) ~zeros:st.zeros.(m)
    ~count:st.count.(m)

(* Cache a pending player's best move [bm], of score [bs], and file the
   player: one who turns dominant gets a [dominants] entry, any other a
   fresh [deadlock] entry. A player no longer dominant at the MAS that
   delisted them goes back on its [live]. *)
let file st i bm bs dominant =
  (match st.scoring with
  | Payoff.Count ->
    let d = st.delisted.(i) in
    if d >= 0 && not (dominant && bm = d) then begin
      st.delisted.(i) <- -1;
      st.live.(Atlas.crowd_offset st.atlas d + st.live_len.(d)) <- i;
      st.live_len.(d) <- st.live_len.(d) + 1
    end
  | Payoff.Blanks | Payoff.Weights _ -> ());
  let was_dominant = st.dominant.(i) = 1 in
  st.best.(i) <- bm;
  st.dominant.(i) <- Bool.to_int dominant;
  if dominant then begin
    if not was_dominant then Heap.push st.dominants i
  end
  else Heap.push st.deadlock (add_entry st.entries bs bm i)

(* Score every move of a pending player. Best move: highest score; ties
   broken by the lexicographic order on moves (MAS indices are in
   lexicographic order, choices ascending). *)
let rescore st i =
  (* Every player has at least one choice. *)
  let first = Atlas.choice st.atlas i 0 in
  let bm = ref first and bs = ref (score st i first) and dominant = ref true in
  for k = 1 to Atlas.choice_count st.atlas i - 1 do
    let m = Atlas.choice st.atlas i k in
    let s = score st i m in
    if s > !bs then begin
      bm := m;
      bs := s;
      dominant := true
    end
    else if s = !bs && m <> !bm then dominant := false
  done;
  file st i !bm !bs !dominant

(* Pending player [i]'s score for [m] went from [before] to [after]; their
   other scores did not move. The cached best move decides the new one in
   O(1), and the player is filed again only if it changed. A best or tied
   move that loses score (a negative weight) takes a rescan. *)
let[@inline] update st i m ~before ~after =
  let bm = st.best.(i) in
  if m = bm then begin
    if after > before then file st i bm after true
    else if after < before then rescore st i
  end
  else
    let bs = score st i bm in
    if after > bs then file st i m after true
    else if after = bs then begin
      if before < bs && (st.dominant.(i) = 1 || m < bm) then
        file st i (min bm m) bs false
    end
    else if before = bs then rescore st i

let join st i m =
  st.committed.(i) <- m;
  let bits = Atlas.player_bits st.atlas i in
  st.ones.(m) <- st.ones.(m) lor bits;
  st.zeros.(m) <- st.zeros.(m) lor lnot bits;
  st.count.(m) <- st.count.(m) + 1

(* Commit player [i] to move [m], then update the pending players whose
   score can have changed. Only [m]'s aggregate moved, so only players
   who can play [m]. A [Count] score moves on every commit; the others
   only when [ones] or [zeros] grows on one of [m]'s blanks, which
   happens at most twice per blank. A [Count] commit to [m] leaves a
   player dominant at [m] dominant there, so [m] delists them until
   that changes. *)
let commit st i m =
  let ones = st.ones.(m) and zeros = st.zeros.(m) and count = st.count.(m) in
  join st i m;
  let moved =
    match st.scoring with
    | Payoff.Count -> true
    | Payoff.Blanks | Payoff.Weights _ ->
      ((st.ones.(m) lxor ones) lor (st.zeros.(m) lxor zeros))
      land st.blank_mask.(m)
      <> 0
  in
  if moved then begin
    let delist = match st.scoring with Payoff.Count -> true | _ -> false in
    let live = st.live and start = Atlas.crowd_offset st.atlas m in
    let kept = ref start in
    for k = start to start + st.live_len.(m) - 1 do
      let j = live.(k) in
      if st.committed.(j) < 0 then begin
        update st j m
          ~before:(value st (Atlas.player_bits st.atlas j) m ~ones ~zeros ~count)
          ~after:(score st j m);
        if delist && st.best.(j) = m && st.dominant.(j) = 1 then
          st.delisted.(j) <- m
        else begin
          live.(!kept) <- j;
          incr kept
        end
      end
    done;
    st.live_len.(m) <- !kept - start
  end

(* Algorithm 2 on the scratch's arrays; the moves it commits, in a
   scratch array that may be longer than the players. *)
let select scratch atlas payoff =
  let st = make_state scratch atlas payoff in
  let n = Atlas.player_count atlas in
  (* Players with a single possible move play it outright (lines 1-3 of
     Algorithm 2); everyone else is scored against those crowds. *)
  let pending = ref 0 in
  for i = 0 to n - 1 do
    if Atlas.choice_count atlas i = 1 then join st i (Atlas.choice atlas i 0)
    else incr pending
  done;
  for i = 0 to n - 1 do
    if st.committed.(i) < 0 then rescore st i
  done;
  (* Main loop. A player commits as soon as one of their moves strictly
     dominates their alternatives under the current crowds ("wait until
     the payoff of best move dominates all other to play it"), the lowest
     index first. When nobody has a dominating move, the deadlock is
     broken as in lines 11-16: the player/move pair with the globally best
     payoff — ties resolved by the lexicographic order on moves, then on
     players — commits. *)
  let still_dominant i = st.committed.(i) < 0 && st.dominant.(i) = 1 in
  let es = st.entries in
  let current e =
    let i = es.players.a.(e) and m = es.moves.a.(e) in
    st.committed.(i) < 0
    && st.best.(i) = m
    && Float.equal (score st i m) es.scores.(e)
  in
  while !pending > 0 do
    let i = Heap.pop_valid st.dominants still_dominant in
    if i >= 0 then commit st i st.best.(i)
    else begin
      let e = Heap.pop_valid st.deadlock current in
      (* Every pending player has a current entry. *)
      assert (e >= 0);
      commit st es.players.a.(e) es.moves.a.(e)
    end;
    decr pending
  done;
  st.committed

let compute ?(payoff = Payoff.Blank) atlas =
  Pet_obs.Span.enter "algorithm2" @@ fun () ->
  Scratch.with_scratch (fun scratch ->
      Profile.make atlas (select scratch atlas payoff))
