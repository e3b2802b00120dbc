type node = int

let zero = 0
let one = 1

(* The terminals sit at indices 0 and 1 with a pseudo-variable larger than
   any real variable so that ordering logic treats them as deepest. *)
let terminal_var = max_int

(* Node triples and [ite] arguments, hashed and compared as ints rather
   than through the polymorphic [Hashtbl.hash] and [compare]. *)
module Triple = Hashtbl.Make (struct
  type t = int * int * int

  let equal (a, b, c) (a', b', c') = a = a' && b = b' && c = c'
  let hash (a, b, c) = ((((a * 65599) + b) * 65599) + c) land max_int
end)

type man = {
  mutable vars : int array; (* variable of each node *)
  mutable lows : int array;
  mutable highs : int array;
  mutable next : int; (* next free node index *)
  unique : int Triple.t;
  ite_cache : int Triple.t;
  mutable n_ite : int; (* memoized [ite] entries (cheap cases excluded) *)
  mutable n_ite_hits : int; (* of which answered from [ite_cache] *)
  (* Per-node scratch of the memoized traversals ([restrict], [walk]),
     sized to the arena when a traversal starts (a traversal memoizes
     only nodes that existed then): node [n]'s entries belong to the
     current traversal iff [stamp.(n) = epoch]. [restrict] keeps its
     result in [memo]; [walk] keeps a node's four window masks in
     [memo], [memo_f], [memo_ut] and [memo_uf]. Index 1 (the terminal
     [one]) holds -1 in each, the masks of the one path that tests
     nothing. *)
  mutable epoch : int;
  mutable stamp : int array;
  mutable memo : int array;
  mutable memo_f : int array;
  mutable memo_ut : int array;
  mutable memo_uf : int array;
  w : walk;
}

and walk = {
  mutable sat : bool;
  mutable lower_true : int;
  mutable lower_false : int;
  mutable upper_true : int;
  mutable upper_false : int;
}

let man () =
  let cap = 256 in
  let m =
    {
      vars = Array.make cap terminal_var;
      lows = Array.make cap (-1);
      highs = Array.make cap (-1);
      next = 2;
      unique = Triple.create 256;
      ite_cache = Triple.create 256;
      n_ite = 0;
      n_ite_hits = 0;
      epoch = 0;
      stamp = [||];
      memo = [||];
      memo_f = [||];
      memo_ut = [||];
      memo_uf = [||];
      w =
        {
          sat = false;
          lower_true = 0;
          lower_false = 0;
          upper_true = 0;
          upper_false = 0;
        };
    }
  in
  m.vars.(0) <- terminal_var;
  m.vars.(1) <- terminal_var;
  m

let var_of m n = m.vars.(n)
let low_of m n = m.lows.(n)
let high_of m n = m.highs.(n)

let grow m =
  let cap = Array.length m.vars in
  let cap' = 2 * cap in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  m.vars <- extend m.vars terminal_var;
  m.lows <- extend m.lows (-1);
  m.highs <- extend m.highs (-1)

(* Hash-consing constructor; maintains reduction (no redundant node) and
   uniqueness invariants. *)
let mk m v low high =
  if low = high then low
  else
    let key = (v, low, high) in
    match Triple.find_opt m.unique key with
    | Some n -> n
    | None ->
      if m.next >= Array.length m.vars then grow m;
      let n = m.next in
      m.next <- n + 1;
      m.vars.(n) <- v;
      m.lows.(n) <- low;
      m.highs.(n) <- high;
      Triple.add m.unique key n;
      n

let var m i =
  if i < 0 then invalid_arg "Bdd.var: negative variable";
  mk m i zero one

let nvar m i =
  if i < 0 then invalid_arg "Bdd.nvar: negative variable";
  mk m i one zero

let cofactors m n v =
  if var_of m n = v then (low_of m n, high_of m n) else (n, n)

let rec ite m f g h =
  if f = one then g
  else if f = zero then h
  else if g = h then g
  else if g = one && h = zero then f
  else begin
    m.n_ite <- m.n_ite + 1;
    let key = (f, g, h) in
    match Triple.find_opt m.ite_cache key with
    | Some r ->
      m.n_ite_hits <- m.n_ite_hits + 1;
      r
    | None ->
      let v = min (var_of m f) (min (var_of m g) (var_of m h)) in
      let f0, f1 = cofactors m f v in
      let g0, g1 = cofactors m g v in
      let h0, h1 = cofactors m h v in
      let r0 = ite m f0 g0 h0 in
      let r1 = ite m f1 g1 h1 in
      let r = mk m v r0 r1 in
      Triple.add m.ite_cache key r;
      r
  end

let neg m f = ite m f zero one
let conj m a b = ite m a b zero
let disj m a b = ite m a one b
let xor m a b = ite m a (neg m b) b
let imp m a b = ite m a b one
let iff m a b = ite m a b (neg m b)

let conj_list m = List.fold_left (conj m) one
let disj_list m = List.fold_left (disj m) zero

(* Start a traversal: cover the arena with scratch, doubling, and
   return the traversal's stamp. Fresh stamps are 0, older than every
   epoch. *)
let next_epoch m =
  if Array.length m.stamp < m.next then begin
    let size = max m.next (2 * Array.length m.stamp) in
    let fresh () =
      let a = Array.make size 0 in
      a.(one) <- -1;
      a
    in
    m.stamp <- Array.make size 0;
    m.memo <- fresh ();
    m.memo_f <- fresh ();
    m.memo_ut <- fresh ();
    m.memo_uf <- fresh ()
  end;
  m.epoch <- m.epoch + 1;
  m.epoch

(* Memoized per call, so each node is rebuilt once: linear in the BDD
   rather than in its paths. Only nodes that existed when the call
   started are memoized, so the nodes [mk] adds need no scratch. *)
let restrict m n v value =
  let epoch = next_epoch m in
  let rec go n =
    if n < 2 then n
    else
      let nv = var_of m n in
      if nv > v then n
      else if nv = v then if value then high_of m n else low_of m n
      else if m.stamp.(n) = epoch then m.memo.(n)
      else begin
        let low = go (low_of m n) in
        let r = mk m nv low (go (high_of m n)) in
        m.stamp.(n) <- epoch;
        m.memo.(n) <- r;
        r
      end
  in
  go n

let exists m vs f =
  let exists_one f v =
    disj m (restrict m f v false) (restrict m f v true)
  in
  List.fold_left exists_one f vs

(* Per node [n], over the satisfying paths from [n] that agree with the
   cube: [memo.(n)] is the set of lower-window variables that some such
   path tests high or does not test, [memo_f.(n)] those it tests low or
   does not test, and [memo_ut]/[memo_uf] the same for the upper window.
   A variable a path does not test is free, so either value extends the
   path to a model. Every variable of a window is in one of the two sets
   of any path, so a node with a satisfying path has [memo lor memo_f =
   -1], and a node without one keeps both at 0. The cube's own variables
   a path skips are masked at the root. *)
let window_bit k = if k >= 0 && k < Sys.int_size then 1 lsl k else 0

(* Top-level, so a walk allocates no closure. *)
let rec visit m epoch ~dom ~bits ~upper n =
  if n < 2 then n = one
  else if m.stamp.(n) = epoch then m.memo.(n) lor m.memo_f.(n) <> 0
  else begin
    let v = var_of m n in
    let lb = window_bit v and ub = window_bit (v - upper) in
    let low = low_of m n and high = high_of m n in
    let via_low =
      (dom land lb = 0 || bits land lb = 0)
      && visit m epoch ~dom ~bits ~upper low
    in
    let via_high =
      (dom land lb = 0 || bits land lb <> 0)
      && visit m epoch ~dom ~bits ~upper high
    in
    let lt =
      (if via_low then m.memo.(low) land lnot lb else 0)
      lor if via_high then m.memo.(high) else 0
    and lf =
      (if via_low then m.memo_f.(low) else 0)
      lor if via_high then m.memo_f.(high) land lnot lb else 0
    and ut =
      (if via_low then m.memo_ut.(low) land lnot ub else 0)
      lor if via_high then m.memo_ut.(high) else 0
    and uf =
      (if via_low then m.memo_uf.(low) else 0)
      lor if via_high then m.memo_uf.(high) land lnot ub else 0
    in
    m.stamp.(n) <- epoch;
    m.memo.(n) <- lt;
    m.memo_f.(n) <- lf;
    m.memo_ut.(n) <- ut;
    m.memo_uf.(n) <- uf;
    via_low || via_high
  end

let walk m f ~dom ~bits ~upper =
  let w = m.w in
  w.sat <- visit m (next_epoch m) ~dom ~bits ~upper f;
  let udom = if upper < Sys.int_size then dom lsr upper else 0
  and ubits = if upper < Sys.int_size then bits lsr upper else 0 in
  if w.sat then begin
    w.lower_true <- m.memo.(f) land lnot (dom land lnot bits);
    w.lower_false <- m.memo_f.(f) land lnot (dom land bits);
    w.upper_true <- m.memo_ut.(f) land lnot (udom land lnot ubits);
    w.upper_false <- m.memo_uf.(f) land lnot (udom land ubits)
  end
  else begin
    w.lower_true <- 0;
    w.lower_false <- 0;
    w.upper_true <- 0;
    w.upper_false <- 0
  end;
  w

let support m n =
  let seen = Hashtbl.create 16 in
  let vars = Hashtbl.create 16 in
  let rec go n =
    if n >= 2 && not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      Hashtbl.replace vars (var_of m n) ();
      go (low_of m n);
      go (high_of m n)
    end
  in
  go n;
  List.sort Stdlib.compare (Hashtbl.fold (fun v () acc -> v :: acc) vars [])

let rec eval m n rho =
  if n = zero then false
  else if n = one then true
  else if rho (var_of m n) then eval m (high_of m n) rho
  else eval m (low_of m n) rho

let is_tautology n = n = one
let is_unsat n = n = zero

let pow2 k =
  if k >= Sys.int_size - 1 then invalid_arg "Bdd.count_models: overflow";
  1 lsl k

let count_models m ~nvars n =
  List.iter
    (fun v ->
      if v >= nvars then
        invalid_arg "Bdd.count_models: support exceeds nvars")
    (support m n);
  let memo = Hashtbl.create 64 in
  (* [weight n] counts models over the variables strictly below the
     terminals, scaled for the gap between a node and its children. *)
  let level n = if n < 2 then nvars else var_of m n in
  let rec weight n =
    if n = zero then 0
    else if n = one then 1
    else
      match Hashtbl.find_opt memo n with
      | Some w -> w
      | None ->
        let v = var_of m n in
        let l = low_of m n and h = high_of m n in
        let wl = weight l * pow2 (level l - v - 1) in
        let wh = weight h * pow2 (level h - v - 1) in
        let w = wl + wh in
        Hashtbl.add memo n w;
        w
  in
  weight n * pow2 (level n)

let iter_models m ~nvars n f =
  List.iter
    (fun v ->
      if v >= nvars then invalid_arg "Bdd.iter_models: support exceeds nvars")
    (support m n);
  let a = Array.make nvars false in
  (* Expand every variable, including those absent from the BDD path. *)
  let rec go v n =
    if v = nvars then begin
      if n = one then f a else assert (n = one)
    end
    else if n < 2 then begin
      if n = one then begin
        a.(v) <- false;
        go (v + 1) n;
        a.(v) <- true;
        go (v + 1) n
      end
    end
    else if var_of m n > v then begin
      a.(v) <- false;
      go (v + 1) n;
      a.(v) <- true;
      go (v + 1) n
    end
    else begin
      a.(v) <- false;
      if low_of m n <> zero then go (v + 1) (low_of m n);
      a.(v) <- true;
      if high_of m n <> zero then go (v + 1) (high_of m n)
    end
  in
  if n <> zero then go 0 n

let any_model m ~nvars n =
  let result = ref None in
  (try
     iter_models m ~nvars n (fun a ->
         result := Some (Array.copy a);
         raise Exit)
   with Exit -> ());
  !result

let size m n =
  let seen = Hashtbl.create 16 in
  let rec go n =
    if n >= 2 && not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      go (low_of m n);
      go (high_of m n)
    end
  in
  go n;
  Hashtbl.length seen

let node_count m = m.next

type stats = {
  nodes : int;
  ite_calls : int;
  ite_cache_hits : int;
}

let stats m =
  { nodes = m.next; ite_calls = m.n_ite; ite_cache_hits = m.n_ite_hits }
