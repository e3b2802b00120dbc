(* Keys: an id "s<n>" is keyed by n >= 0; any other id is interned to a
   negative key. [vacant] marks a free slot. *)
let vacant = min_int

type t = {
  mutable keys : int array; (* by slot: its key, or [vacant] *)
  mutable index : int array;
      (* open addressing with linear probing, a power of two long and
         at most half full: slot + 1, or 0 for an empty bucket *)
  mutable count : int;
  mutable top : int; (* slots ever handed out *)
  mutable free : int array; (* freed slots, a stack of [nfree] *)
  mutable nfree : int;
  foreign : (string, int) Hashtbl.t; (* interned non-"s<n>" ids *)
  names : (int, string) Hashtbl.t; (* and back *)
}

let create () =
  {
    keys = Array.make 8 vacant;
    index = Array.make 16 0;
    count = 0;
    top = 0;
    free = [||];
    nfree = 0;
    foreign = Hashtbl.create 1;
    names = Hashtbl.create 1;
  }

(* [n] when [id] is exactly [Printf.sprintf "s%d" n] with at most 18
   digits, else -1. *)
let number id =
  let len = String.length id in
  if len < 2 || len > 19 || id.[0] <> 's' || (id.[1] = '0' && len > 2) then -1
  else
    let rec go i n =
      if i = len then n
      else
        match id.[i] with
        | '0' .. '9' as c -> go (i + 1) ((n * 10) + Char.code c - 48)
        | _ -> -1
    in
    go 1 0

let key_of t id =
  let n = number id in
  if n >= 0 then n
  else match Hashtbl.find_opt t.foreign id with Some k -> k | None -> vacant

let id t slot =
  let k = t.keys.(slot) in
  if k >= 0 then "s" ^ string_of_int k else Hashtbl.find t.names k

let bucket key mask =
  let h = key * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 32)) land mask

let place t slot =
  let mask = Array.length t.index - 1 in
  let rec go i =
    if t.index.(i) = 0 then t.index.(i) <- slot + 1 else go ((i + 1) land mask)
  in
  go (bucket t.keys.(slot) mask)

let find t id =
  let key = key_of t id in
  if key = vacant then -1
  else
    let mask = Array.length t.index - 1 in
    let rec go i =
      let s = t.index.(i) - 1 in
      if s < 0 then -1
      else if t.keys.(s) = key then s
      else go ((i + 1) land mask)
    in
    go (bucket key mask)

let grow n a fill =
  let len = Array.length a in
  if len >= n then a
  else begin
    let b = Array.make n fill in
    Array.blit a 0 b 0 len;
    b
  end

let add t id =
  let key =
    let n = number id in
    if n >= 0 then n
    else
      match Hashtbl.find_opt t.foreign id with
      | Some k -> k
      | None ->
        let k = -1 - Hashtbl.length t.foreign in
        Hashtbl.replace t.foreign id k;
        Hashtbl.replace t.names k id;
        k
  in
  let slot =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      t.free.(t.nfree)
    end
    else begin
      if t.top = Array.length t.keys then
        t.keys <- grow (2 * t.top) t.keys vacant;
      t.top <- t.top + 1;
      t.top - 1
    end
  in
  t.keys.(slot) <- key;
  t.count <- t.count + 1;
  if 2 * t.count > Array.length t.index then begin
    t.index <- Array.make (2 * Array.length t.index) 0;
    for s = 0 to t.top - 1 do
      if t.keys.(s) <> vacant then place t s
    done
  end
  else place t slot;
  slot

(* Backward-shift deletion: the buckets after the hole that probed past
   it move back, so lookups never need tombstones. *)
let remove t slot =
  let mask = Array.length t.index - 1 in
  let rec at i = if t.index.(i) = slot + 1 then i else at ((i + 1) land mask) in
  let rec fill hole j =
    let j = (j + 1) land mask in
    let e = t.index.(j) in
    if e = 0 then t.index.(hole) <- 0
    else
      let home = bucket t.keys.(e - 1) mask in
      (* [e] may move into the hole unless its home lies cyclically in
         (hole, j]. *)
      let stays =
        if hole <= j then home > hole && home <= j
        else home > hole || home <= j
      in
      if stays then fill hole j
      else begin
        t.index.(hole) <- e;
        fill j j
      end
  in
  let i = at (bucket t.keys.(slot) mask) in
  fill i i;
  t.keys.(slot) <- vacant;
  t.count <- t.count - 1;
  if t.nfree = Array.length t.free then
    t.free <- grow (max 8 (2 * t.nfree)) t.free 0;
  t.free.(t.nfree) <- slot;
  t.nfree <- t.nfree + 1

let held t slot = t.keys.(slot) <> vacant
let top t = t.top
let capacity t = Array.length t.keys
let length t = t.count
