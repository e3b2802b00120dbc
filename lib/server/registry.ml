type 'a slot = { value : 'a; mutable last_use : int }

type 'a t = {
  capacity : int;
  table : (string, 'a slot) Hashtbl.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = {
  size : int;
  capacity : int;
  hits : int;
  misses : int;
  evictions : int;
}

let digest text = Digest.to_hex (Digest.string text)

let create ?(capacity = 16) () =
  if capacity < 1 then invalid_arg "Registry.create: capacity must be >= 1";
  {
    capacity;
    table = Hashtbl.create 16;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let touch t slot =
  t.tick <- t.tick + 1;
  slot.last_use <- t.tick

(* O(size) eviction scan; the cache holds at most [capacity] compiled
   engines, each worth seconds of atlas construction, so the scan is
   noise. *)
let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key slot acc ->
        match acc with
        | Some (_, best) when best <= slot.last_use -> acc
        | _ -> Some (key, slot.last_use))
      t.table None
  in
  match victim with
  | Some (key, _) ->
    Hashtbl.remove t.table key;
    t.evictions <- t.evictions + 1
  | None -> ()

let peek t key =
  match Hashtbl.find_opt t.table key with
  | Some slot ->
    touch t slot;
    Some slot.value
  | None -> None

let find t key =
  match peek t key with
  | Some v ->
    t.hits <- t.hits + 1;
    Some v
  | None ->
    t.misses <- t.misses + 1;
    None

let add t key value =
  (match Hashtbl.find_opt t.table key with
  | Some _ -> Hashtbl.remove t.table key
  | None -> if Hashtbl.length t.table >= t.capacity then evict_lru t);
  let slot = { value; last_use = 0 } in
  touch t slot;
  Hashtbl.add t.table key slot

let find_or_add ?(count = true) t key build =
  match (if count then find else peek) t key with
  | Some v -> (v, true)
  | None ->
    let v = build () in
    add t key v;
    (v, false)

let stats t =
  {
    size = Hashtbl.length t.table;
    capacity = t.capacity;
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
  }
