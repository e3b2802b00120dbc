(* Consent-lifecycle state: a grant link per submitted session and a
   lifecycle record per session that a revocation or an expiry horizon
   reached. Both hold identifiers only (session id, ledger key, grant
   id), never a form, so keeping them for the lifetime of the archive
   costs nothing privacy-wise and lets a respondent revoke long after
   the session itself was swept.

   Like the grant ledgers, one store is shared across every shard of a
   sharded deployment (a revocation must reach the grant wherever it
   was recorded); the mutex guards the tables and the sweep cursor. The
   per-record mutable fields are only written by the session's owning
   shard (requests route by session id) and by the sweep, whose ledger
   tombstoning is idempotent — a benign race. *)

type lifecycle = {
  session : string;
  mutable revoked_at : float option;
  mutable horizon : (float * float) option; (* (expires_at, set_at) *)
  mutable expired : bool; (* the horizon was applied: grant tombstoned *)
}

type counters = { revoked : int; expired : int; pending : int }

(* A link packs the grant id above the ledger's index among [keys]. *)
let index_bits = 30
let index_mask = (1 lsl index_bits) - 1

type t = {
  m : Mutex.t;
  linked : Slots.t; (* the sessions with a grant link *)
  mutable links : int array; (* by slot *)
  ledgers : (string, int) Hashtbl.t;
  mutable keys : string array; (* the ledger keys, by index *)
  unpacked : (string, string * int) Hashtbl.t;
      (* the links that do not pack: a grant id beyond 32 bits *)
  records : (string, lifecycle) Hashtbl.t;
  mutable cursor : string list;
      (* session ids still to visit in the current incremental
         horizon-sweep round; refilled from the armed records when
         exhausted — the consent twin of [Session.sweep_step] *)
  mutable revoked : int;
  mutable expired : int;
  mutable pending : int; (* the armed records *)
}

let create () =
  let linked = Slots.create () in
  {
    m = Mutex.create ();
    linked;
    links = Array.make (Slots.capacity linked) 0;
    ledgers = Hashtbl.create 16;
    keys = [||];
    unpacked = Hashtbl.create 1;
    records = Hashtbl.create 16;
    cursor = [];
    revoked = 0;
    expired = 0;
    pending = 0;
  }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let link_unlocked t session =
  let s = Slots.find t.linked session in
  if s >= 0 then
    let w = t.links.(s) in
    Some (t.keys.(w land index_mask), w asr index_bits)
  else if Hashtbl.length t.unpacked = 0 then None
  else Hashtbl.find_opt t.unpacked session

let link t session = locked t (fun () -> link_unlocked t session)

let ledger_index t key =
  match Hashtbl.find_opt t.ledgers key with
  | Some i -> i
  | None ->
    let i = Hashtbl.length t.ledgers in
    Hashtbl.add t.ledgers key i;
    if i = Array.length t.keys then
      t.keys <- Slots.grow (max 8 (2 * i)) t.keys "";
    t.keys.(i) <- key;
    i

let note_granted t ~session ~key grant_id =
  locked t @@ fun () ->
  let i = ledger_index t key in
  Hashtbl.remove t.unpacked session;
  let s = Slots.find t.linked session in
  let packs =
    i <= index_mask && grant_id >= -(1 lsl 32) && grant_id < 1 lsl 32
  in
  if packs then begin
    let s = if s >= 0 then s else Slots.add t.linked session in
    t.links <- Slots.grow (Slots.capacity t.linked) t.links 0;
    t.links.(s) <- (grant_id lsl index_bits) lor i
  end
  else begin
    if s >= 0 then Slots.remove t.linked s;
    Hashtbl.replace t.unpacked session (key, grant_id)
  end

let lifecycle t session =
  locked t (fun () -> Hashtbl.find_opt t.records session)

let tracked t session =
  locked t @@ fun () ->
  Hashtbl.mem t.records session || link_unlocked t session <> None

let register t ~session =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.records session with
  | Some record -> record
  | None ->
    let record =
      { session; revoked_at = None; horizon = None; expired = false }
    in
    Hashtbl.add t.records session record;
    record

let armed (r : lifecycle) =
  (not r.expired) && r.revoked_at = None && r.horizon <> None

(* [f ()] changes [r]; [pending] follows whether it is armed. *)
let rearm t r f =
  let before = armed r in
  f ();
  t.pending <- t.pending + Bool.to_int (armed r) - Bool.to_int before

let revoke t (r : lifecycle) ~at =
  locked t @@ fun () ->
  if r.revoked_at = None then begin
    rearm t r (fun () -> r.revoked_at <- Some at);
    t.revoked <- t.revoked + 1
  end

let set_horizon t (r : lifecycle) ~horizon ~at =
  locked t @@ fun () ->
  rearm t r (fun () ->
      r.horizon <- Some (horizon, at);
      r.expired <- false);
  (* Front of the cursor: a freshly armed horizon is seen within one
     sweep call even mid-round. *)
  t.cursor <- r.session :: t.cursor

let note_expired t (r : lifecycle) =
  locked t @@ fun () ->
  if not r.expired then begin
    rearm t r (fun () -> r.expired <- true);
    t.expired <- t.expired + 1
  end

(* Records whose horizon has passed, visiting at most [budget] armed
   records and resuming where the previous call stopped. The caller
   tombstones each returned record's grant and then [note_expired]s it
   — kept outside this call so the ledger lock is never taken under the
   consent lock. *)
let due ?(budget = 32) t ~now =
  locked t @@ fun () ->
  if t.cursor = [] then
    t.cursor <-
      Hashtbl.fold
        (fun id r acc -> if armed r then id :: acc else acc)
        t.records [];
  let hits = ref [] in
  let rec go remaining =
    if remaining > 0 then
      match t.cursor with
      | [] -> ()
      | id :: rest ->
        t.cursor <- rest;
        (match Hashtbl.find_opt t.records id with
        | Some r when armed r -> (
          match r.horizon with
          | Some (h, _) when h <= now -> hits := r :: !hits
          | _ -> ())
        | _ -> ());
        go (remaining - 1)
  in
  go budget;
  List.rev !hits

(* Every armed record past [now], regardless of budget — the
   post-recovery pass that applies whatever horizons the crash
   interrupted. *)
let all_due t ~now =
  locked t @@ fun () ->
  Hashtbl.fold
    (fun _ r acc ->
      if armed r then
        match r.horizon with Some (h, _) when h <= now -> r :: acc | _ -> acc
      else acc)
    t.records []

type entry = {
  session : string;
  key : string;
  grant_id : int option;
  revoked_at : float option;
  horizon : (float * float) option;
  expired : bool;
}

let entries t =
  locked t @@ fun () ->
  let entry session =
    let key, grant_id =
      match link_unlocked t session with
      | Some (key, id) -> (key, Some id)
      | None -> ("", None)
    in
    match Hashtbl.find_opt t.records session with
    | Some r ->
      {
        session;
        key;
        grant_id;
        revoked_at = r.revoked_at;
        horizon = r.horizon;
        expired = r.expired;
      }
    | None ->
      {
        session;
        key;
        grant_id;
        revoked_at = None;
        horizon = None;
        expired = false;
      }
  in
  let linked =
    List.init (Slots.top t.linked) Fun.id
    |> List.filter (Slots.held t.linked)
    |> List.map (Slots.id t.linked)
  in
  let unlinked =
    Hashtbl.fold
      (fun session _ acc ->
        if link_unlocked t session = None then session :: acc else acc)
      t.records []
  in
  let unpacked = List.of_seq (Hashtbl.to_seq_keys t.unpacked) in
  List.map entry (linked @ unpacked @ unlinked)

let counters t =
  locked t @@ fun () ->
  { revoked = t.revoked; expired = t.expired; pending = t.pending }
