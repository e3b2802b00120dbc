(* Consent-lifecycle state: one entry per session that has (or had)
   something at stake — an archived grant, a revocation, an expiry
   horizon. Entries hold identifiers only (session id, ledger key,
   grant id), never a form, so keeping them for the lifetime of the
   archive costs nothing privacy-wise and lets a respondent revoke long
   after the session itself was swept.

   Like the grant ledgers, one store is shared across every shard of a
   sharded deployment (a revocation must reach the grant wherever it
   was recorded); the mutex guards the table and the sweep cursor. The
   per-entry mutable fields are only written by the session's owning
   shard (requests route by session id) and by the sweep, whose ledger
   tombstoning is idempotent — a benign race. *)

type entry = {
  session : string;
  mutable key : string;  (* the ledger the grant lives in; "" until known *)
  mutable grant_id : int option;
  mutable revoked_at : float option;
  mutable horizon : (float * float) option;  (* (expires_at, set_at) *)
  mutable expired : bool;  (* the horizon was applied: grant tombstoned *)
}

type counters = { tracked : int; revoked : int; expired : int; pending : int }

type t = {
  m : Mutex.t;
  entries : (string, entry) Hashtbl.t;
  mutable cursor : string list;
      (* session ids still to visit in the current incremental
         horizon-sweep round; refilled from the armed entries when
         exhausted — the consent twin of [Session.sweep_step] *)
  mutable revoked : int;
  mutable expired : int;
  mutable pending : int; (* the armed entries *)
}

let create () =
  {
    m = Mutex.create ();
    entries = Hashtbl.create 16;
    cursor = [];
    revoked = 0;
    expired = 0;
    pending = 0;
  }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let find t session = locked t (fun () -> Hashtbl.find_opt t.entries session)

let entries t =
  locked t (fun () -> Hashtbl.fold (fun _ e acc -> e :: acc) t.entries [])

let register t ~session =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.entries session with
  | Some entry -> entry
  | None ->
    let entry =
      {
        session;
        key = "";
        grant_id = None;
        revoked_at = None;
        horizon = None;
        expired = false;
      }
    in
    Hashtbl.add t.entries session entry;
    entry

let note_granted (entry : entry) ~key grant_id =
  entry.key <- key;
  entry.grant_id <- Some grant_id

let armed (entry : entry) =
  (not entry.expired) && entry.revoked_at = None && entry.horizon <> None

(* [f ()] changes [entry]; [pending] follows whether it is armed. *)
let rearm t entry f =
  let before = armed entry in
  f ();
  t.pending <- t.pending + Bool.to_int (armed entry) - Bool.to_int before

let revoke t (entry : entry) ~at =
  locked t @@ fun () ->
  if entry.revoked_at = None then begin
    rearm t entry (fun () -> entry.revoked_at <- Some at);
    t.revoked <- t.revoked + 1
  end

let set_horizon t (entry : entry) ~horizon ~at =
  locked t @@ fun () ->
  rearm t entry (fun () ->
      entry.horizon <- Some (horizon, at);
      entry.expired <- false);
  (* Front of the cursor: a freshly armed horizon is seen within one
     sweep call even mid-round. *)
  t.cursor <- entry.session :: t.cursor

let note_expired t (entry : entry) =
  locked t @@ fun () ->
  if not entry.expired then begin
    rearm t entry (fun () -> entry.expired <- true);
    t.expired <- t.expired + 1
  end

(* Entries whose horizon has passed, visiting at most [budget] armed
   entries and resuming where the previous call stopped. The caller
   tombstones each returned entry's grant and then [note_expired]s it —
   kept outside this call so the ledger lock is never taken under the
   consent lock. *)
let due ?(budget = 32) t ~now =
  locked t @@ fun () ->
  if t.cursor = [] then
    t.cursor <-
      Hashtbl.fold
        (fun id entry acc -> if armed entry then id :: acc else acc)
        t.entries [];
  let hits = ref [] in
  let rec go remaining =
    if remaining > 0 then
      match t.cursor with
      | [] -> ()
      | id :: rest ->
        t.cursor <- rest;
        (match Hashtbl.find_opt t.entries id with
        | Some entry when armed entry -> (
          match entry.horizon with
          | Some (h, _) when h <= now -> hits := entry :: !hits
          | _ -> ())
        | _ -> ());
        go (remaining - 1)
  in
  go budget;
  List.rev !hits

(* Every armed entry past [now], regardless of budget — the
   post-recovery pass that applies whatever horizons the crash
   interrupted. *)
let all_due t ~now =
  locked t @@ fun () ->
  Hashtbl.fold
    (fun _ entry acc ->
      if armed entry then
        match entry.horizon with
        | Some (h, _) when h <= now -> entry :: acc
        | _ -> acc
      else acc)
    t.entries []

let counters t =
  locked t @@ fun () ->
  {
    tracked = Hashtbl.length t.entries;
    revoked = t.revoked;
    expired = t.expired;
    pending = t.pending;
  }
