module Total = Pet_valuation.Total
module Partial = Pet_valuation.Partial

type state = Created | Reported | Chosen | Submitted

let state_name = function
  | Created -> "created"
  | Reported -> "reported"
  | Chosen -> "chosen"
  | Submitted -> "submitted"

type t = {
  id : string;
  digest : string;
  tenant : string option;
      (* the tenant this session was opened under, if any; the digest
         pins the tenant *version* it resolved, so a hot rule swap
         never changes this session's answers *)
  created_at : float;
  mutable last_active : float;
  mutable state : state;
  mutable options : (Partial.t * string list) list;
  mutable chosen : (Partial.t * string list) option;
  mutable grant_id : int option;
}

type store = {
  ttl : float;
  owns : string -> bool;
      (* shard ownership predicate over session ids: {!create} only
         hands out ids this store owns, so stores partitioned by a hash
         of the id (the sharded TCP server) never collide *)
  sessions : (string, t) Hashtbl.t;
  mutable next_id : int;
  mutable created : int;
  mutable expired : int;
  mutable cursor : string list;
      (* ids still to visit in the current incremental sweep round;
         refilled from the live table when exhausted *)
  mutable on_expire : t -> unit;
      (* fires as a session is removed by expiry — the service releases
         the session's tenant quota slot here *)
}

type counters = { active : int; created : int; expired : int }

let create_store ?(ttl = 3600.) ?(owns = fun _ -> true) () =
  {
    ttl;
    owns;
    sessions = Hashtbl.create 64;
    next_id = 0;
    created = 0;
    expired = 0;
    cursor = [];
    on_expire = ignore;
  }

let set_on_expire store f = store.on_expire <- f

let fresh store ~id ~digest ?tenant ~now () =
  let session =
    {
      id;
      digest;
      tenant;
      created_at = now;
      last_active = now;
      state = Created;
      options = [];
      chosen = None;
      grant_id = None;
    }
  in
  Hashtbl.replace store.sessions id session;
  store.created <- store.created + 1;
  session

let rec reserve store =
  (* Walk the shared "s<n>" sequence, skipping ids another shard owns.
     With the default predicate the first candidate always wins. *)
  let id = Printf.sprintf "s%d" store.next_id in
  store.next_id <- store.next_id + 1;
  if store.owns id then id else reserve store

let restore store ~id ~digest ?tenant ~now () =
  (* Recovered ids keep their original names; the sequence continues
     past the highest numeric id seen so far, so post-restart sessions
     never collide with replayed ones. *)
  (match
     if String.length id > 1 && id.[0] = 's' then
       int_of_string_opt (String.sub id 1 (String.length id - 1))
     else None
   with
  | Some n when n >= store.next_id -> store.next_id <- n + 1
  | _ -> ());
  fresh store ~id ~digest ?tenant ~now ()

let create store ~digest ?tenant ~now () =
  restore store ~id:(reserve store) ~digest ?tenant ~now ()

let is_expired store session ~now =
  store.ttl > 0. && now -. session.last_active > store.ttl

let expire store session =
  Hashtbl.remove store.sessions session.id;
  store.expired <- store.expired + 1;
  store.on_expire session

(* Removal outside the TTL machinery (consent revocation): fires the
   same [on_expire] hook — the tenant quota slot must be released
   exactly once however the session leaves — but does not count as an
   expiry. A later sweep finds the table slot empty and cannot fire the
   hook a second time. *)
let purge store session =
  if Hashtbl.mem store.sessions session.id then begin
    Hashtbl.remove store.sessions session.id;
    store.on_expire session
  end

let peek store id = Hashtbl.find_opt store.sessions id
let to_list store = Hashtbl.fold (fun _ s acc -> s :: acc) store.sessions []

let find store id ~now =
  match Hashtbl.find_opt store.sessions id with
  | None -> Error `Unknown
  | Some session ->
    if is_expired store session ~now then begin
      expire store session;
      Error `Expired
    end
    else Ok session

let touch session ~now = session.last_active <- now

let sweep store ~now =
  let stale =
    Hashtbl.fold
      (fun _ session acc ->
        if is_expired store session ~now then session :: acc else acc)
      store.sessions []
  in
  List.iter (expire store) stale;
  List.length stale

(* Incremental expiry: visit at most [budget] sessions per call, resuming
   where the last call stopped. A full pass over [n] live sessions
   completes every [n / budget] calls, so abandoned sessions — ones no
   [find] will ever touch again — are reclaimed in amortized O(budget)
   per request instead of O(n), and [counters.active] stays bounded
   under churn. *)
let sweep_step ?(budget = 32) store ~now =
  if store.ttl <= 0. then 0
  else begin
    if store.cursor = [] then
      store.cursor <-
        Hashtbl.fold (fun id _ acc -> id :: acc) store.sessions [];
    let swept = ref 0 in
    let rec go remaining =
      if remaining > 0 then
        match store.cursor with
        | [] -> ()
        | id :: rest ->
          store.cursor <- rest;
          (match Hashtbl.find_opt store.sessions id with
          | Some session when is_expired store session ~now ->
            expire store session;
            incr swept
          | _ -> ());
          go (remaining - 1)
    in
    go budget;
    !swept
  end

let counters store =
  {
    active = Hashtbl.length store.sessions;
    created = store.created;
    expired = store.expired;
  }
