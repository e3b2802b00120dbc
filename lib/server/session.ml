module Partial = Pet_valuation.Partial
module Universe = Pet_valuation.Universe

type state = Created | Reported | Chosen | Submitted

let state_name = function
  | Created -> "created"
  | Reported -> "reported"
  | Chosen -> "chosen"
  | Submitted -> "submitted"

(* One per rule set (digest and tenant) a store has sessions under,
   shared by all of them. *)
type rules = {
  digest : string;
  tenant : string option;
      (* the tenant the sessions were opened under, if any; the digest
         pins the tenant *version* they resolved, so a hot rule swap
         never changes their answers *)
  mutable universe : Universe.t option;
      (* the forms' universe, from the first choice: a chosen form is
         kept as its masks and read back under it *)
  lists : (string list, int) Hashtbl.t;
  mutable benefits : string list array;
      (* the distinct benefit lists chosen under these rules, by index *)
}

let no_rules =
  {
    digest = "";
    tenant = None;
    universe = None;
    lists = Hashtbl.create 1;
    benefits = [||];
  }

(* A session is its slot in the store's tables. *)
type t = int

type store = {
  ttl : float;
  owns : string -> bool;
      (* shard ownership predicate over session ids: {!create} only
         hands out ids this store owns, so stores partitioned by a hash
         of the id (the sharded TCP server) never collide *)
  slots : Slots.t;
  (* The tables, by slot. *)
  mutable last_active : Float.Array.t; (* the idle clock *)
  mutable words : int array;
      (* the state in bits 0-1; above them the chosen benefit list's
         index ([Chosen]) or the grant id ([Submitted]) *)
  mutable dom : int array; (* the chosen form's masks ([Chosen]) *)
  mutable bits : int array;
  mutable options : (Partial.t * string list) list array;
      (* the offered options ([Reported]), a report memo's list *)
  mutable rules : rules array;
  rule_sets : (string * string option, rules) Hashtbl.t;
  mutable next_id : int;
  mutable created : int;
  mutable expired : int;
  mutable cursor : int; (* the next slot the incremental sweep visits *)
  mutable on_expire : t -> unit;
      (* fires as a session is removed — the service releases the
         session's tenant quota slot here *)
}

type counters = { active : int; created : int; expired : int }

let create_store ?(ttl = 3600.) ?(owns = fun _ -> true) () =
  let slots = Slots.create () in
  let n = Slots.capacity slots in
  {
    ttl;
    owns;
    slots;
    last_active = Float.Array.make n 0.;
    words = Array.make n 0;
    dom = Array.make n 0;
    bits = Array.make n 0;
    options = Array.make n [];
    rules = Array.make n no_rules;
    rule_sets = Hashtbl.create 1;
    next_id = 0;
    created = 0;
    expired = 0;
    cursor = 0;
    on_expire = ignore;
  }

let set_on_expire store f = store.on_expire <- f

(* Grow every table to the index's capacity. *)
let fit store =
  let n = Slots.capacity store.slots in
  if Array.length store.words < n then begin
    let active = Float.Array.make n 0. in
    Float.Array.blit store.last_active 0 active 0
      (Float.Array.length store.last_active);
    store.last_active <- active;
    store.words <- Slots.grow n store.words 0;
    store.dom <- Slots.grow n store.dom 0;
    store.bits <- Slots.grow n store.bits 0;
    store.options <- Slots.grow n store.options [];
    store.rules <- Slots.grow n store.rules no_rules
  end

let rules_of store ~digest ~tenant =
  match Hashtbl.find_opt store.rule_sets (digest, tenant) with
  | Some rules -> rules
  | None ->
    let rules =
      {
        digest;
        tenant;
        universe = None;
        lists = Hashtbl.create 1;
        benefits = [||];
      }
    in
    Hashtbl.add store.rule_sets (digest, tenant) rules;
    rules

let state_of_word w =
  match w land 3 with
  | 0 -> Created
  | 1 -> Reported
  | 2 -> Chosen
  | _ -> Submitted

let set_state store s state payload =
  let tag =
    match state with Created -> 0 | Reported -> 1 | Chosen -> 2 | Submitted -> 3
  in
  store.words.(s) <- (payload lsl 2) lor tag

let touch store s ~now = Float.Array.set store.last_active s now

let fresh store ~id ~digest ?tenant ~now () =
  (* A replayed id that is already present starts over in its slot. *)
  let s =
    match Slots.find store.slots id with -1 -> Slots.add store.slots id | s -> s
  in
  fit store;
  set_state store s Created 0;
  store.options.(s) <- [];
  store.rules.(s) <- rules_of store ~digest ~tenant;
  touch store s ~now;
  store.created <- store.created + 1;
  s

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

let id store s = Slots.id store.slots s
let digest store s = store.rules.(s).digest
let tenant store s = store.rules.(s).tenant
let state store s = state_of_word store.words.(s)
let options store s = store.options.(s)

let chosen store s =
  let w = store.words.(s) in
  if state_of_word w <> Chosen then None
  else
    let rules = store.rules.(s) in
    Some
      ( Partial.of_masks (Option.get rules.universe) ~dom:store.dom.(s)
          ~bits:store.bits.(s),
        rules.benefits.(w asr 2) )

let grant_id store s =
  let w = store.words.(s) in
  if state_of_word w = Submitted then Some (w asr 2) else None

let report store s options ~now =
  store.options.(s) <- options;
  set_state store s Reported 0;
  touch store s ~now

(* The index of a benefit list among the rule set's distinct ones. *)
let intern rules benefits =
  match Hashtbl.find_opt rules.lists benefits with
  | Some i -> i
  | None ->
    let i = Hashtbl.length rules.lists in
    Hashtbl.add rules.lists benefits i;
    if i = Array.length rules.benefits then
      rules.benefits <- Slots.grow (max 4 (2 * i)) rules.benefits [];
    rules.benefits.(i) <- benefits;
    i

let choose store s form benefits ~now =
  let rules = store.rules.(s) in
  if rules.universe = None then rules.universe <- Some (Partial.universe form);
  store.options.(s) <- [];
  store.dom.(s) <- Partial.domain_mask form;
  store.bits.(s) <- Partial.bits form;
  set_state store s Chosen (intern rules benefits);
  touch store s ~now

let submit store s ~grant_id ~now =
  store.dom.(s) <- 0;
  store.bits.(s) <- 0;
  set_state store s Submitted grant_id;
  touch store s ~now

let is_expired store s ~now =
  store.ttl > 0. && now -. Float.Array.get store.last_active s > store.ttl

(* Fire the hook while the session can still be read, then free its
   slot (dropping its reference to any offered options). *)
let remove store s =
  store.on_expire s;
  store.options.(s) <- [];
  Slots.remove store.slots s

let expire store s =
  remove store s;
  store.expired <- store.expired + 1

(* Removal outside the TTL machinery (consent revocation): fires the
   same [on_expire] hook — the tenant quota slot must be released
   exactly once however the session leaves — but does not count as an
   expiry. *)
let purge store s = if Slots.held store.slots s then remove store s

let peek store id =
  let s = Slots.find store.slots id in
  if s < 0 then None else Some s

let to_list store =
  let rec go s acc =
    if s < 0 then acc
    else go (s - 1) (if Slots.held store.slots s then s :: acc else acc)
  in
  go (Slots.top store.slots - 1) []

let find store id ~now =
  let s = Slots.find store.slots id in
  if s < 0 then Error `Unknown
  else if is_expired store s ~now then begin
    expire store s;
    Error `Expired
  end
  else Ok s

let sweep store ~now =
  let swept = ref 0 in
  for s = 0 to Slots.top store.slots - 1 do
    if Slots.held store.slots s && is_expired store s ~now then begin
      expire store s;
      incr swept
    end
  done;
  !swept

(* Incremental expiry: visit at most [budget] sessions per call (and at
   most eight times as many slots, held or free), resuming at the slot
   where the last call stopped. A full pass over [n] live sessions
   completes every [n / budget] calls, so abandoned sessions — ones no
   [find] will ever touch again — are reclaimed in amortized O(budget)
   per request instead of O(n), and [counters.active] stays bounded
   under churn. *)
let sweep_step ?(budget = 32) store ~now =
  if store.ttl <= 0. then 0
  else begin
    let top = Slots.top store.slots in
    if store.cursor >= top then store.cursor <- 0;
    let last = min top (store.cursor + (8 * budget)) in
    let swept = ref 0 and seen = ref 0 in
    while !seen < budget && store.cursor < last do
      let s = store.cursor in
      store.cursor <- s + 1;
      if Slots.held store.slots s then begin
        incr seen;
        if is_expired store s ~now then begin
          expire store s;
          incr swept
        end
      end
    done;
    !swept
  end

let counters store =
  {
    active = Slots.length store.slots;
    created = store.created;
    expired = store.expired;
  }
