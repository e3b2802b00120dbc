module Partial = Pet_valuation.Partial
module Universe = Pet_valuation.Universe

type entry = { id : int; grant : Workflow.grant option }

(* The [tags] of an id: its benefit list's index among [lists] (a live
   record), or one of these. *)
let absent = -1 (* reserved, or never reached: no record *)
let tombstone = -2
let aside = -3 (* the record is in [aside] *)

(* Ids this far past the table's end are kept aside rather than
   stretching the table to reach them. *)
let reach = 1 lsl 16

type t = {
  mutable dom : int array; (* by id: the form's masks *)
  mutable bits : int array;
  mutable tags : int array;
  mutable universe : Universe.t option; (* the forms', from the first record *)
  lists : (string list, int) Hashtbl.t;
  mutable benefits : string list array; (* the distinct lists, by index *)
  aside : (int, Workflow.grant option) Hashtbl.t;
      (* records the table cannot hold: a form over another universe,
         or an id below 0 or past the table's reach *)
  mutable next : int;
  mutable stored : int; (* the predicate values the live grants hold *)
  mutable tombstones : int;
}

let create () =
  {
    dom = [||];
    bits = [||];
    tags = [||];
    universe = None;
    lists = Hashtbl.create 1;
    benefits = [||];
    aside = Hashtbl.create 1;
    next = 0;
    stored = 0;
    tombstones = 0;
  }

let values = function
  | Some grant -> Partial.domain_size grant.Workflow.form
  | None -> 0

let reserve t =
  let id = t.next in
  t.next <- id + 1;
  id

let grow n a fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let in_table t id = id >= 0 && id < Array.length t.tags

(* The record at [id]: [None] when there is none, [Some None] for a
   tombstone. *)
let get t id =
  if in_table t id then
    let tag = t.tags.(id) in
    if tag = absent then None
    else if tag = tombstone then Some None
    else if tag = aside then Hashtbl.find_opt t.aside id
    else
      let form =
        Partial.of_masks (Option.get t.universe) ~dom:t.dom.(id)
          ~bits:t.bits.(id)
      in
      Some (Some { Workflow.form; benefits = t.benefits.(tag) })
  else Hashtbl.find_opt t.aside id

let intern t benefits =
  match Hashtbl.find_opt t.lists benefits with
  | Some i -> i
  | None ->
    let i = Hashtbl.length t.lists in
    Hashtbl.add t.lists benefits i;
    if i = Array.length t.benefits then
      t.benefits <- grow (max 4 (2 * i)) t.benefits [];
    t.benefits.(i) <- benefits;
    i

(* Whether a form is over the table's universe, which the first form
   fixes. *)
let fits t form =
  let u = Partial.universe form in
  match t.universe with
  | None ->
    t.universe <- Some u;
    true
  | Some v -> v == u || Universe.equal v u

let restore t id grant =
  let taken = Option.is_some (get t id) in
  if not taken then begin
    let len = Array.length t.tags in
    if id >= len && id < len + reach then begin
      let n = max (id + 1) (max 16 (2 * len)) in
      t.dom <- grow n t.dom 0;
      t.bits <- grow n t.bits 0;
      t.tags <- grow n t.tags absent;
      (* Records kept aside for their ids are now within the table. *)
      Hashtbl.iter
        (fun i _ -> if i >= len && i < n then t.tags.(i) <- aside)
        t.aside
    end;
    (match grant with
    | _ when not (in_table t id) -> Hashtbl.replace t.aside id grant
    | None -> t.tags.(id) <- tombstone
    | Some g when fits t g.Workflow.form ->
      t.dom.(id) <- Partial.domain_mask g.Workflow.form;
      t.bits.(id) <- Partial.bits g.Workflow.form;
      t.tags.(id) <- intern t g.Workflow.benefits
    | Some _ ->
      Hashtbl.replace t.aside id grant;
      t.tags.(id) <- aside);
    t.next <- max t.next (id + 1);
    t.stored <- t.stored + values grant;
    if Option.is_none grant then t.tombstones <- t.tombstones + 1
  end;
  not taken

let record t grant =
  let id = reserve t in
  ignore (restore t id (Some grant));
  id

let find t id = Option.join (get t id)

let revoke t id =
  match get t id with
  | None -> `Unknown
  | Some None -> `Already
  | Some grant ->
    (* The tombstone: the minimized form is erased in place — the id
       keeps its slot so the archive ordering (and every later grant's
       id) is untouched, but the subvaluation itself is gone. *)
    t.stored <- t.stored - values grant;
    t.tombstones <- t.tombstones + 1;
    if in_table t id && t.tags.(id) <> aside then begin
      t.tags.(id) <- tombstone;
      t.dom.(id) <- 0;
      t.bits.(id) <- 0
    end
    else Hashtbl.replace t.aside id None;
    `Revoked

let size t = t.next
let tombstones t = t.tombstones
let stored_values t = t.stored

(* Every record in id order, each handed to [f] as it is read back. *)
let fold t f acc =
  let aside =
    Hashtbl.fold
      (fun id _ ids -> if in_table t id then ids else id :: ids)
      t.aside []
    |> List.sort Int.compare
  in
  let below = List.filter (fun id -> id < 0) aside
  and above = List.filter (fun id -> id >= 0) aside in
  let visit acc id =
    match get t id with Some grant -> f acc id grant | None -> acc
  in
  let acc = List.fold_left visit acc below in
  let acc = ref acc in
  for id = 0 to Array.length t.tags - 1 do
    acc := visit !acc id
  done;
  List.fold_left visit !acc above

let entries t = List.rev (fold t (fun acc id grant -> { id; grant } :: acc) [])

let audit t provider =
  List.rev
    (fold t
       (fun acc id grant ->
         match grant with
         | None -> acc (* tombstoned: nothing stored, nothing to re-verify *)
         | Some grant ->
           if Workflow.audit provider grant then acc else id :: acc)
       [])

let to_json t =
  Json.List
    (List.map
       (fun e ->
         match e.grant with
         | None ->
           Json.Obj [ ("id", Json.Int e.id); ("revoked", Json.Bool true) ]
         | Some grant ->
           Json.Obj
             [
               ("id", Json.Int e.id);
               ("form", Json.String (Partial.to_string grant.Workflow.form));
               ( "benefits",
                 Json.List
                   (List.map (fun b -> Json.String b) grant.Workflow.benefits)
               );
             ])
       (entries t))
