module Partial = Pet_valuation.Partial

type entry = { id : int; mutable grant : Workflow.grant option }

type t = {
  mutable entries : entry list; (* newest first *)
  mutable next : int;
  mutable stored : int; (* the predicate values the live grants hold *)
}

let create () = { entries = []; next = 0; stored = 0 }

let values = function
  | Some grant -> Partial.domain_size grant.Workflow.form
  | None -> 0

let reserve t =
  let id = t.next in
  t.next <- id + 1;
  id

(* Entries stay newest-id first; a record replayed late lands a few
   places down the list, so the walk is as long as its displacement. *)
let restore t id grant =
  let rec insert = function
    | e :: rest when e.id > id -> Option.map (List.cons e) (insert rest)
    | e :: _ when e.id = id -> None
    | rest -> Some ({ id; grant } :: rest)
  in
  match insert t.entries with
  | None -> false
  | Some entries ->
    t.entries <- entries;
    t.next <- max t.next (id + 1);
    t.stored <- t.stored + values grant;
    true

let record t grant =
  let id = reserve t in
  ignore (restore t id (Some grant));
  id

let entries t = List.rev t.entries

let find t id =
  List.find_map
    (fun e -> if e.id = id then e.grant else None)
    t.entries

let revoke t id =
  match List.find_opt (fun e -> e.id = id) t.entries with
  | None -> `Unknown
  | Some { grant = None; _ } -> `Already
  | Some e ->
    (* The tombstone: the minimized form is erased in place — the id
       keeps its slot so the archive ordering (and every later grant's
       id) is untouched, but the subvaluation itself is gone. *)
    t.stored <- t.stored - values e.grant;
    e.grant <- None;
    `Revoked

let size t = t.next

let tombstones t =
  List.fold_left
    (fun acc e -> if e.grant = None then acc + 1 else acc)
    0 t.entries

let stored_values t = t.stored

let audit t provider =
  List.filter_map
    (fun e ->
      match e.grant with
      | None -> None (* tombstoned: nothing stored, nothing to re-verify *)
      | Some grant -> if Workflow.audit provider grant then None else Some e.id)
    t.entries
  |> List.sort Int.compare

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
