module Json = Pet_pet.Json

type event =
  | Rules of { digest : string; text : string }
  | Tenant_published of {
      tenant : string;
      version : int;
      digest : string;
      text : string;
      quota : int option;
      at : float;
    }
      (* logged on the request path at publish/update time — before the
         background build runs — so "the latest durable version" is the
         latest *accepted* version, and recovery re-registers it with a
         lazy rebuild *)
  | Session_created of {
      id : string;
      digest : string;
      tenant : string option;
      at : float;
    }
  | Session_chosen of {
      id : string;
      mas : string;
      benefits : string list;
      at : float;
    }
  | Session_submitted of { id : string; grant_id : int; at : float }
  | Session_revoked of { id : string; at : float }
      (* the respondent withdrew consent: the session (if live) was
         purged and its archived grant (if any) tombstoned — from here
         on, no later record may re-establish this session's
         subvaluation *)
  | Session_expiry of { id : string; horizon : float; at : float }
      (* consent was granted until [horizon] (absolute service time,
         set at [at]): once the clock passes it the grant is tombstoned
         by the sweep; replay re-arms the horizon so recovery applies
         it too *)
  | Grant of {
      digest : string;
      grant_id : int;
      form : string;
      benefits : string list;
      session : string option;
          (* the submitting session — the consent-lifecycle link a
             revocation uses to find this record; omitted from the JSON
             when absent so pre-lifecycle logs keep their bytes *)
      tenant : string option;
          (* namespaces the grant ledger per tenant: two tenants
             publishing identical rules keep separate archives *)
      revoked : bool;
          (* a tombstone written by compaction: the form field is empty
             and must never be parsed — only the id slot survives *)
    }

let kind = function
  | Rules _ -> "rules"
  | Tenant_published _ -> "tenant_published"
  | Session_created _ -> "session_created"
  | Session_chosen _ -> "session_chosen"
  | Session_submitted _ -> "session_submitted"
  | Session_revoked _ -> "session_revoked"
  | Session_expiry _ -> "session_expiry"
  | Grant _ -> "grant"

let benefits_json benefits = Json.List (List.map (fun b -> Json.String b) benefits)

let to_json event =
  let tag = ("ev", Json.String (kind event)) in
  match event with
  | Rules { digest; text } ->
    Json.Obj [ tag; ("digest", Json.String digest); ("text", Json.String text) ]
  | Tenant_published { tenant; version; digest; text; quota; at } ->
    Json.Obj
      ([
         tag;
         ("tenant", Json.String tenant);
         ("version", Json.Int version);
         ("digest", Json.String digest);
         ("text", Json.String text);
       ]
      @ (match quota with
        | Some q -> [ ("quota", Json.Int q) ]
        | None -> [])
      @ [ ("at", Json.Float at) ])
  | Session_created { id; digest; tenant; at } ->
    (* The tenant field is emitted only when present, so single-tenant
       logs keep their pre-tenancy bytes. *)
    Json.Obj
      ([ tag; ("id", Json.String id); ("digest", Json.String digest) ]
      @ (match tenant with
        | Some name -> [ ("tenant", Json.String name) ]
        | None -> [])
      @ [ ("at", Json.Float at) ])
  | Session_chosen { id; mas; benefits; at } ->
    Json.Obj
      [
        tag;
        ("id", Json.String id);
        ("mas", Json.String mas);
        ("benefits", benefits_json benefits);
        ("at", Json.Float at);
      ]
  | Session_submitted { id; grant_id; at } ->
    Json.Obj
      [
        tag;
        ("id", Json.String id);
        ("grant", Json.Int grant_id);
        ("at", Json.Float at);
      ]
  | Session_revoked { id; at } ->
    Json.Obj [ tag; ("id", Json.String id); ("at", Json.Float at) ]
  | Session_expiry { id; horizon; at } ->
    Json.Obj
      [
        tag;
        ("id", Json.String id);
        ("horizon", Json.Float horizon);
        ("at", Json.Float at);
      ]
  | Grant { digest; grant_id; form; benefits; session; tenant; revoked } ->
    (* The lifecycle fields are emitted only when set, so pre-lifecycle
       logs keep their bytes. *)
    Json.Obj
      ([
         tag;
         ("digest", Json.String digest);
         ("grant", Json.Int grant_id);
         ("form", Json.String form);
         ("benefits", benefits_json benefits);
       ]
      @ (match session with
        | Some id -> [ ("session", Json.String id) ]
        | None -> [])
      @ (match tenant with
        | Some name -> [ ("tenant", Json.String name) ]
        | None -> [])
      @ if revoked then [ ("revoked", Json.Bool true) ] else [])

let ( let* ) = Result.bind

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let string_field name j =
  let* v = field name j in
  match Json.string_opt v with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "field %S is not a string" name)

let int_field name j =
  let* v = field name j in
  match Json.int_opt v with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "field %S is not an integer" name)

(* Integral floats are emitted as JSON integers, so accept both. *)
let float_field name j =
  let* v = field name j in
  match v with
  | Json.Float f -> Ok f
  | Json.Int i -> Ok (float_of_int i)
  | _ -> Error (Printf.sprintf "field %S is not a number" name)

let benefits_field j =
  let* v = field "benefits" j in
  match v with
  | Json.List items ->
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        match Json.string_opt item with
        | Some s -> Ok (s :: acc)
        | None -> Error "field \"benefits\" contains a non-string")
      (Ok []) items
    |> Result.map List.rev
  | _ -> Error "field \"benefits\" is not a list"

let of_json j =
  let* tag = string_field "ev" j in
  match tag with
  | "rules" ->
    let* digest = string_field "digest" j in
    let* text = string_field "text" j in
    Ok (Rules { digest; text })
  | "tenant_published" ->
    let* tenant = string_field "tenant" j in
    let* version = int_field "version" j in
    let* digest = string_field "digest" j in
    let* text = string_field "text" j in
    let* quota =
      match Json.member "quota" j with
      | None -> Ok None
      | Some (Json.Int q) -> Ok (Some q)
      | Some _ -> Error "field \"quota\" is not an integer"
    in
    let* at = float_field "at" j in
    Ok (Tenant_published { tenant; version; digest; text; quota; at })
  | "session_created" ->
    let* id = string_field "id" j in
    let* digest = string_field "digest" j in
    let* tenant =
      match Json.member "tenant" j with
      | None -> Ok None
      | Some (Json.String s) -> Ok (Some s)
      | Some _ -> Error "field \"tenant\" is not a string"
    in
    let* at = float_field "at" j in
    Ok (Session_created { id; digest; tenant; at })
  | "session_chosen" ->
    let* id = string_field "id" j in
    let* mas = string_field "mas" j in
    let* benefits = benefits_field j in
    let* at = float_field "at" j in
    Ok (Session_chosen { id; mas; benefits; at })
  | "session_submitted" ->
    let* id = string_field "id" j in
    let* grant_id = int_field "grant" j in
    let* at = float_field "at" j in
    Ok (Session_submitted { id; grant_id; at })
  | "session_revoked" ->
    let* id = string_field "id" j in
    let* at = float_field "at" j in
    Ok (Session_revoked { id; at })
  | "session_expiry" ->
    let* id = string_field "id" j in
    let* horizon = float_field "horizon" j in
    let* at = float_field "at" j in
    Ok (Session_expiry { id; horizon; at })
  | "grant" ->
    let* digest = string_field "digest" j in
    let* grant_id = int_field "grant" j in
    let* form = string_field "form" j in
    let* benefits = benefits_field j in
    let opt_string name =
      match Json.member name j with
      | None -> Ok None
      | Some (Json.String s) -> Ok (Some s)
      | Some _ -> Error (Printf.sprintf "field %S is not a string" name)
    in
    let* session = opt_string "session" in
    let* tenant = opt_string "tenant" in
    let* revoked =
      match Json.member "revoked" j with
      | None -> Ok false
      | Some (Json.Bool b) -> Ok b
      | Some _ -> Error "field \"revoked\" is not a boolean"
    in
    Ok (Grant { digest; grant_id; form; benefits; session; tenant; revoked })
  | other -> Error (Printf.sprintf "unknown event kind %S" other)

(* Anywhere in the record, not only at the top level: a decodable event
   may carry fields [of_json] ignores. *)
let rec carries_valuation = function
  | Json.Obj fields ->
    List.exists (fun (k, v) -> k = "valuation" || carries_valuation v) fields
  | Json.List items -> List.exists carries_valuation items
  | _ -> false

type sink = { emit : event -> unit }

let null = { emit = (fun _ -> ()) }
