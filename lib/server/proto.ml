module Json = Pet_pet.Json

let version = 1

type rules_ref =
  | Text of string
  | Source of string
  | Digest of string
  | Tenant of string
      (* the named tenant's active version — resolution may block while
         the tenant's first build completes *)

type choice_ref = Index of int | Mas of string
type metrics_format = Mjson | Mprometheus
type trace_query = Tlast | Tslow | Tget of string
type trace_format = Ttree | Tchrome

type request =
  | Publish_rules of {
      rules : rules_ref;
      tenant : string option;  (* create this tenant at version 1 *)
      quota : int option;  (* per-tenant active-session cap; 0 = unlimited *)
    }
  | Update_rules of { tenant : string; rules : rules_ref; quota : int option }
  | New_session of rules_ref
  | Get_report of { session : string; valuation : string }
  | Choose_option of { session : string; choice : choice_ref }
  | Submit_form of { session : string }
  | Revoke of { session : string }
      (* withdraw consent: tombstone the archived minimized form *)
  | Expire of { session : string; after : float }
      (* arm (or move) an expiry horizon [after] seconds from now *)
  | Audit of rules_ref
  | Tenant_info of { name : string option; wait : bool }
      (* one tenant's versions/state/counters (blocking until its
         builds settle when [wait]), or the tenant listing *)
  | Stats
  | Metrics of metrics_format
  | Trace_req of { query : trace_query; format : trace_format }
  | Watch of { interval : float; frames : int }
      (* stream metric-snapshot frames: one response per frame, all
         echoing the request id; [frames = 0] means until disconnect *)

type code =
  | Parse_error
  | Invalid_request
  | Unknown_method
  | Invalid_params
  | Unknown_rules
  | Unknown_source
  | Unknown_session
  | Unknown_tenant
  | Session_expired
  | Bad_state
  | Ineligible
  | Rejected
  | Quota_exceeded
  | Build_failed
  | Internal

let code_name = function
  | Parse_error -> "parse_error"
  | Invalid_request -> "invalid_request"
  | Unknown_method -> "unknown_method"
  | Invalid_params -> "invalid_params"
  | Unknown_rules -> "unknown_rules"
  | Unknown_source -> "unknown_source"
  | Unknown_session -> "unknown_session"
  | Unknown_tenant -> "unknown_tenant"
  | Session_expired -> "session_expired"
  | Bad_state -> "bad_state"
  | Ineligible -> "ineligible"
  | Rejected -> "rejected"
  | Quota_exceeded -> "quota_exceeded"
  | Build_failed -> "build_failed"
  | Internal -> "internal"

type error = { code : code; message : string }

let error code message = { code; message }
let errorf code fmt = Printf.ksprintf (error code) fmt

type envelope = { id : Json.t; trace : string option; request : request }

let method_name = function
  | Publish_rules _ -> "publish_rules"
  | Update_rules _ -> "update_rules"
  | New_session _ -> "new_session"
  | Get_report _ -> "get_report"
  | Choose_option _ -> "choose_option"
  | Submit_form _ -> "submit_form"
  | Revoke _ -> "revoke"
  | Expire _ -> "expire"
  | Audit _ -> "audit"
  | Tenant_info _ -> "tenant"
  | Stats -> "stats"
  | Metrics _ -> "metrics"
  | Trace_req _ -> "trace"
  | Watch _ -> "watch"

(* --- Decoding --------------------------------------------------------------- *)

let ( let* ) = Result.bind

let string_field params name =
  match Json.member name params with
  | Some (Json.String s) -> Ok s
  | Some _ -> Error (errorf Invalid_params "%S must be a string" name)
  | None -> Error (errorf Invalid_params "missing %S parameter" name)

let rules_ref ?(allow_tenant = false) params ~allow_digest =
  let keys =
    [ "rules"; "source"; "digest" ] @ if allow_tenant then [ "tenant" ] else []
  in
  let pick =
    List.filter_map
      (fun name ->
        Option.map (fun v -> (name, v)) (Json.member name params))
      keys
  in
  match pick with
  | [ ("rules", Json.String s) ] -> Ok (Text s)
  | [ ("source", Json.String s) ] -> Ok (Source s)
  | [ ("digest", Json.String s) ] when allow_digest -> Ok (Digest s)
  | [ ("tenant", Json.String s) ] -> Ok (Tenant s)
  | [ ("digest", Json.String _) ] ->
    Error (error Invalid_params "this method requires \"rules\" or \"source\"")
  | [ (name, _) ] ->
    Error (errorf Invalid_params "%S must be a string" name)
  | [] ->
    Error
      (errorf Invalid_params "expected one of %s"
         (match (allow_digest, allow_tenant) with
          | true, true -> "\"rules\", \"source\", \"digest\" or \"tenant\""
          | true, false -> "\"rules\", \"source\" or \"digest\""
          | false, true -> "\"rules\", \"source\" or \"tenant\""
          | false, false -> "\"rules\" or \"source\""))
  | _ :: _ :: _ ->
    Error
      (errorf Invalid_params "%s are mutually exclusive"
         (if allow_tenant then
            "\"rules\", \"source\", \"digest\" and \"tenant\""
          else "\"rules\", \"source\" and \"digest\""))

let choice_ref params =
  match (Json.member "option" params, Json.member "mas" params) with
  | Some (Json.Int i), None -> Ok (Index i)
  | None, Some (Json.String s) -> Ok (Mas s)
  | None, None ->
    Error
      (error Invalid_params
         "expected \"option\" (an index into the report's options) or \
          \"mas\" (the minimized form itself)")
  | Some _, Some _ ->
    Error (error Invalid_params "\"option\" and \"mas\" are mutually exclusive")
  | Some _, None -> Error (error Invalid_params "\"option\" must be an integer")
  | None, Some _ -> Error (error Invalid_params "\"mas\" must be a string")

(* Optional scalar parameters shared by the tenant methods. *)
let tenant_field params =
  match Json.member "tenant" params with
  | None -> Ok None
  | Some (Json.String s) -> Ok (Some s)
  | Some _ -> Error (error Invalid_params "\"tenant\" must be a string")

let quota_field params =
  match Json.member "quota" params with
  | None -> Ok None
  | Some (Json.Int q) when q >= 0 -> Ok (Some q)
  | Some (Json.Int _) ->
    Error (error Invalid_params "\"quota\" must be >= 0 (0 means unlimited)")
  | Some _ -> Error (error Invalid_params "\"quota\" must be an integer")

let decode_request name params =
  match name with
  | "publish_rules" ->
    let* rules = rules_ref params ~allow_digest:false in
    let* tenant = tenant_field params in
    let* quota = quota_field params in
    let* () =
      if quota <> None && tenant = None then
        Error
          (error Invalid_params "\"quota\" requires a \"tenant\" parameter")
      else Ok ()
    in
    Ok (Publish_rules { rules; tenant; quota })
  | "update_rules" ->
    let* rules = rules_ref params ~allow_digest:false in
    let* tenant = tenant_field params in
    let* quota = quota_field params in
    let* tenant =
      match tenant with
      | Some t -> Ok t
      | None -> Error (error Invalid_params "missing \"tenant\" parameter")
    in
    Ok (Update_rules { tenant; rules; quota })
  | "new_session" ->
    let* rules = rules_ref params ~allow_digest:true ~allow_tenant:true in
    Ok (New_session rules)
  | "get_report" ->
    let* session = string_field params "session" in
    let* valuation = string_field params "valuation" in
    Ok (Get_report { session; valuation })
  | "choose_option" ->
    let* session = string_field params "session" in
    let* choice = choice_ref params in
    Ok (Choose_option { session; choice })
  | "submit_form" ->
    let* session = string_field params "session" in
    Ok (Submit_form { session })
  | "revoke" ->
    let* session = string_field params "session" in
    Ok (Revoke { session })
  | "expire" ->
    let* session = string_field params "session" in
    let* after =
      match Json.member "after" params with
      | Some (Json.Int i) when i >= 0 -> Ok (float_of_int i)
      | Some (Json.Float f) when f >= 0. -> Ok f
      | Some (Json.Int _ | Json.Float _) ->
        Error (error Invalid_params "\"after\" must be >= 0 (seconds)")
      | Some _ -> Error (error Invalid_params "\"after\" must be a number")
      | None -> Error (error Invalid_params "missing \"after\" parameter")
    in
    Ok (Expire { session; after })
  | "audit" ->
    let* rules = rules_ref params ~allow_digest:true ~allow_tenant:true in
    Ok (Audit rules)
  | "tenant" ->
    let* name =
      match Json.member "name" params with
      | None -> Ok None
      | Some (Json.String s) -> Ok (Some s)
      | Some _ -> Error (error Invalid_params "\"name\" must be a string")
    in
    let* wait =
      match Json.member "wait" params with
      | None -> Ok false
      | Some (Json.Bool b) -> Ok b
      | Some _ -> Error (error Invalid_params "\"wait\" must be a boolean")
    in
    let* () =
      if wait && name = None then
        Error (error Invalid_params "\"wait\" requires a \"name\" parameter")
      else Ok ()
    in
    Ok (Tenant_info { name; wait })
  | "stats" -> Ok Stats
  | "metrics" -> (
    match Json.member "format" params with
    | None | Some (Json.String "json") -> Ok (Metrics Mjson)
    | Some (Json.String "prometheus") -> Ok (Metrics Mprometheus)
    | Some (Json.String other) ->
      Error
        (errorf Invalid_params
           "unknown metrics format %S (expected \"json\" or \"prometheus\")"
           other)
    | Some _ -> Error (error Invalid_params "\"format\" must be a string"))
  | "trace" ->
    let* query =
      match (Json.member "which" params, Json.member "id" params) with
      | (None | Some (Json.String "last")), None -> Ok Tlast
      | Some (Json.String "slow"), None -> Ok Tslow
      | Some (Json.String "get"), Some (Json.String id) -> Ok (Tget id)
      | Some (Json.String "get"), Some _ ->
        Error (error Invalid_params "\"id\" must be a string")
      | Some (Json.String "get"), None ->
        Error (error Invalid_params "\"which\":\"get\" requires an \"id\"")
      | None, Some (Json.String id) -> Ok (Tget id)
      | _, Some _ when Json.member "which" params <> None ->
        Error
          (error Invalid_params
             "\"id\" only applies to \"which\":\"get\"")
      | Some (Json.String other), _ ->
        Error
          (errorf Invalid_params
             "unknown trace query %S (expected \"last\", \"slow\" or \
              \"get\")"
             other)
      | Some _, _ -> Error (error Invalid_params "\"which\" must be a string")
      | None, Some _ -> Error (error Invalid_params "\"id\" must be a string")
    in
    let* format =
      match Json.member "format" params with
      | None | Some (Json.String "tree") -> Ok Ttree
      | Some (Json.String "chrome") -> Ok Tchrome
      | Some (Json.String other) ->
        Error
          (errorf Invalid_params
             "unknown trace format %S (expected \"tree\" or \"chrome\")"
             other)
      | Some _ -> Error (error Invalid_params "\"format\" must be a string")
    in
    Ok (Trace_req { query; format })
  | "watch" ->
    let* interval =
      match Json.member "interval" params with
      | None -> Ok 1.0
      | Some (Json.Int i) when i >= 0 -> Ok (float_of_int i)
      | Some (Json.Float f) when f >= 0. -> Ok f
      | Some _ ->
        Error
          (error Invalid_params "\"interval\" must be a non-negative number")
    in
    let* frames =
      match Json.member "frames" params with
      | None -> Ok 0
      | Some (Json.Int n) when n >= 0 -> Ok n
      | Some _ ->
        Error
          (error Invalid_params "\"frames\" must be a non-negative integer")
    in
    Ok (Watch { interval; frames })
  | other -> Error (errorf Unknown_method "unknown method %S" other)

let max_line_bytes = 1 lsl 20

let decode line =
  if String.length line > max_line_bytes then
    Error
      ( Json.Null,
        None,
        errorf Invalid_request "oversized request line (%d bytes, max %d)"
          (String.length line) max_line_bytes )
  else
  match Json.parse line with
  | Error m -> Error (Json.Null, None, error Parse_error m)
  | Ok (Json.Obj _ as obj) -> (
    let id =
      match Json.member "id" obj with
      | Some ((Json.Int _ | Json.String _ | Json.Null) as id) -> id
      | Some _ | None -> Json.Null
    in
    (* Best-effort like [id]: a malformed request still gets its trace
       id echoed so the client can correlate the error. *)
    let trace =
      match Json.member "trace" obj with
      | Some (Json.String t) -> Some t
      | Some _ | None -> None
    in
    let fail e = Error (id, trace, e) in
    match Json.member "pet" obj with
    | Some (Json.Int v) when v = version -> (
      match Json.member "method" obj with
      | Some (Json.String name) -> (
        let params =
          match Json.member "params" obj with
          | Some (Json.Obj _ as params) -> Ok params
          | None -> Ok (Json.Obj [])
          | Some _ -> Error (error Invalid_request "\"params\" must be an object")
        in
        match params with
        | Error e -> fail e
        | Ok params -> (
          match decode_request name params with
          | Ok request -> Ok { id; trace; request }
          | Error e -> fail e))
      | Some _ -> fail (error Invalid_request "\"method\" must be a string")
      | None -> fail (error Invalid_request "missing \"method\""))
    | Some (Json.Int v) ->
      fail
        (errorf Invalid_request "unsupported protocol version %d (this is %d)"
           v version)
    | Some _ -> fail (error Invalid_request "\"pet\" must be an integer")
    | None ->
      fail (error Invalid_request "missing \"pet\" protocol-version field"))
  | Ok _ ->
    Error (Json.Null, None, error Invalid_request "request must be a JSON object")

(* --- Fast decoding ----------------------------------------------------------- *)

(* A one-pass scan of the fixed envelope shape over {!Json.Cursor},
   with no AST. Soundness contract: [decode_fast line = Some env]
   implies [decode line = Ok env] — every accepted byte sequence is one
   the full decoder accepts with the same meaning, and anything else
   (escaped strings, floats, nesting, duplicate keys, cold methods,
   semantic parameter errors) returns [None] so the caller falls back
   to {!decode}. The fuzzer checks the implication on every generated
   line, so the fast path can never change an answer, only skip
   allocations on the hot methods. *)

module Cursor = Json.Cursor

type fast_value = Fstr of string | Fint of int

(* Scan one scalar parameter value; anything non-scalar bails. *)
let fast_value cur =
  Cursor.skip_ws cur;
  match Cursor.peek cur with
  | '"' -> Option.map (fun s -> Fstr s) (Cursor.simple_string cur)
  | '-' | '0' .. '9' -> Option.map (fun i -> Fint i) (Cursor.int cur)
  | _ -> None

(* Scan a flat object of distinct scalar fields into an assoc list
   (arrival order). Duplicate keys bail: [Json.member] keeps the first
   occurrence, and refusing duplicates outright is the cheapest way to
   stay observationally identical. *)
let fast_flat_obj cur =
  let ( let* ) = Option.bind in
  Cursor.skip_ws cur;
  if not (Cursor.accept cur '{') then None
  else begin
    Cursor.skip_ws cur;
    if Cursor.accept cur '}' then Some []
    else
      let rec fields acc =
        Cursor.skip_ws cur;
        let* key = Cursor.simple_string cur in
        if List.mem_assoc key acc then None
        else begin
          Cursor.skip_ws cur;
          if not (Cursor.accept cur ':') then None
          else
            let* value = fast_value cur in
            let acc = (key, value) :: acc in
            Cursor.skip_ws cur;
            if Cursor.accept cur ',' then fields acc
            else if Cursor.accept cur '}' then Some (List.rev acc)
            else None
        end
      in
      fields []
  end

(* The hot methods: the request loop of Figure 3. Everything else —
   publish_rules (whose rule text needs string escapes anyway), audit,
   stats, metrics, trace — takes the full decoder. *)
let fast_request meth params =
  let str name = match List.assoc_opt name params with
    | Some (Fstr s) -> Some s
    | _ -> None
  in
  let only names = List.for_all (fun (k, _) -> List.mem k names) params in
  match meth with
  | "new_session" -> (
    if not (only [ "rules"; "source"; "digest"; "tenant" ]) then None
    else
      match params with
      | [ ("rules", Fstr s) ] -> Some (New_session (Text s))
      | [ ("source", Fstr s) ] -> Some (New_session (Source s))
      | [ ("digest", Fstr s) ] -> Some (New_session (Digest s))
      | [ ("tenant", Fstr s) ] -> Some (New_session (Tenant s))
      | _ -> None)
  | "get_report" -> (
    if not (only [ "session"; "valuation" ]) then None
    else
      match (str "session", str "valuation") with
      | Some session, Some valuation ->
        Some (Get_report { session; valuation })
      | _ -> None)
  | "choose_option" -> (
    if not (only [ "session"; "option"; "mas" ]) then None
    else
      match (str "session", List.assoc_opt "option" params,
             List.assoc_opt "mas" params)
      with
      | Some session, Some (Fint i), None ->
        Some (Choose_option { session; choice = Index i })
      | Some session, None, Some (Fstr s) ->
        Some (Choose_option { session; choice = Mas s })
      | _ -> None)
  | "submit_form" -> (
    if not (only [ "session" ]) then None
    else
      match str "session" with
      | Some session -> Some (Submit_form { session })
      | _ -> None)
  | _ -> None

let decode_fast line =
  if String.length line > max_line_bytes then None
  else begin
    let ( let* ) = Option.bind in
    let cur = Cursor.of_string line in
    Cursor.skip_ws cur;
    if not (Cursor.accept cur '{') then None
    else begin
      let pet = ref None and id = ref None and trace = ref None in
      let meth = ref None and params = ref None in
      let slot r v = match !r with Some _ -> None | None -> r := Some v; Some () in
      let rec fields first =
        Cursor.skip_ws cur;
        if first && Cursor.accept cur '}' then Some ()
        else
          let* key = Cursor.simple_string cur in
          Cursor.skip_ws cur;
          if not (Cursor.accept cur ':') then None
          else
            let* () =
              match key with
              | "pet" ->
                Cursor.skip_ws cur;
                let* v = Cursor.int cur in
                slot pet v
              | "id" -> (
                Cursor.skip_ws cur;
                match Cursor.peek cur with
                | '"' ->
                  let* s = Cursor.simple_string cur in
                  slot id (Json.String s)
                | '-' | '0' .. '9' ->
                  let* i = Cursor.int cur in
                  slot id (Json.Int i)
                | _ -> None)
              | "trace" ->
                Cursor.skip_ws cur;
                let* s = Cursor.simple_string cur in
                slot trace s
              | "method" ->
                Cursor.skip_ws cur;
                let* s = Cursor.simple_string cur in
                slot meth s
              | "params" ->
                let* fs = fast_flat_obj cur in
                slot params fs
              | _ -> None
            in
            Cursor.skip_ws cur;
            if Cursor.accept cur ',' then fields false
            else if Cursor.accept cur '}' then Some ()
            else None
      in
      let* () = fields true in
      Cursor.skip_ws cur;
      if not (Cursor.at_end cur) then None
      else
        let* pet = !pet in
        if pet <> version then None
        else
          let* meth = !meth in
          let* request = fast_request meth (Option.value ~default:[] !params) in
          Some
            {
              id = Option.value ~default:Json.Null !id;
              trace = !trace;
              request;
            }
    end
  end

(* --- Encoding --------------------------------------------------------------- *)

let trace_field = function
  | None -> []
  | Some t -> [ ("trace", Json.String t) ]

let ok_response ~id ?trace result =
  Json.to_string
    (Json.Obj
       (("pet", Json.Int version) :: ("id", id)
       :: (trace_field trace @ [ ("ok", result) ])))

(* Same bytes as {!ok_response} for a result already rendered by
   [Json.to_string]: the envelope fields are emitted around the cached
   payload instead of re-walking its tree. The service's report memo
   keeps each player's report as its rendered string, so a memo hit
   reply is a few [Buffer] appends. *)
let ok_response_text ~id ?trace payload =
  let buf = Buffer.create (String.length payload + 48) in
  Buffer.add_string buf "{\"pet\":";
  Buffer.add_string buf (string_of_int version);
  Buffer.add_string buf ",\"id\":";
  Buffer.add_string buf (Json.to_string id);
  (match trace with
  | None -> ()
  | Some t ->
    Buffer.add_string buf ",\"trace\":";
    Buffer.add_string buf (Json.to_string (Json.String t)));
  Buffer.add_string buf ",\"ok\":";
  Buffer.add_string buf payload;
  Buffer.add_char buf '}';
  Buffer.contents buf

let error_response ~id ?trace { code; message } =
  Json.to_string
    (Json.Obj
       (("pet", Json.Int version) :: ("id", id)
       :: trace_field trace
       @ [
           ( "error",
             Json.Obj
               [
                 ("code", Json.String (code_name code));
                 ("message", Json.String message);
               ] );
         ]))
