(** The collection-service wire protocol: versioned request/response
    envelopes over line-delimited JSON.

    One request per line, one response line per request, always in
    order — the framing works identically over stdin/stdout (the [pet
    serve] subcommand, cram-testable) and over any socket transport
    wrapped around {!Service.handle_line} later.

    Requests: [{"pet":1, "id":ID, "method":M, "params":{…}}] where [ID]
    is an integer, string or null echo token. Responses:
    [{"pet":1,"id":ID,"ok":RESULT}] or
    [{"pet":1,"id":ID,"error":{"code":C,"message":S}}].

    Methods and their parameters:
    - [publish_rules] — [rules] (spec text) or [source] (built-in name);
      optional [tenant] (create that tenant at version 1, building in
      the background) and [quota] (per-tenant active-session cap)
    - [update_rules] — [tenant] plus [rules] or [source]: append a new
      version to an existing tenant; the previous version keeps serving
      until the new build lands, then the registry atomically swaps
    - [new_session] — [rules], [source], [digest] (a published rule
      set) or [tenant] (that tenant's active version)
    - [get_report] — [session], [valuation] (the filled form as bits)
    - [choose_option] — [session], and [option] (index) or [mas] (string)
    - [submit_form] — [session]
    - [revoke] — [session]: withdraw consent; the archived minimized
      form (if any) is tombstoned and the session purged
    - [expire] — [session], [after] (seconds, >= 0): arm or move the
      session's expiry horizon; the grant is tombstoned when it passes
    - [audit] — [rules], [source], [digest] or [tenant]
    - [tenant] — optional [name] (omit for the tenant listing) and
      [wait] (block until the named tenant's builds settle)
    - [stats] — no parameters
    - [metrics] — optional [format]: ["json"] (default) or
      ["prometheus"]
    - [trace] — optional [which]: ["last"] (default), ["slow"], or
      ["get"] with [id]; optional [format]: ["tree"] (default) or
      ["chrome"]

    Any request may carry an optional ["trace":ID] string field; the
    service echoes it on the matching response (ok {e and} error) and
    labels the request's capture with it. Absent the field the service
    generates an id, so responses always carry one when tracing is on.
    Requests without the field are unchanged on the wire — the field is
    additive and version-compatible. *)

module Json = Pet_pet.Json

val version : int

type rules_ref =
  | Text of string  (** the rule-spec text itself *)
  | Source of string  (** a name the host resolves (built-in case studies) *)
  | Digest of string  (** a previously published rule set *)
  | Tenant of string
      (** the named tenant's active version; resolution may block while
          the tenant's first build completes *)

type choice_ref = Index of int | Mas of string

type metrics_format = Mjson | Mprometheus
(** Response shape for the [metrics] method: a structured JSON snapshot
    or a Prometheus text exposition (shipped as one JSON string). *)

type trace_query =
  | Tlast  (** the most recently completed capture *)
  | Tslow  (** summaries of the slow ring, plus eviction counters *)
  | Tget of string  (** a capture by trace id *)

type trace_format = Ttree | Tchrome
(** Rendering of a returned capture: readable tree, or Chrome
    [trace_event] JSON shipped as one string (like the Prometheus
    exposition). *)

type request =
  | Publish_rules of {
      rules : rules_ref;
      tenant : string option;
          (** create this tenant at version 1; its build is queued, off
              the request path, so the response reports ["building"] *)
      quota : int option;
          (** per-tenant cap on concurrently active sessions (0 =
              unlimited); requires [tenant] *)
    }
  | Update_rules of { tenant : string; rules : rules_ref; quota : int option }
  | New_session of rules_ref
  | Get_report of { session : string; valuation : string }
  | Choose_option of { session : string; choice : choice_ref }
  | Submit_form of { session : string }
  | Revoke of { session : string }
      (** withdraw consent: tombstone the archived minimized form *)
  | Expire of { session : string; after : float }
      (** arm (or move) an expiry horizon [after] seconds from now *)
  | Audit of rules_ref
  | Tenant_info of { name : string option; wait : bool }
  | Stats
  | Metrics of metrics_format
  | Trace_req of { query : trace_query; format : trace_format }
  | Watch of { interval : float; frames : int }
      (** live metric-snapshot streaming: the transport replies with
          one ok-response per frame, every [interval] seconds, [frames]
          times ([0] = until the client goes away), all echoing the
          request id. The service itself answers a single frame —
          streaming is the transport loop's job, so non-watch traffic
          is byte-identical with or without a watcher. *)

type code =
  | Parse_error  (** the line is not valid JSON (message has the position) *)
  | Invalid_request  (** not a protocol envelope *)
  | Unknown_method
  | Invalid_params
  | Unknown_rules
      (** no rule set with that digest was ever published here (an
          evicted one is reinstalled from its tenant or recompiled from
          its retained text); the message names the offending digest *)
  | Unknown_source  (** no built-in rule set of that name *)
  | Unknown_session
  | Unknown_tenant  (** no tenant of that name was ever published *)
  | Session_expired
  | Bad_state  (** the session is not in a state accepting this method *)
  | Ineligible  (** the form grants no benefit or contradicts the rules *)
  | Rejected  (** provider-side refusal of a submitted form *)
  | Quota_exceeded
      (** the tenant is at its cap of concurrently active sessions *)
  | Build_failed
      (** the tenant version's background build failed (e.g. the form
          is beyond the atlas enumeration bound); the message carries
          the build's error *)
  | Internal
      (** server-side failure outside the request's control — e.g. the
          write-ahead log refused the event the request produced; the
          state change was not acknowledged as durable *)

val code_name : code -> string

type error = { code : code; message : string }

val error : code -> string -> error
val errorf : code -> ('a, unit, string, error) format4 -> 'a

type envelope = {
  id : Json.t;  (** Int, String or Null *)
  trace : string option;  (** client-supplied trace id, echoed back *)
  request : request;
}

val method_name : request -> string
(** The wire name, used as the stats bucket. *)

val max_line_bytes : int
(** Request lines longer than this (1 MiB) are rejected with
    [Invalid_request] before being parsed — a hostile client cannot make
    the service buffer unbounded JSON. *)

val decode : string -> (envelope, Json.t * string option * error) result
(** Decode one request line. On failure the best-effort request id and
    trace id are returned alongside the error so the response can still
    be correlated. Lines over {!max_line_bytes} are refused without
    parsing. *)

val decode_fast : string -> envelope option
(** One-pass scan of the common envelope shape over {!Json.Cursor},
    building no AST. Sound but partial: [decode_fast line = Some env]
    implies [decode line = Ok env]; [None] means the line needs the
    full decoder (escaped strings, floats, duplicate keys, a cold
    method, or any malformed input — the fast path never produces an
    error itself). Covers [new_session] (including by [tenant]),
    [get_report], [choose_option] and [submit_form]; the protocol
    fuzzer checks the implication on every line it generates. *)

val ok_response : id:Json.t -> ?trace:string -> Json.t -> string

(** [ok_response_text ~id ?trace payload] is [ok_response ~id ?trace]
    for a result that is already rendered JSON text (as produced by
    [Json.to_string]): it emits the identical bytes without re-walking
    the result tree. *)
val ok_response_text : id:Json.t -> ?trace:string -> string -> string
val error_response : id:Json.t -> ?trace:string -> error -> string
(** Responses carry a ["trace":ID] field exactly when [?trace] is given;
    without it the encoding is byte-identical to the pre-trace protocol. *)
