(* The open-loop generator: one thread, two connections.

   Flows arrive every [interval] seconds and alternate between the two
   connections; a flow's next step is due [Sched.think] after its
   previous reply. Sockets are non-blocking and multiplexed with
   [select], so a slow server never stalls the schedule: unsent bytes
   queue in the connection's buffer and the backlog shows up as latency
   measured from each request's due time. Replies are matched to
   requests by the echoed id. *)

type conn = {
  fd : Unix.file_descr;
  out : Buffer.t;  (* bytes the socket has not taken yet *)
  buf : Bytes.t;
  mutable partial : string;  (* an incomplete reply line *)
  lines : string Queue.t;  (* complete replies not yet consumed (lockstep) *)
  mutable dead : bool;
}

let connect port =
  let fd = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
  (try Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port))
   with e -> Unix.close fd; raise e);
  (* The client must not add Nagle delays of its own; the server's
     sockets are measured as shipped. *)
  Unix.setsockopt fd TCP_NODELAY true;
  Unix.set_nonblock fd;
  {
    fd;
    out = Buffer.create 4096;
    buf = Bytes.create 65536;
    partial = "";
    lines = Queue.create ();
    dead = false;
  }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let flush c =
  if Buffer.length c.out > 0 && not c.dead then
    let s = Buffer.contents c.out in
    match Unix.single_write_substring c.fd s 0 (String.length s) with
    | n ->
      Buffer.clear c.out;
      if n < String.length s then Buffer.add_substring c.out s n (String.length s - n)
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> c.dead <- true

let send c line =
  Buffer.add_string c.out line;
  Buffer.add_char c.out '\n';
  flush c

(* Read what is available and queue the complete lines. *)
let pump c =
  match Unix.read c.fd c.buf 0 (Bytes.length c.buf) with
  | 0 -> c.dead <- true
  | n ->
    let s = c.partial ^ Bytes.sub_string c.buf 0 n in
    let rec split from =
      match String.index_from_opt s from '\n' with
      | Some j ->
        Queue.add (String.sub s from (j - from)) c.lines;
        split (j + 1)
      | None -> c.partial <- String.sub s from (String.length s - from)
    in
    split 0
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> c.dead <- true

let select conns ~timeout =
  let live = List.filter (fun c -> not c.dead) conns in
  let rd = List.map (fun c -> c.fd) live in
  let wr = List.filter_map (fun c -> if Buffer.length c.out > 0 then Some c.fd else None) live in
  match Unix.select rd wr [] (Float.max 0. timeout) with
  | r, w, _ ->
    List.iter (fun c -> if List.mem c.fd w then flush c) live;
    List.iter (fun c -> if List.mem c.fd r then pump c) live
  | exception Unix.Unix_error (EINTR, _, _) -> ()

exception Timeout of string

(* Lockstep helpers for set-up and checks: send the lines, wait for
   their replies, return them in request order (matched by id). Late
   replies to an earlier phase's requests are dropped. *)
let call_all ?(timeout = 60.) c lines =
  let ids = List.map (fun l -> Option.get (Wire.reply_id l)) lines in
  List.iter (send c) lines;
  let got = Hashtbl.create 16 and deadline = Sched.now () +. timeout in
  while Hashtbl.length got < List.length ids do
    if c.dead then raise (Timeout "connection closed");
    if Sched.now () > deadline then raise (Timeout "no reply");
    select [ c ] ~timeout:0.05;
    Queue.iter
      (fun l ->
        match Wire.reply_id l with
        | Some id when List.mem id ids -> Hashtbl.replace got id l
        | _ -> ())
      c.lines;
    Queue.clear c.lines
  done;
  List.map (Hashtbl.find got) ids

let call ?timeout c line = List.hd (call_all ?timeout c [ line ])

let next_id = ref 1_000_000
let fresh_id () = incr next_id; !next_id

(* --- The open loop ----------------------------------------------------------- *)

type spec = {
  rate : float;  (** requests per second offered *)
  steps : float;  (** mean requests per flow, to turn [rate] into arrivals *)
  warmup : float;
  duration : float;
  flow : int -> Flows.flow;  (** flow index → its requests *)
  side : (float * (int -> Flows.flow)) option;
      (** an extra flow every [period] seconds of the measured window *)
  expected : string list;  (** error codes that end a flow normally *)
  traced : bool;  (** stamp every send and reply with its own clock read *)
}

let reply_timeout = 5.

type fstate = {
  index : int;
  kind : string;
  conn_i : int;
  first_due : float;
  mutable rest : Flows.step list;
  mutable session : string;
  mutable done_steps : int;
}

let run (conns : conn array) spec =
  let now = Sched.now in
  let rc = Phase.recorder ~warmup:spec.warmup ~duration:spec.duration in
  let m1 = rc.w1 in
  let interval = Sched.flow_interval ~rate:spec.rate ~steps:spec.steps in
  let heap : fstate Sched.Heap.t = Sched.Heap.create () in
  let pending : (int, Phase.record * fstate) Hashtbl.t = Hashtbl.create 4096 in
  let arrival = ref 0 and side = ref 0 in
  let arrival_due () = Sched.flow_due ~t0:rc.t0 ~interval !arrival in
  let side_due () =
    match spec.side with
    | Some (period, _) -> rc.w0 +. (float_of_int (!side + 1) *. period)
    | None -> infinity
  in
  let finish fs (r : Phase.record) =
    Phase.finished rc
      { Phase.kind = fs.kind; first_due = fs.first_due; last_reply = r.reply; steps = fs.done_steps }
  in
  let fire fs ~due ~t =
    match fs.rest with
    | [] -> ()
    | st :: _ ->
      let id = fresh_id () in
      let sent = if spec.traced then now () else t in
      let r =
        { Phase.flow = fs.index; meth = st.meth; conn = fs.conn_i; due; sent; reply = nan; code = None }
      in
      Phase.sent rc r;
      let c = conns.(fs.conn_i) in
      if c.dead then r.code <- Some "disconnected"
      else begin
        Hashtbl.replace pending id (r, fs);
        send c (Wire.request ~id st.meth (st.params ~session:fs.session))
      end
  in
  let start_flow index (flow : Flows.flow) ~due ~t =
    let fs =
      {
        index;
        kind = flow.kind;
        conn_i = index mod Array.length conns;
        first_due = due;
        rest = flow.steps;
        session = "";
        done_steps = 0;
      }
    in
    fire fs ~due ~t
  in
  let on_line t line =
    match Option.bind (Wire.reply_id line) (Hashtbl.find_opt pending) with
    | None -> ()
    | Some ((r : Phase.record), fs) ->
      Hashtbl.remove pending (Option.get (Wire.reply_id line));
      r.reply <- (if spec.traced then now () else t);
      r.code <- Wire.error_code line;
      fs.done_steps <- fs.done_steps + 1;
      (match r.code with
      | None when r.meth = "new_session" -> (
        match Wire.string_field line "session" with
        | Some s -> fs.session <- s
        | None -> r.code <- Some "no_session")
      | _ -> ());
      match r.code with
      | Some c -> if List.mem c spec.expected then finish fs r
      | None ->
        fs.rest <- List.tl fs.rest;
        if fs.rest = [] then finish fs r
        else Sched.Heap.push heap (Sched.step_due ~reply:r.reply) fs
  in
  let expire t ~all =
    let stale =
      Hashtbl.fold
        (fun id ((r : Phase.record), _) acc ->
          if all || t -. r.sent > reply_timeout || conns.(r.conn).dead then (id, r) :: acc
          else acc)
        pending []
    in
    List.iter
      (fun (id, (r : Phase.record)) ->
        Hashtbl.remove pending id;
        r.code <- Some (if conns.(r.conn).dead then "disconnected" else "timeout"))
      stale
  in
  let deadline = m1 +. reply_timeout +. 1. in
  let last_scan = ref rc.t0 in
  let rec loop () =
    let t = now () in
    while arrival_due () < m1 && arrival_due () <= t do
      let due = arrival_due () in
      let index = !arrival in
      incr arrival;
      start_flow index (spec.flow index) ~due ~t
    done;
    (match spec.side with
    | Some (_, make) when side_due () < m1 && side_due () <= t ->
      let due = side_due () in
      incr side;
      (* side flows take indices past any arrival's *)
      start_flow (1_000_000 + !side) (make !side) ~due ~t
    | _ -> ());
    while Sched.Heap.top_key heap <= t do
      let due, fs = Sched.Heap.pop heap in
      fire fs ~due ~t
    done;
    Phase.backlog rc ~t (Hashtbl.length pending);
    if t -. !last_scan > 0.05 then begin
      last_scan := t;
      expire t ~all:false
    end;
    let idle =
      arrival_due () >= m1 && side_due () >= m1 && Sched.Heap.is_empty heap
      && Hashtbl.length pending = 0
    in
    if t >= deadline then expire t ~all:true
    else if not (idle && t >= m1) then begin
      let wake =
        Float.min (Float.min (arrival_due ()) (side_due ())) (Sched.Heap.top_key heap)
      in
      select (Array.to_list conns) ~timeout:(Float.min 0.02 (wake -. t));
      let t = now () in
      Array.iter
        (fun c ->
          Queue.iter (on_line t) c.lines;
          Queue.clear c.lines)
        conns;
      loop ()
    end
  in
  loop ();
  Phase.close rc
