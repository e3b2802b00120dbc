(* --- Naming ----------------------------------------------------------------- *)

let name prefix n = Printf.sprintf "%s-%06d.log" prefix n

let parse_name prefix file =
  let pl = String.length prefix + 1 in
  if
    String.length file = pl + 10
    && String.sub file 0 pl = prefix ^ "-"
    && Filename.check_suffix file ".log"
  then int_of_string_opt (String.sub file pl 6)
  else None

let list dir prefix =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun file ->
         Option.map (fun n -> (n, file)) (parse_name prefix file))
  |> List.sort compare

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --- Appending -------------------------------------------------------------- *)

type writer = {
  dir : string;
  prefix : string;
  segment_bytes : int;
  mutable number : int;
  mutable out : (Unix.file_descr * out_channel) option;
  mutable written : int;
}

let writer ~dir ~prefix ~segment_bytes number =
  { dir; prefix; segment_bytes; number; out = None; written = 0 }

let close w =
  let out = w.out in
  w.out <- None;
  Option.iter (fun (_, oc) -> close_out oc) out

let seal w =
  close w;
  w.number <- w.number + 1;
  w.written <- 0

(* Every I/O failure of an append is a [Sys_error], as a channel write's
   is: callers that must survive a failing disk catch that one type. *)
let sys f =
  try f () with Unix.Unix_error (e, fn, arg) ->
    raise (Sys_error ((if arg = "" then fn else arg) ^ ": " ^ Unix.error_message e))

let channel w =
  match w.out with
  | Some out -> out
  | None ->
    let path = Filename.concat w.dir (name w.prefix w.number) in
    let fd = sys (fun () -> Unix.openfile path [ O_WRONLY; O_CREAT; O_APPEND ] 0o644) in
    w.out <- Some (fd, Unix.out_channel_of_descr fd);
    Option.get w.out

let append ?sync ?(seal_each = false) w payloads =
  let records = List.map Record.frame payloads and sealed = ref false in
  let seal_if_full () = if w.written >= w.segment_bytes then (seal w; sealed := true) in
  List.iter
    (fun record ->
      output_string (snd (channel w)) record;
      w.written <- w.written + String.length record;
      if seal_each then seal_if_full ())
    records;
  Option.iter
    (fun (fd, oc) ->
      flush oc;
      Option.iter (fun sync -> sync (fun () -> sys (fun () -> Unix.fsync fd))) sync)
    w.out;
  seal_if_full ();
  (List.fold_left (fun n record -> n + String.length record) 0 records, !sealed)

let fsync_dir dir =
  match Unix.openfile dir [ O_RDONLY ] 0 with
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    Unix.close fd
  | exception Unix.Unix_error _ -> ()

let write_atomic ~dir ~prefix number payload items =
  let tmp = Filename.concat dir (prefix ^ ".tmp") in
  let fd = Unix.openfile tmp [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let oc = Unix.out_channel_of_descr fd in
  List.iter (fun item -> output_string oc (Record.frame (payload item))) items;
  flush oc;
  Unix.fsync fd;
  close_out oc;
  Sys.rename tmp (Filename.concat dir (name prefix number));
  fsync_dir dir

let number w = w.number
let position w = (name w.prefix w.number, w.written)

(* --- Reading ---------------------------------------------------------------- *)

type ending =
  | End
  | Torn of { offset : int; reason : string }
  | Corrupt of { offset : int; reason : string }

let walk buf f =
  let rec go offset =
    match Record.read buf offset with
    | Record.Record { payload; next } ->
      f offset payload;
      go next
    | Record.End -> End
    | Record.Torn { offset; reason } -> Torn { offset; reason }
    | Record.Corrupt { offset; reason } -> Corrupt { offset; reason }
  in
  go 0

type damage = { file : string; offset : int; reason : string }
type verdict = Clean | Crash_tail of damage | Damaged of damage

let judge ~file ~last = function
  | End -> Clean
  | Torn { offset; reason } when last -> Crash_tail { file; offset; reason }
  | Torn { offset; reason } ->
    Damaged { file; offset; reason = "torn mid-log: " ^ reason }
  | Corrupt { offset; reason } -> Damaged { file; offset; reason }

(* Only the file the writer appends to can be torn by a crash: the
   chain's final file, and only when it is a segment of the [appended]
   family — a snapshot is renamed into place whole. *)
let walk_chain ?unreadable ~appended dir files record on_file =
  let final = List.length files - 1 in
  List.iteri
    (fun i file ->
      match read_file (Filename.concat dir file) with
      | buf ->
        let last = i = final && parse_name appended file <> None in
        on_file file (String.length buf) (judge ~file ~last (walk buf (record file)))
      | exception Sys_error m -> (
        match unreadable with Some f -> f file m | None -> raise (Sys_error m)))
    files

let tail_note d =
  Printf.sprintf
    "torn tail in %s at byte %d (%s): crash damage; recovery truncates it"
    d.file d.offset d.reason
