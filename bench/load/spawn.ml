(* The server under test: the shipped [pet serve] binary, spawned as its
   own process on a data directory, found through its port file and
   stopped with SIGTERM (every acknowledged event is already fsynced, so
   the data directory stays valid). *)

type t = { pid : int; port : int; dir : string }

(* Servers started and not yet stopped, so that a failed run can still
   stop them before it exits. *)
let running : (int, unit) Hashtbl.t = Hashtbl.create 4

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ()
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Bytes held by the regular files of a directory. *)
let dir_bytes dir =
  Array.fold_left
    (fun n e ->
      match Unix.stat (Filename.concat dir e) with
      | { Unix.st_kind = S_REG; st_size; _ } -> n + st_size
      | _ -> n)
    0 (Sys.readdir dir)

let exited pid =
  match Unix.waitpid [ WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (ECHILD, _, _) -> true

let stop_pid pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  Hashtbl.remove running pid

(* Start [pet serve] on [dir] (kept as is: a restart recovers it) and
   wait for its port file. Returns [Error] if the server exits first or
   does not listen within a minute. *)
let start ~pet dir =
  mkdir_p (Filename.dirname dir);
  let port_file = dir ^ ".port" in
  (try Sys.remove port_file with Sys_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ O_RDWR; O_CLOEXEC ] 0 in
  let log = Unix.openfile (dir ^ ".log") [ O_WRONLY; O_CREAT; O_APPEND; O_CLOEXEC ] 0o644 in
  let pid =
    Unix.create_process pet
      [| pet; "serve"; "--tcp"; "0"; "--domains"; "2"; "--data-dir"; dir; "--port-file"; port_file |]
      devnull devnull log
  in
  Unix.close devnull;
  Unix.close log;
  Hashtbl.replace running pid ();
  let deadline = Sched.now () +. 60. in
  let rec wait () =
    match read_file port_file with
    | s when String.contains s '\n' -> Ok { pid; port = int_of_string (String.trim s); dir }
    | _ | (exception Sys_error _) ->
      if exited pid then begin
        Hashtbl.remove running pid;
        Error (Printf.sprintf "pet serve exited before listening:\n%s" (try read_file (dir ^ ".log") with Sys_error m -> m))
      end
      else if Sched.now () > deadline then begin
        stop_pid pid;
        Error "pet serve did not listen in time"
      end
      else (Unix.sleepf 0.001; wait ())
  in
  wait ()

(* Peak resident set of a process, MiB ([VmHWM] in /proc). *)
let vmhwm_mib pid =
  let status = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find (String.starts_with ~prefix:"VmHWM:") (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* CPU seconds a process has used, all threads: utime + stime from
   /proc, in clock ticks of 1/100 s (Linux's fixed USER_HZ). *)
let cpu_seconds pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* fields after the parenthesised command name, which may hold spaces *)
  let from = String.rindex stat ')' + 2 in
  let f = Array.of_list (String.split_on_char ' ' (String.sub stat from (String.length stat - from))) in
  float_of_string (f.(11)) /. 100. +. float_of_string (f.(12)) /. 100.

let stop t = stop_pid t.pid

let stop_all () = List.iter stop_pid (List.of_seq (Hashtbl.to_seq_keys running))

(* Run a command to completion and return its standard output, captured
   through the file [out]. *)
let run_capture ~out prog args =
  let fd = Unix.openfile out [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ O_RDWR; O_CLOEXEC ] 0 in
  let pid = Unix.create_process prog (Array.of_list (prog :: args)) devnull fd devnull in
  Unix.close fd;
  Unix.close devnull;
  ignore (Unix.waitpid [] pid);
  read_file out
