let split addr =
  match String.rindex_opt addr ':' with
  | None -> None
  | Some i ->
    let host = String.sub addr 0 i in
    let host = if host = "" || host = "localhost" then "127.0.0.1" else host in
    Option.map
      (fun port -> (host, port))
      (int_of_string_opt (String.sub addr (i + 1) (String.length addr - i - 1)))

let system_resolve host =
  match (Unix.gethostbyname host).h_addr_list with
  | [||] -> None
  | addrs -> Some addrs.(0)
  | exception Not_found -> None

let connect ?(resolve = system_resolve) addr =
  match split addr with
  | None -> Error (Printf.sprintf "%s: expected HOST:PORT" addr)
  | Some (host, port) -> (
    let inet =
      match Unix.inet_addr_of_string host with
      | inet -> Some inet
      | exception Failure _ -> resolve host
    in
    match inet with
    | None -> Error (Printf.sprintf "cannot resolve host %s" host)
    | Some inet -> (
      let fd = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
      match Unix.connect fd (ADDR_INET (inet, port)) with
      | () -> Ok fd
      | exception Unix.Unix_error (e, _, _) ->
        Unix.close fd;
        Error
          (Printf.sprintf "cannot connect to %s:%d: %s" host port
             (Unix.error_message e))))
