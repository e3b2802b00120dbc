(** The client side of the TCP transport: turn a [HOST:PORT] argument
    into a connected socket. [pet ping], [pet corpus drive] and
    [pet top] all dial through here. *)

val connect :
  ?resolve:(string -> Unix.inet_addr option) ->
  string ->
  (Unix.file_descr, string) result
(** Parse [HOST:PORT] (an empty host or [localhost] means 127.0.0.1;
    the last [:] splits, so the port is whatever follows it), resolve
    the host and connect. Numeric hosts are used as they are; any other
    name goes through [resolve] (default: the system resolver). The
    [Error] is the message the CLI prints: [ADDR: expected HOST:PORT],
    [cannot resolve host H] or [cannot connect to H:P: REASON]. *)
