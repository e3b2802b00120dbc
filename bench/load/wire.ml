(* Request lines and cheap reply scans for the line protocol.

   The generator shares two cores with the server, so replies are not
   parsed into a tree: every reply starts [{"pet":1,"id":N,...}] and the
   scans below read the few fields the flows need. Correctness checks
   that compare payloads use the raw bytes of the ["ok"] value, which the
   server always writes last. *)

let quote s = Pet_pet.Json.to_string (Pet_pet.Json.String s)

let request ~id meth params =
  Printf.sprintf {|{"pet":1,"id":%d,"method":"%s","params":{%s}}|} id meth params

(* The offset just past the first occurrence of [pat] at or after
   [from]. *)
let find s pat from =
  let n = String.length s and m = String.length pat in
  let rec matches i j = j = m || (s.[i + j] = pat.[j] && matches i (j + 1)) in
  let rec go i =
    if i + m > n then None else if matches i 0 then Some (i + m) else go (i + 1)
  in
  go from

let digits s i =
  let n = String.length s in
  let rec go j = if j < n && s.[j] >= '0' && s.[j] <= '9' then go (j + 1) else j in
  let j = go i in
  if j = i then None else int_of_string_opt (String.sub s i (j - i))

let reply_id line = Option.bind (find line {|"id":|} 0) (digits line)

let string_at line i =
  Option.map (fun j -> String.sub line i (j - i)) (String.index_from_opt line i '"')

(* The value of the first ["key":"..."] pair (no escapes in the ids and
   codes this is used for). *)
let string_field line key =
  Option.bind (find line (Printf.sprintf {|"%s":"|} key) 0) (string_at line)

(* Replies carry the envelope fields before the result, so the outcome
   is known from the first ["ok":] or ["error":] key, without scanning
   a long report. *)
let error_code line =
  let rec go i =
    match String.index_from_opt line i '"' with
    | None -> None
    | Some j ->
      if String.length line >= j + 5 && String.sub line j 5 = {|"ok":|} then None
      else if String.length line >= j + 17 && String.sub line j 17 = {|"error":{"code":"|} then
        string_at line (j + 17)
      else go (j + 1)
  in
  go 0

let ok_payload line =
  match find line {|,"ok":|} 0 with
  | Some i when String.length line > i && line.[String.length line - 1] = '}' ->
    Some (String.sub line i (String.length line - 1 - i))
  | _ -> None
