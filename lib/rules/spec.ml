module F = Pet_logic.Formula
module Parse = Pet_logic.Parse
module Universe = Pet_valuation.Universe

type draft = {
  mutable form : string list option;
  mutable benefits : string list option;
  mutable rules : (string * F.t) list; (* reversed *)
  mutable constraints : F.t list; (* reversed *)
}

exception Fail of string

let fail lineno fmt =
  Printf.ksprintf (fun m -> raise (Fail (Printf.sprintf "line %d: %s" lineno m))) fmt

let words line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (( <> ) "")

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let parse_formula lineno text =
  match Parse.formula_result text with
  | Ok f -> f
  | Error m -> fail lineno "%s" m

(* Split "name := formula" after a keyword. *)
let parse_rule_line lineno rest =
  match String.index_opt rest ':' with
  | Some i
    when i + 1 < String.length rest
         && rest.[i + 1] = '='
         && String.trim (String.sub rest 0 i) <> "" ->
    let name = String.trim (String.sub rest 0 i) in
    let body = String.sub rest (i + 2) (String.length rest - i - 2) in
    if String.trim body = "" then fail lineno "empty rule body";
    (name, parse_formula lineno body)
  | _ -> fail lineno "expected 'rule <benefit> := <formula>'"

let parse input =
  let draft = { form = None; benefits = None; rules = []; constraints = [] } in
  try
    List.iteri
      (fun i line ->
        let lineno = i + 1 in
        let line = String.trim (strip_comment line) in
        if line <> "" then
          match words line with
          | "form" :: names ->
            if draft.form <> None then fail lineno "duplicate 'form'";
            if names = [] then fail lineno "'form' needs at least one name";
            draft.form <- Some names
          | "benefits" :: names ->
            if draft.benefits <> None then fail lineno "duplicate 'benefits'";
            if names = [] then fail lineno "'benefits' needs at least one name";
            draft.benefits <- Some names
          | "rule" :: _ ->
            let rest =
              String.trim (String.sub line 4 (String.length line - 4))
            in
            draft.rules <- parse_rule_line lineno rest :: draft.rules
          | "constraint" :: _ ->
            let rest =
              String.trim (String.sub line 10 (String.length line - 10))
            in
            if rest = "" then fail lineno "empty constraint";
            draft.constraints <- parse_formula lineno rest :: draft.constraints
          | keyword :: _ -> fail lineno "unknown declaration %S" keyword
          | [] -> ())
      (String.split_on_char '\n' input);
    let form =
      match draft.form with
      | Some f -> f
      | None -> raise (Fail "missing 'form' declaration")
    in
    let benefits =
      match draft.benefits with
      | Some b -> b
      | None -> raise (Fail "missing 'benefits' declaration")
    in
    let xp =
      try Universe.of_names form
      with Invalid_argument m -> raise (Fail m)
    in
    let xb =
      try Universe.of_names benefits
      with Invalid_argument m -> raise (Fail m)
    in
    let rules =
      List.rev_map
        (fun (benefit, f) -> Rule.of_formula ~benefit f)
        draft.rules
    in
    match
      Exposure.create ~xp ~xb ~rules
        ~constraints:(List.rev draft.constraints) ()
    with
    | e -> Ok e
    | exception Invalid_argument m -> Error m
  with Fail m -> Error m

let parse_exn input =
  match parse input with Ok e -> e | Error m -> invalid_arg m

(* The canonical text, built in one buffer: tenant digests are taken over
   it, and a publish line pays for every word it allocates. *)
let to_string e =
  let b = Buffer.create 512 in
  let words prefix names =
    Buffer.add_string b prefix;
    List.iteri
      (fun i w ->
        if i > 0 then Buffer.add_char b ' ';
        Buffer.add_string b w)
      names;
    Buffer.add_char b '\n'
  in
  words "form " (Universe.names (Exposure.xp e));
  words "benefits " (Universe.names (Exposure.xb e));
  List.iter
    (fun (r : Rule.t) ->
      Buffer.add_string b "rule ";
      Buffer.add_string b r.benefit;
      Buffer.add_string b " := ";
      Pet_logic.Dnf.add_to_buffer b r.dnf;
      Buffer.add_char b '\n')
    (Exposure.rules e);
  List.iter
    (fun c ->
      Buffer.add_string b "constraint ";
      F.add_to_buffer b c;
      Buffer.add_char b '\n')
    (Exposure.constraints e);
  Buffer.contents b

let print ppf e = Fmt.string ppf (to_string e)
