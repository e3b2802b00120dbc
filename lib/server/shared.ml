module Ledger = Pet_pet.Ledger

type t = {
  m : Mutex.t;
  texts : (string, string) Hashtbl.t;
  ledgers : (string, Ledger.t) Hashtbl.t;
  consents : Consent.t;
      (* consent lifecycle state is process-wide like the ledgers: a
         revocation must reach the grant whichever shard recorded it *)
  mutable accounts : Accounting.t list;  (* in registration order *)
  mutable counters : (unit -> (string * int) list) list;  (* likewise *)
}

let create () =
  {
    m = Mutex.create ();
    texts = Hashtbl.create 8;
    ledgers = Hashtbl.create 8;
    consents = Consent.create ();
    accounts = [];
    counters = [];
  }

let consents t = t.consents

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let remember_text t ~digest ~text =
  locked t @@ fun () ->
  if Hashtbl.mem t.texts digest then false
  else begin
    Hashtbl.replace t.texts digest text;
    true
  end

let find_text t digest = locked t (fun () -> Hashtbl.find_opt t.texts digest)

let with_ledger t digest f =
  locked t @@ fun () ->
  let ledger =
    match Hashtbl.find_opt t.ledgers digest with
    | Some ledger -> ledger
    | None ->
      let ledger = Ledger.create () in
      Hashtbl.add t.ledgers digest ledger;
      ledger
  in
  f ledger

let ledger_count t = locked t (fun () -> Hashtbl.length t.ledgers)

let fold_ledgers t f init =
  locked t (fun () -> Hashtbl.fold f t.ledgers init)

let register_accounts t accounts =
  locked t (fun () -> t.accounts <- t.accounts @ [ accounts ])

let accounts t = locked t (fun () -> t.accounts)

let register_counters t read =
  locked t (fun () -> t.counters <- t.counters @ [ read ])

let counters t = locked t (fun () -> t.counters)
