module Bcodec = S4_util.Bcodec
module Sha256 = S4_util.Sha256

(* A tamper-evident hash chain over the audit trail. Each audit record
   extends a running SHA-256 head:

     head_{i+1} = SHA256(head_i || canonical_encoding(record_i))

   and the last block of every durability barrier's flush carries the
   head after its own records, under the next epoch number (the
   adaptive-crash-attack construction: records and their seal reach
   the disk in one block write, so a crash, or an attacker faking one,
   can only truncate the chain to a shorter prefix — it cannot fork a
   sealed prefix without breaking the hash).

   Verification is a pure state machine over [item]s so it can be
   exercised by qcheck without a log underneath. *)

type head = { epoch : int; records : int; hash : string }

let hash_len = 32
let genesis_hash = Sha256.digest_string "s4-audit-chain-genesis-v1"
let genesis = { epoch = 0; records = 0; hash = genesis_hash }

(* One spare hashing context, taken and given back with an atomic
   swap: the chain step allocates no hashing state, and a caller on
   another domain or thread that finds the spare taken hashes with a
   fresh context instead of sharing it. *)
let spare = Atomic.make None

let extend prev canon =
  let slot = Atomic.exchange spare None in
  let ctx =
    match slot with
    | Some ctx ->
      Sha256.reset ctx;
      ctx
    | None -> Sha256.init ()
  in
  Sha256.feed_string ctx prev;
  Sha256.feed ctx canon;
  let head = Sha256.finish ctx in
  Atomic.set spare (match slot with Some _ -> slot | None -> Some ctx);
  head

let extend_all prev canons = List.fold_left extend prev canons

let equal_head a b = a.epoch = b.epoch && a.records = b.records && String.equal a.hash b.hash

let short_hex h =
  let hex = Sha256.to_hex h in
  if String.length hex > 12 then String.sub hex 0 12 else hex

let pp_head ppf h =
  Format.fprintf ppf "epoch %d, %d records, %s" h.epoch h.records (short_hex h.hash)

let write_head w h =
  Bcodec.w_int w h.epoch;
  Bcodec.w_int w h.records;
  if String.length h.hash <> hash_len then invalid_arg "Chain.write_head: bad hash length";
  Bcodec.w_raw w (Bytes.of_string h.hash)

let read_head r =
  let epoch = Bcodec.r_int r in
  let records = Bcodec.r_int r in
  let hash = Bytes.to_string (Bcodec.r_raw r hash_len) in
  if epoch < 0 || records < 0 then raise (Bcodec.Decode_error "Chain.read_head: negative field");
  { epoch; records; hash }

(* ------------------------------------------------------------------ *)
(* Verification                                                        *)

type block = { b_start : int; b_prior : string; b_canons : Bytes.t list; b_seal : head option }

type item =
  | Block of block
      (** A persisted audit block: global index of its first record,
          the chain head before that record, the canonical encodings of
          its records in order, and the seal it carries, if any. *)
  | Bad of string  (** A log block that should have decoded but did not. *)

type verify_result = {
  v_records : int;  (** records covered by the chain walk *)
  v_sealed : int;  (** records protected by an intact seal *)
  v_epochs : int;  (** sealed blocks seen *)
  v_head : head option;  (** head after the newest record, if any walked *)
  v_tail : int;  (** records past the newest seal (legit crash loss zone) *)
  v_pruned : int;  (** records before the earliest surviving block *)
  v_first_bad : int;  (** global index of the first provably bad record; -1 = none *)
  v_errors : string list;
}

let clean r = r.v_errors = []

let pp_result ppf r =
  Format.fprintf ppf "%d records (%d sealed over %d epochs, %d tail, %d pruned)%s" r.v_records
    r.v_sealed r.v_epochs r.v_tail r.v_pruned
    (match r.v_errors with
     | [] -> ": chain intact"
     | es -> Printf.sprintf ": %d violations" (List.length es));
  List.iter (fun e -> Format.fprintf ppf "@.  %s" e) r.v_errors

(* Walk the blocks in record order, checking each seal against the
   walked head as it passes and noting the head at the caller's anchor.
   A record-less block (a prune floor, or a seal over a recovered tail)
   sits at a block boundary, so it walks before the block that starts
   there. Anomalies adopt the block's own declared prior (or sealed
   head) and continue, so one tampered region yields one localized
   error instead of cascading mismatches. *)
let verify ?from ?(lenient_tail = false) items =
  let errors = ref [] in
  let first_bad = ref (-1) in
  let err ?at fmt =
    Format.kasprintf
      (fun m ->
        errors := m :: !errors;
        match at with
        | Some i when !first_bad = -1 || i < !first_bad -> first_bad := i
        | _ -> ())
      fmt
  in
  let blocks =
    List.filter_map (function Block b -> Some b | Bad _ -> None) items
    |> List.stable_sort (fun a b -> compare (a.b_start, a.b_canons <> []) (b.b_start, b.b_canons <> []))
  in
  let bads = List.filter_map (function Bad reason -> Some reason | Block _ -> None) items in
  let start = match blocks with [] -> 0 | b :: _ -> b.b_start in
  let pruned = start in
  let idx = ref start in
  let hash = ref (match blocks with [] -> genesis_hash | b :: _ -> b.b_prior) in
  let anchor = ref None in
  let note () = match from with Some f when f.records = !idx -> anchor := Some !hash | _ -> () in
  note ();
  let sealed = ref 0 in
  let last_epoch = ref 0 in
  let epochs = ref 0 in
  List.iter
    (fun b ->
      let process =
        if b.b_start > !idx then begin
          err ~at:!idx "chain: records [%d, %d) missing from the log" !idx b.b_start;
          idx := b.b_start;
          hash := b.b_prior;
          true
        end
        else if b.b_start < !idx then begin
          err ~at:b.b_start "chain: audit block at record %d overlaps already-walked records"
            b.b_start;
          false
        end
        else begin
          if not (String.equal b.b_prior !hash) then begin
            err ~at:b.b_start "chain: prior head of block at record %d does not extend the chain"
              b.b_start;
            hash := b.b_prior
          end;
          true
        end
      in
      if process then begin
        List.iter
          (fun canon ->
            hash := extend !hash canon;
            incr idx;
            note ())
          b.b_canons;
        match b.b_seal with
        | None -> ()
        | Some h ->
          incr epochs;
          if h.epoch <= !last_epoch then
            err "chain: seal epoch %d does not increase (fork or replayed seal)" h.epoch
          else last_epoch := h.epoch;
          if not (String.equal h.hash !hash) then begin
            err ~at:(max !sealed start)
              "chain: seal epoch %d hash mismatch at record %d (records [%d, %d) tampered)" h.epoch
              !idx (max !sealed start) !idx;
            hash := h.hash
          end;
          sealed := !idx
      end)
    blocks;
  let total = !idx in
  (* An undecodable block is tampering unless the caller accepts a torn
     tail: a seal travels in the block holding the records it covers,
     so a torn final flush can only shorten the chain, and a wreck
     anywhere else leaves a gap the walk has already reported. *)
  if not lenient_tail then List.iter (fun reason -> err "chain: %s" reason) bads;
  (* Anchor: a previously trusted head must still lie on this chain. *)
  (match from with
   | None -> ()
   | Some f when f.records = 0 -> ()
   | Some f ->
     if f.records > total then
       err ~at:total "chain: trusted head at record %d is beyond the recovered log (%d records): rollback"
         f.records total
     else if f.records < start then
       err "chain: trusted head at record %d predates the earliest surviving record %d; cannot \
            validate the anchor"
         f.records start
     else (
       match !anchor with
       | Some walked when not (String.equal walked f.hash) ->
         err ~at:0 "chain: trusted head at record %d is not on this chain: history was rewritten"
           f.records
       | _ ->
         if f.epoch > !last_epoch then
           err "chain: trusted head epoch %d is newer than every recovered seal (epoch %d): \
                rollback"
             f.epoch !last_epoch));
  {
    v_records = total - pruned;
    v_sealed = max 0 (!sealed - pruned);
    v_epochs = !epochs;
    v_head =
      (if total > pruned || blocks <> [] then Some { epoch = !last_epoch; records = total; hash = !hash }
       else None);
    v_tail = max 0 (total - max !sealed pruned);
    v_pruned = pruned;
    v_first_bad = !first_bad;
    v_errors = List.rev !errors;
  }

(* Wire/persist codec for a whole result (used by the verify-log RPC). *)

let write_result w r =
  Bcodec.w_int w r.v_records;
  Bcodec.w_int w r.v_sealed;
  Bcodec.w_int w r.v_epochs;
  (match r.v_head with
   | None -> Bcodec.w_u8 w 0
   | Some h ->
     Bcodec.w_u8 w 1;
     write_head w h);
  Bcodec.w_int w r.v_tail;
  Bcodec.w_int w r.v_pruned;
  Bcodec.w_int w (r.v_first_bad + 1);
  Bcodec.w_int w (List.length r.v_errors);
  List.iter (fun e -> Bcodec.w_string w e) r.v_errors

let read_result ?(max_errors = 4096) rd =
  let v_records = Bcodec.r_int rd in
  let v_sealed = Bcodec.r_int rd in
  let v_epochs = Bcodec.r_int rd in
  let v_head = match Bcodec.r_u8 rd with 0 -> None | _ -> Some (read_head rd) in
  let v_tail = Bcodec.r_int rd in
  let v_pruned = Bcodec.r_int rd in
  let v_first_bad = Bcodec.r_int rd - 1 in
  let n = Bcodec.r_int rd in
  if n < 0 || n > max_errors || n > Bcodec.remaining rd then
    raise (Bcodec.Decode_error "Chain.read_result: bad error count");
  let v_errors = List.init n (fun _ -> Bcodec.r_string rd) in
  { v_records; v_sealed; v_epochs; v_head; v_tail; v_pruned; v_first_bad; v_errors }
