(* Golden on-disk formats. A fixed drive workload is replayed on a fresh
   disk and one block of every self-checking kind is digested: a
   journal block, a journal block carrying a sealed audit tail, one
   carrying an unsealed audit tail, a segment summary, a dedicated
   checkpoint chunk and a checkpoint pack, plus the whole image. The
   pinned digests fix the bytes of this on-disk layout: a change to any
   encoder, to the CRC or to the block framing shows here as a digest
   mismatch. *)

module Simclock = S4_util.Simclock
module Sha256 = S4_util.Sha256
module Bcodec = S4_util.Bcodec
module Geometry = S4_disk.Geometry
module Sim_disk = S4_disk.Sim_disk
module Log = S4_seglog.Log
module Tag = S4_seglog.Tag
module Store = S4_store.Obj_store
module Rpc = S4.Rpc
module Drive = S4.Drive
module Audit = S4.Audit

let check = Alcotest.check
let mb = 1024 * 1024

(* Deterministic content: every byte depends on its position and the
   object, so a misplaced block changes the image digest. *)
let pattern ~salt len = Bytes.init len (fun i -> Char.chr ((i * 31 + salt * 7 + (i lsr 9)) land 0xFF))

let golden_drive () =
  let clock = Simclock.create () in
  let disk = Sim_disk.create ~geometry:(Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(16 * mb)) clock in
  let d = Drive.format disk in
  let cred = Rpc.admin_cred in
  let rpc req =
    match Drive.handle d cred req with
    | Rpc.R_error e -> Alcotest.failf "golden workload: %a" Rpc.pp_resp (Rpc.R_error e)
    | r -> r
  in
  let create () = match rpc (Rpc.Create { acl = [] }) with Rpc.R_oid o -> o | _ -> assert false in
  let write oid ~off data = ignore (rpc (Rpc.Write { oid; off; len = Bytes.length data; data = Some data })) in
  let smalls = List.init 6 (fun _ -> create ()) in
  List.iteri (fun i oid -> write oid ~off:0 (pattern ~salt:i (300 + (97 * i)))) smalls;
  (* Enough audited reads between two barriers to fill the audit buffer
     once: it goes out as an unsealed tail in a journal block with no
     entries. *)
  for i = 1 to 240 do
    let oid = List.nth smalls (i mod 6) in
    ignore (rpc (Rpc.Get_attr { oid; at = None }))
  done;
  ignore (rpc Rpc.Sync);
  (* 3 MB: closes several segments (summaries) and gives the object a
     block table too large for a pack, so its image is chunked. *)
  let big = create () in
  write big ~off:0 (pattern ~salt:99 (3 * mb));
  List.iteri (fun i oid -> write oid ~off:100 (pattern ~salt:(50 + i) 64)) smalls;
  ignore (rpc Rpc.Sync);
  let store = Drive.store d in
  Store.checkpoint_object store big;
  List.iter (Store.checkpoint_object store) smalls;
  ignore (rpc Rpc.Sync);
  d

let kind_of log addr tag =
  let b = Log.peek log addr in
  let magic = Bcodec.get_u16 b 0 in
  match tag with
  | Tag.Journal -> (
    match Audit.decode_block b with
    | Some { Audit.seal = None; _ } -> Some "journal block with unsealed audit tail"
    | Some _ -> Some "journal block with audit tail"
    | None -> Some "journal block")
  | Tag.Checkpoint _ when magic = 0x4B43 -> Some "checkpoint chunk"
  | Tag.Ckpack when magic = 0x504B -> Some "checkpoint pack"
  | _ -> None

(* The first block of each kind, by address, as (kind, hex digest). *)
let golden_digests d =
  let log = Drive.log d in
  let firsts = Hashtbl.create 8 in
  List.iter
    (fun (addr, tag) ->
      match kind_of log addr tag with
      | Some k when not (Hashtbl.mem firsts k) ->
        Hashtbl.replace firsts k (Sha256.to_hex (Sha256.digest_bytes (Log.peek log addr)))
      | _ -> ())
    (Log.all_tagged log);
  (* Segment 0's summary slot: the first closed data segment. *)
  let bps = Log.blocks_per_segment log in
  let summary = Log.peek log ((2 * bps) - 1) in
  check Alcotest.bool "summary decodes" true (S4_seglog.Summary.decode summary <> None);
  Hashtbl.replace firsts "summary" (Sha256.to_hex (Sha256.digest_bytes summary));
  let disk = Log.disk log in
  Hashtbl.replace firsts "image"
    (Sha256.to_hex (Sha256.digest_bytes (Sim_disk.peek disk ~lba:0 ~sectors:(Sim_disk.capacity_sectors disk))));
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) firsts [])

(* The unsealed tail is the golden workload's one buffer-full flush, in
   a journal block with no entries; every barrier's records ride sealed
   in its journal block. The plain journal block's digest is the one
   pinned before tails existed. *)
let pinned =
  [
    ("checkpoint chunk", "90b287f26050f9262b48f99a674fea32b5ae5b1cc1fda09de228bd989aea1cb2");
    ("checkpoint pack", "2f1cd8555b7bd5412e801fbbb92697e8b493d13ce6b31ed56f3e99b7c4901e6c");
    ("image", "2902606d40c390ff75484bbd4bbf17108419ba01e2a80f1ac8f707c3ad0de7ff");
    ("journal block", "ca44b072ea14d3bafd66e74e54b17de0b727192c56319ed4f7c60c9148fb074d");
    ("journal block with audit tail", "5c5e9547a07e6d31d9693909ca1db60e22f0545e87d588cae5e0f66435b814fb");
    ("journal block with unsealed audit tail", "cd544fe3f7e799aa7310df3b323908b6504c7561d60bfa5769c7b13be04857e7");
    ("summary", "bd8d0bb5d09ab2030d2b422fd76b3401a89c696c05f9dbd42427de2e818d3146");
  ]

let test_golden () =
  check Alcotest.(list (pair string string)) "digests" pinned (golden_digests (golden_drive ()))

let () = Alcotest.run "s4_formats" [ ("golden", [ Alcotest.test_case "on-disk bytes" `Quick test_golden ]) ]
