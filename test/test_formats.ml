(* Golden on-disk formats. A fixed drive workload is replayed on a fresh
   disk and one block of every self-checking kind is digested: an audit
   block, a journal block, a segment summary, a dedicated
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
  | Tag.Audit when magic = 0x5542 -> Some "audit block"
  | Tag.Journal -> Some "journal block"
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

let pinned =
  [
    ("audit block", "bea1822a61e00b3812214b54eb4b74a3dae7b77f1ce1b3df77961a35d3651797");
    ("checkpoint chunk", "f35f447f8f49e10370b4213247f02d56866fe76f390552e6b57da202876f6b4b");
    ("checkpoint pack", "2f1cd8555b7bd5412e801fbbb92697e8b493d13ce6b31ed56f3e99b7c4901e6c");
    ("image", "7427262ba6cc191436a6def02f2899c7973f3f6342d9d834d1cde89fda7a9847");
    ("journal block", "ca44b072ea14d3bafd66e74e54b17de0b727192c56319ed4f7c60c9148fb074d");
    ("summary", "88c61230229dcf8b42a875c743995955ffada0ae89b6c35466498eedfad4523d");
  ]

let test_golden () =
  check Alcotest.(list (pair string string)) "digests" pinned (golden_digests (golden_drive ()))

let () = Alcotest.run "s4_formats" [ ("golden", [ Alcotest.test_case "on-disk bytes" `Quick test_golden ]) ]
