(* Differential testing: the S4-backed NFS systems and the
   update-in-place comparison servers implement the same NFSv2
   semantics, so any random operation sequence must leave all four
   systems with identical observable state (namespace, contents,
   sizes) and produce the same per-operation outcome. *)

module Rng = S4_util.Rng
module N = S4_nfs.Nfs_types
module Server = S4_nfs.Server
module Systems = S4_workload.Systems

let check = Alcotest.check
let qtest = Qseed.qtest

(* Content-retaining, serial-pinned config: this suite asserts the
   serial bit-identity contracts, so the [S4_DOMAINS] environment knob
   must not leak in (the domains group below opts in explicitly). *)
let ccfg mb =
  {
    Systems.Config.serial with
    Systems.Config.disk_mb = Some mb;
    drive_config = Systems.content_drive_config;
  }

(* Abstract operations over a small fixed namespace. *)
type aop =
  | Acreate of int * int  (* dir index, file index *)
  | Awrite of int * int * int * int * char
  | Atruncate of int * int * int
  | Aremove of int * int
  | Arename of int * int * int * int
  | Amkdir_file_clash of int * int  (* mkdir with a file's name *)
  | Aread of int * int

let dir_name i = Printf.sprintf "dir%d" i
let file_name i = Printf.sprintf "file%d" i

let outcome_string = function
  | N.R_attr a -> Printf.sprintf "attr:%d" a.N.size
  | N.R_fh (_, a) -> Printf.sprintf "fh:%d" a.N.size
  | N.R_data b -> Printf.sprintf "data:%s" (Digest.to_hex (Digest.bytes b))
  | N.R_entries es ->
    Printf.sprintf "entries:%s" (String.concat "," (List.sort compare (List.map (fun e -> e.N.name) es)))
  | N.R_link s -> "link:" ^ s
  | N.R_unit -> "ok"
  | N.R_statfs _ -> "statfs"
  | N.R_error e -> Format.asprintf "error:%a" N.pp_error e

(* Apply one abstract op; returns a string outcome for comparison. *)
let apply sys dirs op =
  let handle req = sys.Systems.server.Server.handle req in
  let lookup d n =
    match handle (N.Lookup { dir = dirs.(d); name = file_name n }) with
    | N.R_fh (fh, a) -> Some (fh, a)
    | _ -> None
  in
  match op with
  | Acreate (d, n) -> outcome_string (handle (N.Create { dir = dirs.(d); name = file_name n; mode = 0o644 }))
  | Awrite (d, n, off, len, c) ->
    (match lookup d n with
     | Some (fh, _) -> outcome_string (handle (N.Write { fh; off; data = Bytes.make len c }))
     | None -> "no-file")
  | Atruncate (d, n, size) ->
    (match lookup d n with
     | Some (fh, _) -> outcome_string (handle (N.Setattr { fh; mode = None; size = Some size }))
     | None -> "no-file")
  | Aremove (d, n) -> outcome_string (handle (N.Remove { dir = dirs.(d); name = file_name n }))
  | Arename (d1, n1, d2, n2) ->
    outcome_string
      (handle
         (N.Rename
            { from_dir = dirs.(d1); from_name = file_name n1; to_dir = dirs.(d2); to_name = file_name n2 }))
  | Amkdir_file_clash (d, n) ->
    outcome_string (handle (N.Mkdir { dir = dirs.(d); name = file_name n; mode = 0o755 }))
  | Aread (d, n) ->
    (match lookup d n with
     | Some (fh, a) -> outcome_string (handle (N.Read { fh; off = 0; len = a.N.size }))
     | None -> "no-file")

(* Observable final state: sorted (dir, name, size, content digest). *)
let snapshot sys dirs =
  let handle req = sys.Systems.server.Server.handle req in
  List.concat
    (List.mapi
       (fun d dir ->
         match handle (N.Readdir dir) with
         | N.R_entries es ->
           List.map
             (fun (e : N.dirent) ->
               match handle (N.Getattr e.N.fh) with
               | N.R_attr a ->
                 let digest =
                   match handle (N.Read { fh = e.N.fh; off = 0; len = a.N.size }) with
                   | N.R_data b -> Digest.to_hex (Digest.bytes b)
                   | _ -> "?"
                 in
                 Printf.sprintf "%d/%s size=%d %s" d e.N.name a.N.size digest
               | _ -> Printf.sprintf "%d/%s ?" d e.N.name)
             es
         | _ -> [ Printf.sprintf "%d unreadable" d ])
       (Array.to_list dirs))
  |> List.sort compare

let setup sys =
  Array.init 2 (fun i ->
      match
        sys.Systems.server.Server.handle
          (N.Mkdir { dir = sys.Systems.server.Server.root; name = dir_name i; mode = 0o755 })
      with
      | N.R_fh (fh, _) -> fh
      | _ -> failwith "setup mkdir")

let gen_ops =
  QCheck.Gen.(
    list_size (1 -- 40)
      (oneof
         [
           map2 (fun d n -> Acreate (d, n)) (0 -- 1) (0 -- 4);
           (let* d = 0 -- 1 and* n = 0 -- 4 and* off = 0 -- 6000 and* len = 1 -- 5000 and* c = char_range 'a' 'z' in
            return (Awrite (d, n, off, len, c)));
           map3 (fun d n s -> Atruncate (d, n, s)) (0 -- 1) (0 -- 4) (0 -- 8000);
           map2 (fun d n -> Aremove (d, n)) (0 -- 1) (0 -- 4);
           (let* d1 = 0 -- 1 and* n1 = 0 -- 4 and* d2 = 0 -- 1 and* n2 = 0 -- 4 in
            return (Arename (d1, n1, d2, n2)));
           map2 (fun d n -> Amkdir_file_clash (d, n)) (0 -- 1) (0 -- 4);
           map2 (fun d n -> Aread (d, n)) (0 -- 1) (0 -- 4);
         ]))

let pp_aop = function
  | Acreate (d, n) -> Printf.sprintf "create(%d,%d)" d n
  | Awrite (d, n, off, len, c) -> Printf.sprintf "write(%d,%d,%d,%d,%c)" d n off len c
  | Atruncate (d, n, s) -> Printf.sprintf "trunc(%d,%d,%d)" d n s
  | Aremove (d, n) -> Printf.sprintf "rm(%d,%d)" d n
  | Arename (a, b, c, d) -> Printf.sprintf "mv(%d,%d->%d,%d)" a b c d
  | Amkdir_file_clash (d, n) -> Printf.sprintf "mkdir(%d,%d)" d n
  | Aread (d, n) -> Printf.sprintf "read(%d,%d)" d n

let arb_ops =
  QCheck.make ~print:(fun l -> String.concat "; " (List.map pp_aop l)) gen_ops

let run_equivalence ops =
  let systems =
    (* Content retention on the S4 drives: we compare actual bytes.
       The sharded arrays must be indistinguishable from the
       single-drive systems at the NFS surface: a 1-shard array is the
       router's identity case, and a 3-shard array additionally
       exercises placement, forwarding and the meta shard. *)
    Systems.all_four ~config:(ccfg 128) ()
    @ [
        Systems.s4_array ~config:(ccfg 128) ~shards:1 ();
        Systems.s4_array ~config:(ccfg 128) ~shards:3 ();
      ]
  in
  let states =
    List.map
      (fun sys ->
        let dirs = setup sys in
        let outcomes = List.map (apply sys dirs) ops in
        (sys.Systems.name, outcomes, snapshot sys dirs))
      systems
  in
  match states with
  | [] -> true
  | (_, ref_out, ref_snap) :: rest ->
    List.for_all
      (fun (name, out, snap) ->
        if out <> ref_out then begin
          QCheck.Test.fail_reportf "%s diverged in outcomes:\n%s\nvs\n%s" name
            (String.concat ";" out) (String.concat ";" ref_out)
        end;
        if snap <> ref_snap then begin
          QCheck.Test.fail_reportf "%s diverged in final state:\n%s\nvs\n%s" name
            (String.concat "\n" snap) (String.concat "\n" ref_snap)
        end;
        true)
      rest

let prop_four_systems_agree =
  QCheck.Test.make ~name:"all four systems implement identical NFS semantics" ~count:30 arb_ops
    run_equivalence

(* A couple of fixed regression sequences (cheap to debug when they
   break). *)
let test_fixed_sequence () =
  let ops =
    [
      Acreate (0, 0);
      Awrite (0, 0, 0, 100, 'x');
      Acreate (0, 0);
      (* EEXIST everywhere *)
      Arename (0, 0, 1, 1);
      Awrite (1, 1, 50, 100, 'y');
      Atruncate (1, 1, 70);
      Aread (1, 1);
      Aremove (0, 0);
      (* ENOENT everywhere *)
      Amkdir_file_clash (1, 1);
      (* EEXIST *)
      Aremove (1, 1);
    ]
  in
  check Alcotest.bool "agree" true (run_equivalence ops)

let test_sparse_and_grow () =
  let ops =
    [ Acreate (0, 2); Awrite (0, 2, 7000, 10, 'z'); Aread (0, 2); Atruncate (0, 2, 9000); Aread (0, 2) ]
  in
  check Alcotest.bool "agree" true (run_equivalence ops)

(* --- Tracing is observationally free ---------------------------------- *)

(* The span tracer's hard correctness requirement: with tracing
   enabled, a run must be bit- and simulated-time-identical to the
   same run untraced. We drive two fresh instances of the same system
   through the same operation sequence — one traced, one not — then
   compare the final simulated clock and a sector-by-sector digest of
   every member disk. *)

module Trace = S4_obs.Trace
module Check = S4_obs.Check
module Simclock = S4_util.Simclock
module Sim_disk = S4_disk.Sim_disk
module Geometry = S4_disk.Geometry
module Log = S4_seglog.Log
module Drive = S4.Drive
module Audit = S4.Audit
module Router = S4_shard.Router

let disk_digest disk =
  let g = Sim_disk.geometry disk in
  let chunk = 4096 in
  let b = Buffer.create 1024 in
  let lba = ref 0 in
  while !lba < g.Geometry.sectors do
    let n = min chunk (g.Geometry.sectors - !lba) in
    Buffer.add_string b (Digest.to_hex (Digest.bytes (Sim_disk.peek disk ~lba:!lba ~sectors:n)));
    lba := !lba + n
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let member_disks sys =
  match sys.Systems.router with
  | Some r -> List.map (fun d -> Log.disk (Drive.log d)) (Router.all_drives r)
  | None -> [ sys.Systems.disk ]

let trace_free_ops =
  [
    Acreate (0, 0); Awrite (0, 0, 0, 3000, 'a'); Acreate (1, 1);
    Awrite (1, 1, 500, 2000, 'b'); Aread (0, 0); Atruncate (0, 0, 1200);
    Arename (0, 0, 1, 2); Aread (1, 2); Aremove (1, 1); Awrite (1, 2, 100, 400, 'c');
    Amkdir_file_clash (1, 2); Aread (1, 2);
  ]

let run_traced_pair mk =
  (* Untraced reference run. *)
  let ref_sys = mk () in
  let ref_dirs = setup ref_sys in
  let ref_out = List.map (apply ref_sys ref_dirs) trace_free_ops in
  let ref_snap = snapshot ref_sys ref_dirs in
  let ref_clock = Simclock.now ref_sys.Systems.clock in
  let ref_digests = List.map disk_digest (member_disks ref_sys) in
  (* Same workload with the tracer on for the whole run. *)
  Trace.clear ();
  Trace.enable ();
  let sys, out, snap =
    Fun.protect ~finally:Trace.disable (fun () ->
        let sys = mk () in
        let dirs = setup sys in
        let out = List.map (apply sys dirs) trace_free_ops in
        (sys, out, snapshot sys dirs))
  in
  let clock = Simclock.now sys.Systems.clock in
  let digests = List.map disk_digest (member_disks sys) in
  check (Alcotest.list Alcotest.string) "traced run: same op outcomes" ref_out out;
  check (Alcotest.list Alcotest.string) "traced run: same final namespace" ref_snap snap;
  check Alcotest.int64 "traced run: identical final simulated clock" ref_clock clock;
  check (Alcotest.list Alcotest.string) "traced run: identical disk images" ref_digests digests;
  check Alcotest.bool "tracer actually recorded spans" true (Trace.count () > 0);
  sys

let test_tracing_free_single_drive () =
  let sys =
    run_traced_pair (fun () ->
        Systems.s4_nfs_server ~config:(ccfg 64) ())
  in
  (* The trace and the audit log independently witnessed the same run:
     make them corroborate each other, exhaustively in both
     directions. *)
  let drive = Option.get sys.Systems.drive in
  let audit =
    List.map
      (fun (r : Audit.record) ->
        { Check.a_at = r.Audit.at; a_op = r.Audit.op; a_oid = r.Audit.oid; a_ok = r.Audit.ok })
      (Audit.records (Drive.audit drive) ())
  in
  let r = Check.run ~audit ~complete:true (Trace.spans ()) in
  if r.Check.violations <> [] then
    Alcotest.failf "trace checker: %s" (String.concat "; " r.Check.violations);
  check Alcotest.bool "audit records matched to spans" true (r.Check.audit_matched > 0);
  Trace.clear ()

let test_tracing_free_array () =
  let sys =
    run_traced_pair (fun () ->
        Systems.s4_array ~config:(ccfg 64) ~shards:3 ())
  in
  ignore sys;
  let r = Check.run (Trace.spans ()) in
  if r.Check.violations <> [] then
    Alcotest.failf "trace checker: %s" (String.concat "; " r.Check.violations);
  Trace.clear ()

(* --- The network layer is semantically invisible ---------------------- *)

(* Serving every S4 RPC through the wire codec and a server session
   (loopback transport) must be indistinguishable from calling the
   drive in process: same NFS outcomes, same namespace, and — because
   the net layer adds no simulated time — the same final simulated
   clock and a sector-identical disk image. *)

let run_networked_pair ops =
  let mk f = f ?config:(Some (ccfg 64)) () in
  let run sys =
    let dirs = setup sys in
    let out = List.map (apply sys dirs) ops in
    ( out,
      snapshot sys dirs,
      Simclock.now sys.Systems.clock,
      List.map disk_digest (member_disks sys) )
  in
  let d_out, d_snap, d_clock, d_digests = run (mk Systems.s4_direct) in
  let l_out, l_snap, l_clock, l_digests =
    run (mk Systems.s4_loopback)
  in
  check (Alcotest.list Alcotest.string) "networked: same op outcomes" d_out l_out;
  check (Alcotest.list Alcotest.string) "networked: same final namespace" d_snap l_snap;
  check Alcotest.int64 "networked: identical final simulated clock" d_clock l_clock;
  check (Alcotest.list Alcotest.string) "networked: identical disk images" d_digests l_digests

let test_networked_fixed () = run_networked_pair trace_free_ops

let prop_networked_agree =
  QCheck.Test.make ~name:"loopback-served S4 is bit-identical to in-process" ~count:15 arb_ops
    (fun ops ->
      run_networked_pair ops;
      true)

(* --- Batched submission is equivalent to one-at-a-time ----------------- *)

(* The vectored [S4.Backend.submit] contract: splitting a request
   sequence into arbitrary batches must not be observable. Each batch
   runs its requests in order with full per-request semantics and pays
   one group-commit barrier at batch end, so the reference run is
   one-at-a-time [handle ~sync:false] followed by an explicit
   empty-batch barrier wherever the batched run would pay one. We
   compare responses, final per-slot object state, audit record
   count, the simulated clock and a sector-level digest of every
   member disk — on a single drive, a 3-shard array, and a
   loopback-served drive (where batches travel as one wire frame). *)

module Backend = S4.Backend
module Rpc = S4.Rpc
module Acl = S4.Acl
module Netserver = S4_net.Server
module Netclient = S4_net.Client
module Nettransport = S4_net.Transport
module Mirror = S4_multi.Mirror
module Net = S4_disk.Net

let s4_cred = Rpc.user_cred ~user:1 ~client:1

(* Abstract S4-level ops over four object slots; slots are bound to
   concrete oids by a pilot run, so the same concrete request list can
   be replayed on fresh instances. *)
type sop =
  | Screate of int
  | Swrite of int * int * int * char  (* slot, off, len, fill *)
  | Sappend of int * int * char
  | Struncate of int * int
  | Sread of int * int * int
  | Sgetattr of int
  | Ssetattr of int * string
  | Sdelete of int
  | Ssync

let pp_sop = function
  | Screate s -> Printf.sprintf "create(%d)" s
  | Swrite (s, off, len, c) -> Printf.sprintf "write(%d,%d,%d,%c)" s off len c
  | Sappend (s, len, c) -> Printf.sprintf "append(%d,%d,%c)" s len c
  | Struncate (s, size) -> Printf.sprintf "trunc(%d,%d)" s size
  | Sread (s, off, len) -> Printf.sprintf "read(%d,%d,%d)" s off len
  | Sgetattr s -> Printf.sprintf "getattr(%d)" s
  | Ssetattr (s, a) -> Printf.sprintf "setattr(%d,%s)" s a
  | Sdelete s -> Printf.sprintf "rm(%d)" s
  | Ssync -> "sync"

let gen_sop =
  QCheck.Gen.(
    let slot = 0 -- 3 in
    oneof
      [
        map (fun s -> Screate s) slot;
        (let* s = slot and* off = 0 -- 4000 and* len = 1 -- 2000 and* c = char_range 'a' 'z' in
         return (Swrite (s, off, len, c)));
        (let* s = slot and* len = 1 -- 1000 and* c = char_range 'a' 'z' in
         return (Sappend (s, len, c)));
        map2 (fun s size -> Struncate (s, size)) slot (0 -- 5000);
        (let* s = slot and* off = 0 -- 4000 and* len = 0 -- 2000 in
         return (Sread (s, off, len)));
        map (fun s -> Sgetattr s) slot;
        map2
          (fun s a -> Ssetattr (s, a))
          slot
          (string_size ~gen:(char_range 'a' 'z') (0 -- 24));
        map (fun s -> Sdelete s) slot;
        return Ssync;
      ])

(* A sequence plus a cyclic pattern of batch sizes: the partition is
   part of the generated input, so shrinking finds minimal splits. *)
let gen_batched_case =
  QCheck.Gen.(
    let* ops = list_size (1 -- 28) gen_sop in
    let* cuts = list_size (1 -- 6) (1 -- 7) in
    return (ops, cuts))

let arb_batched_case =
  QCheck.make
    ~print:(fun (ops, cuts) ->
      Printf.sprintf "[%s] / batches %s"
        (String.concat "; " (List.map pp_sop ops))
        (String.concat "," (List.map string_of_int cuts)))
    gen_batched_case

(* Slot with no object yet: a deliberately absent oid, so the request
   deterministically fails the same way on every run. *)
let absent_oid = 999_999_999L

let concretize oids op =
  let oid_of s = match oids.(s) with Some o -> o | None -> absent_oid in
  match op with
  | Screate _ -> Rpc.Create { acl = Acl.default ~owner:1 }
  | Swrite (s, off, len, c) ->
    Rpc.Write { oid = oid_of s; off; len; data = Some (Bytes.make len c) }
  | Sappend (s, len, c) -> Rpc.Append { oid = oid_of s; len; data = Some (Bytes.make len c) }
  | Struncate (s, size) -> Rpc.Truncate { oid = oid_of s; size }
  | Sread (s, off, len) -> Rpc.Read { oid = oid_of s; off; len; at = None }
  | Sgetattr s -> Rpc.Get_attr { oid = oid_of s; at = None }
  | Ssetattr (s, a) -> Rpc.Set_attr { oid = oid_of s; attr = Bytes.of_string a }
  | Sdelete s -> Rpc.Delete { oid = oid_of s }
  | Ssync -> Rpc.Sync

type binstance = {
  b_backend : Backend.t;
  b_drives : Drive.t list;
  b_cleanup : unit -> unit;
}

let bgeom mb = Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(mb * 1024 * 1024)

let bmk_drive clock =
  Drive.format ~config:Systems.content_drive_config
    (Sim_disk.create ~geometry:(bgeom 64) clock)

let mk_single_b () =
  let drive = bmk_drive (Simclock.create ()) in
  { b_backend = Drive.backend drive; b_drives = [ drive ]; b_cleanup = (fun () -> ()) }

let mk_shard_b () =
  let clock = Simclock.create () in
  let members = List.init 3 (fun i -> (i, Router.Single (bmk_drive clock))) in
  let router = Router.create members in
  {
    b_backend = Router.backend router;
    b_drives = Router.all_drives router;
    b_cleanup = (fun () -> ());
  }

let mk_loopback_b () =
  let drive = bmk_drive (Simclock.create ()) in
  let srv = Netserver.of_drive drive in
  let client = Netclient.connect (Nettransport.loopback srv) in
  {
    b_backend = Netclient.backend ~clock:(Drive.clock drive) ~keep_data:true client;
    b_drives = [ drive ];
    b_cleanup = (fun () -> Netclient.close client);
  }

let mk_mirror_b () =
  let clock = Simclock.create () in
  let primary = bmk_drive clock in
  let m = Mirror.create primary (bmk_drive clock) in
  {
    b_backend =
      Backend.make ~clock ~keep_data:true
        ~capacity:(fun () -> Drive.capacity primary)
        (Mirror.submit m);
    b_drives = [ Mirror.drive m Mirror.Primary; Mirror.drive m Mirror.Secondary ];
    b_cleanup = (fun () -> ());
  }

let mk_net_b () =
  let drive = bmk_drive (Simclock.create ()) in
  {
    b_backend = Backend.over_net (Net.create (Drive.clock drive)) (Drive.backend drive);
    b_drives = [ drive ];
    b_cleanup = (fun () -> ());
  }

(* Each kind, and whether batching must leave its disk images
   bit-identical. Behind the modelled network a batch pays its round
   trips after its last request, so its later requests run, and are
   stamped in versions and audit records, earlier than they would one
   at a time: the images differ in those stamps only, and everything
   else (responses, audit count, final clock, namespace) must match. *)
let backend_kinds =
  [
    ("single-drive", mk_single_b, true);
    ("mirrored-pair", mk_mirror_b, true);
    ("3-shard-array", mk_shard_b, true);
    ("loopback", mk_loopback_b, true);
    ("modelled-network", mk_net_b, false);
  ]

(* Bind slots to concrete oids on a throwaway instance of the same
   kind (oid allocation is deterministic per kind, not across kinds). *)
let concrete_reqs mk ops =
  let inst = mk () in
  let oids = Array.make 4 None in
  let reqs =
    List.map
      (fun op ->
        let req = concretize oids op in
        (match (op, Backend.handle inst.b_backend s4_cred req) with
        | Screate s, Rpc.R_oid oid -> oids.(s) <- Some oid
        | _ -> ());
        req)
      ops
  in
  inst.b_cleanup ();
  (reqs, oids)

let partition cuts reqs =
  let sizes = match List.filter (fun k -> k > 0) cuts with [] -> [ 3 ] | l -> l in
  let nsizes = List.length sizes in
  let rec take n = function
    | [] -> ([], [])
    | l when n = 0 -> ([], l)
    | x :: tl ->
      let a, b = take (n - 1) tl in
      (x :: a, b)
  in
  let rec go i = function
    | [] -> []
    | l ->
      let batch, rest = take (List.nth sizes (i mod nsizes)) l in
      batch :: go (i + 1) rest
  in
  go 0 reqs

let resp_str r = Format.asprintf "%a" Rpc.pp_resp r
let resp_ok = function Rpc.R_error _ -> false | _ -> true

(* Reference: one-at-a-time, unsynced, then the barrier the batched
   run would pay (an empty sync submit) — skipped, as [submit] skips
   it, when nothing in the batch succeeded. *)
let run_sequential backend batches =
  List.concat_map
    (fun batch ->
      let rs = List.map (fun req -> Backend.handle backend s4_cred req) batch in
      if batch = [] || List.exists resp_ok rs then
        ignore (backend.Backend.submit s4_cred ~sync:true [||]);
      List.map resp_str rs)
    batches

let run_batched backend batches =
  List.concat_map
    (fun batch ->
      backend.Backend.submit s4_cred ~sync:true (Array.of_list batch)
      |> Array.to_list |> List.map resp_str)
    batches

let audit_count inst =
  List.fold_left
    (fun n d -> n + List.length (Audit.records (Drive.audit d) ()))
    0 inst.b_drives

let images inst = List.map (fun d -> disk_digest (Log.disk (Drive.log d))) inst.b_drives
let bclock inst = Simclock.now (Drive.clock (List.hd inst.b_drives))
let bstate inst = (audit_count inst, images inst, bclock inst)

(* Final namespace at the RPC surface: attributes and contents of
   every slot that was ever bound. Probed after [bstate] so the probe
   itself cannot mask a divergence. *)
let probe_slots inst oids =
  Array.to_list oids
  |> List.concat_map (function
       | None -> []
       | Some oid ->
         [
           resp_str (Backend.handle inst.b_backend s4_cred (Rpc.Get_attr { oid; at = None }));
           resp_str
             (Backend.handle inst.b_backend s4_cred
                (Rpc.Read { oid; off = 0; len = 8192; at = None }));
         ])

let run_batched_equivalence (ops, cuts) =
  List.iter
    (fun (kind, mk, same_image) ->
      let reqs, oids = concrete_reqs mk ops in
      let batches = partition cuts reqs in
      let seq = mk () and bat = mk () in
      let out_s = run_sequential seq.b_backend batches in
      let out_b = run_batched bat.b_backend batches in
      if out_s <> out_b then
        QCheck.Test.fail_reportf "%s: batched responses diverged:\n%s\nvs sequential\n%s" kind
          (String.concat ";" out_b) (String.concat ";" out_s);
      let audit_s = audit_count seq and audit_b = audit_count bat in
      let clock_s = bclock seq and clock_b = bclock bat in
      if audit_s <> audit_b then
        QCheck.Test.fail_reportf "%s: audit record count %d (batched) vs %d (sequential)" kind
          audit_b audit_s;
      if clock_s <> clock_b then
        QCheck.Test.fail_reportf "%s: clock %Ld (batched) vs %Ld (sequential)" kind clock_b
          clock_s;
      if same_image && images seq <> images bat then
        QCheck.Test.fail_reportf "%s: member disk images diverged" kind;
      let ns_s = probe_slots seq oids and ns_b = probe_slots bat oids in
      if ns_s <> ns_b then
        QCheck.Test.fail_reportf "%s: final namespace diverged:\n%s\nvs\n%s" kind
          (String.concat ";" ns_b) (String.concat ";" ns_s);
      seq.b_cleanup ();
      bat.b_cleanup ())
    backend_kinds;
  true

let prop_batched_equals_sequential =
  QCheck.Test.make
    ~name:"arbitrary batching is unobservable (drive, mirror, array, loopback, network)"
    ~count:20
    arb_batched_case run_batched_equivalence

(* Cheap fixed split for debugging, same machinery. *)
let test_batched_fixed () =
  let ops =
    [
      Screate 0; Swrite (0, 0, 2048, 'a'); Screate 1; Sappend (1, 700, 'b'); Sread (0, 0, 4096);
      Struncate (0, 900); Ssetattr (1, "label"); Sgetattr 0; Sdelete 1; Sread (1, 0, 100);
      Ssync; Swrite (2, 10, 10, 'c') (* slot 2 never created: deterministic failure *);
    ]
  in
  check Alcotest.bool "batched ≡ sequential" true (run_batched_equivalence (ops, [ 4; 1; 3 ]))

(* Group commit pays one barrier: a sync batch matches — bit for bit,
   clock tick for clock tick — sequential unsynced execution plus a
   single trailing barrier. (The throughput consequence is measured by
   [bench/main.exe batch], not asserted here: on workloads this small
   the simulated flush pattern can favour either side.) *)
let test_group_commit_single_barrier () =
  let ops =
    [ Screate 0; Swrite (0, 0, 2048, 'x'); Sappend (0, 512, 'y'); Screate 1; Swrite (1, 100, 300, 'z') ]
  in
  let reqs, _ = concrete_reqs mk_single_b ops in
  let bat = mk_single_b () in
  let resps = bat.b_backend.Backend.submit s4_cred ~sync:true (Array.of_list reqs) in
  Array.iter (fun r -> check Alcotest.bool "batch response ok" true (resp_ok r)) resps;
  let seq = mk_single_b () in
  List.iter (fun r -> ignore (Backend.handle seq.b_backend s4_cred r)) reqs;
  ignore (seq.b_backend.Backend.submit s4_cred ~sync:true [||]);
  check Alcotest.bool "one trailing barrier reproduces the sync batch" true
    (bstate bat = bstate seq)

(* A batched workload under the span tracer still satisfies the
   whole-run checker, including the positional audit↔span bijection:
   [Drive.submit] emits one Drive span per request, exactly as the
   one-at-a-time path does. *)
let test_batched_trace_checker () =
  Trace.clear ();
  Trace.enable ();
  let inst =
    Fun.protect ~finally:Trace.disable (fun () ->
        let inst = mk_single_b () in
        let submit reqs =
          inst.b_backend.Backend.submit s4_cred ~sync:true (Array.of_list reqs)
        in
        let oids =
          submit (List.init 4 (fun _ -> Rpc.Create { acl = Acl.default ~owner:1 }))
          |> Array.to_list
          |> List.map (function
               | Rpc.R_oid oid -> oid
               | r -> Alcotest.failf "create: %a" Rpc.pp_resp r)
        in
        let w i oid =
          Rpc.Write { oid; off = i * 512; len = 1024; data = Some (Bytes.make 1024 'b') }
        in
        ignore (submit (List.mapi w oids @ List.mapi w oids));
        ignore
          (submit (List.map (fun oid -> Rpc.Read { oid; off = 0; len = 2048; at = None }) oids));
        let victim = List.hd oids in
        ignore
          (submit
             [ Rpc.Delete { oid = victim }; Rpc.Get_attr { oid = victim; at = None }; Rpc.Sync ]);
        inst)
  in
  let drive = List.hd inst.b_drives in
  let audit =
    List.map
      (fun (r : Audit.record) ->
        { Check.a_at = r.Audit.at; a_op = r.Audit.op; a_oid = r.Audit.oid; a_ok = r.Audit.ok })
      (Audit.records (Drive.audit drive) ())
  in
  let r = Check.run ~audit ~complete:true (Trace.spans ()) in
  if r.Check.violations <> [] then
    Alcotest.failf "trace checker over batched run: %s" (String.concat "; " r.Check.violations);
  check Alcotest.bool "audit records matched to spans" true (r.Check.audit_matched > 0);
  Trace.clear ()

(* --- Read-path scale-out is observationally invisible ------------------ *)

(* The readscale subsystem's safety contract: serving reads from either
   replica (with batch read runs charged concurrently) and answering
   reads from the client's lease cache must both be invisible at the
   NFS surface — same per-op outcomes, same final namespace, and the
   same audit evidence. For replica balancing the TOTAL audit count
   across both replicas is invariant (each read is audited exactly once
   on whichever replica served it; mutations land on both). For the
   lease cache every hit is exactly one drive request that never
   happened, so uncached_audit = cached_audit + hits — the cache can
   hide work from the wire, never from the audit trail's accounting.
   Clocks and disk images legitimately differ (that is the point), so
   unlike the groups above we do NOT compare them. *)

module Translator = S4_nfs.Translator
module Cache = S4_net.Cache

let audit_total drives =
  List.fold_left (fun n d -> n + List.length (Audit.records (Drive.audit d) ())) 0 drives

let readscale_ops =
  (* Repeated reads of the same files make the lease cache earn hits;
     interleaved mutations force invalidations. *)
  trace_free_ops
  @ [ Aread (1, 2); Aread (1, 2); Awrite (1, 2, 0, 64, 'd'); Aread (1, 2); Aread (1, 2) ]

let run_balanced_equivalence ops =
  let mk ~balanced () =
    Systems.s4_array
      ~config:{ (ccfg 64) with Systems.Config.mirrored = true; balanced; read_overlap = balanced }
      ~shards:2 ()
  in
  let run sys =
    let dirs = setup sys in
    let out = List.map (apply sys dirs) ops in
    let snap = snapshot sys dirs in
    let router = Option.get sys.Systems.router in
    (out, snap, audit_total (Router.all_drives router), router)
  in
  let p_out, p_snap, p_audit, _ = run (mk ~balanced:false ()) in
  let b_out, b_snap, b_audit, b_router = run (mk ~balanced:true ()) in
  if b_out <> p_out then
    QCheck.Test.fail_reportf "balanced array diverged in outcomes:\n%s\nvs\n%s"
      (String.concat ";" b_out) (String.concat ";" p_out);
  if b_snap <> p_snap then
    QCheck.Test.fail_reportf "balanced array diverged in final state:\n%s\nvs\n%s"
      (String.concat "\n" b_snap) (String.concat "\n" p_snap);
  if b_audit <> p_audit then
    QCheck.Test.fail_reportf "audit total %d (balanced) vs %d (primary-only)" b_audit p_audit;
  (* How split the balancing was (the fixed test asserts it happened). *)
  List.fold_left
    (fun (p, s) id ->
      match Router.member b_router id with
      | Router.Mirrored m ->
        let mp, ms = Mirror.read_counts m in
        (p + mp, s + ms)
      | Router.Single _ -> (p, s))
    (0, 0) (Router.shard_ids b_router)

let mk_cached_loopback () =
  let clock = Simclock.create () in
  let disk =
    Sim_disk.create ~geometry:(Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(64 * 1024 * 1024)) clock
  in
  let drive = Drive.format ~config:Systems.content_drive_config disk in
  let server_config =
    { Netserver.default_config with Netserver.lease_ns = 3_600_000_000_000L }
  in
  let srv = Netserver.of_drive ~config:server_config drive in
  let client_config =
    { Netclient.default_config with Netclient.cache_budget = 1 lsl 20; cache_journal = true }
  in
  let client = Netclient.connect ~config:client_config (Nettransport.loopback ~identity:1 srv) in
  let tr = Translator.mount (Translator.Backend (Netclient.backend ~clock ~keep_data:true client)) in
  let sys =
    {
      Systems.name = "S4-cached";
      server = Server.of_translator ~name:"S4-cached" tr;
      clock;
      disk;
      drive = Some drive;
      translator = Some tr;
      router = None;
    }
  in
  (sys, client)

let run_cached_equivalence ops =
  let run sys =
    let dirs = setup sys in
    let out = List.map (apply sys dirs) ops in
    let snap = snapshot sys dirs in
    (out, snap, audit_total [ Option.get sys.Systems.drive ])
  in
  let d_sys = Systems.s4_direct ~config:(ccfg 64) () in
  let d_out, d_snap, d_audit = run d_sys in
  let c_sys, client = mk_cached_loopback () in
  let c_out, c_snap, c_audit = run c_sys in
  if c_out <> d_out then
    QCheck.Test.fail_reportf "cached client diverged in outcomes:\n%s\nvs\n%s"
      (String.concat ";" c_out) (String.concat ";" d_out);
  if c_snap <> d_snap then
    QCheck.Test.fail_reportf "cached client diverged in final state:\n%s\nvs\n%s"
      (String.concat "\n" c_snap) (String.concat "\n" d_snap);
  let cache = Option.get (Netclient.cache client) in
  let hits = Cache.hits cache in
  if d_audit <> c_audit + hits then begin
    let ops_of sys =
      List.map
        (fun (r : Audit.record) -> Printf.sprintf "%s(%Ld)" r.Audit.op r.Audit.oid)
        (Audit.records (Drive.audit (Option.get sys.Systems.drive)) ())
    in
    QCheck.Test.fail_reportf
      "audit accounting: %d uncached <> %d cached + %d hits\nuncached: %s\ncached:   %s"
      d_audit c_audit hits
      (String.concat " " (ops_of d_sys))
      (String.concat " " (ops_of c_sys))
  end;
  (* The lease safety rule: the journal proves no reply was ever served
     from cache after its lease expired or was invalidated. *)
  (match Cache.check cache with
  | Ok () -> ()
  | Error e -> QCheck.Test.fail_reportf "lease checker: %s" e);
  hits

let test_readscale_balanced_fixed () =
  let _, s = run_balanced_equivalence readscale_ops in
  check Alcotest.bool "secondary replicas actually served reads" true (s > 0)

let test_readscale_cached_fixed () =
  let hits = run_cached_equivalence readscale_ops in
  check Alcotest.bool "cache actually served hits" true (hits > 0)

let prop_readscale_balanced =
  QCheck.Test.make ~name:"replica-balanced reads are observationally invisible" ~count:10
    arb_ops
    (fun ops ->
      ignore (run_balanced_equivalence ops);
      true)

let prop_readscale_cached =
  QCheck.Test.make ~name:"lease-cached reads are observationally invisible" ~count:10 arb_ops
    (fun ops ->
      ignore (run_cached_equivalence ops);
      true)

(* --- Per-shard worker domains ------------------------------------------ *)

(* The multicore contract (ROADMAP item 1): with the knob pinned to 1
   the router takes the untouched serial dispatch path, so a domains=1
   run must be bit-identical to a build that never heard of domains —
   responses, audit count, member disk images, final sim clock.  With
   the knob above 1 a run is still deterministic (repeatable bit for
   bit: lanes fork at a common origin and the shared clock advances by
   the slowest lane, independent of host scheduling) and semantically
   identical to serial — same responses, same final namespace, same
   audit accounting.  Only time accounting differs: parallel windows
   cost the max of their members instead of the sum, so the parallel
   clock can only be at or ahead of (i.e. ≤) the serial clock, and the
   on-disk timestamps shift with it, which is why disk digests are
   deliberately NOT compared across that boundary. *)

let mk_plain4_b () =
  let clock = Simclock.create () in
  let members = List.init 4 (fun i -> (i, Router.Single (bmk_drive clock))) in
  let router = Router.create members in
  {
    b_backend = Router.backend router;
    b_drives = Router.all_drives router;
    b_cleanup = (fun () -> Router.close_domains router);
  }

let mk_domains_b n () =
  let clock = Simclock.create () in
  let members = List.init 4 (fun i -> (i, Router.Single (bmk_drive clock))) in
  let router = Router.create members in
  Router.set_domains router n;
  {
    b_backend = Router.backend router;
    b_drives = Router.all_drives router;
    b_cleanup = (fun () -> Router.close_domains router);
  }

(* Four objects (one per shard with high likelihood) and batches of
   consecutive object-routed requests, so parallel windows actually
   form. *)
let domains_ops =
  [
    Screate 0; Screate 1; Screate 2; Screate 3;
    Swrite (0, 0, 2048, 'a'); Swrite (1, 512, 1024, 'b'); Sappend (2, 700, 'c');
    Swrite (3, 0, 4096, 'd');
    Sread (0, 0, 2048); Sread (1, 0, 2048); Sread (2, 0, 1024); Sread (3, 0, 4096);
    Struncate (0, 900); Ssetattr (1, "label"); Sappend (2, 300, 'e'); Swrite (3, 100, 64, 'f');
    Sgetattr 0; Sdelete 1; Sread (1, 0, 64); Ssync;
  ]

let run_domains mk (ops, cuts) =
  let reqs, oids = concrete_reqs mk ops in
  let inst = mk () in
  let out = run_batched inst.b_backend (partition cuts reqs) in
  let st = bstate inst in
  let ns = probe_slots inst oids in
  inst.b_cleanup ();
  (out, st, ns)

let test_domains_pinned_bit_identical () =
  let case = (domains_ops, [ 4; 8; 8 ]) in
  let plain = run_domains mk_plain4_b case in
  let pinned = run_domains (mk_domains_b 1) case in
  check Alcotest.bool "domains=1 is bit-identical to the serial build" true (plain = pinned)

let test_domains_deterministic () =
  let case = (domains_ops, [ 4; 8; 8 ]) in
  let a = run_domains (mk_domains_b 4) case in
  let b = run_domains (mk_domains_b 4) case in
  check Alcotest.bool "two domains=4 runs are bit-identical" true (a = b)

let compare_serial_vs_domains n (ops, cuts) =
  let s_out, (s_audit, _, s_clock), s_ns = run_domains mk_plain4_b (ops, cuts) in
  let p_out, (p_audit, _, p_clock), p_ns = run_domains (mk_domains_b n) (ops, cuts) in
  if p_out <> s_out then
    QCheck.Test.fail_reportf "domains=%d responses diverged:\n%s\nvs serial\n%s" n
      (String.concat ";" p_out) (String.concat ";" s_out);
  if p_audit <> s_audit then
    QCheck.Test.fail_reportf "domains=%d audit count %d vs serial %d" n p_audit s_audit;
  if p_ns <> s_ns then
    QCheck.Test.fail_reportf "domains=%d final namespace diverged:\n%s\nvs\n%s" n
      (String.concat ";" p_ns) (String.concat ";" s_ns);
  if Int64.compare p_clock s_clock > 0 then
    QCheck.Test.fail_reportf "domains=%d clock %Ld behind serial %Ld" n p_clock s_clock;
  (s_clock, p_clock)

let test_domains_semantics_fixed () =
  let s_clock, p_clock = compare_serial_vs_domains 4 (domains_ops, [ 4; 8; 8 ]) in
  (* The fixed workload routes consecutive requests to distinct shards,
     so at least one window must have been charged max-of-lanes. *)
  check Alcotest.bool "parallel windows actually formed (clock strictly ahead)" true
    (Int64.compare p_clock s_clock < 0)

let prop_domains_equals_serial =
  QCheck.Test.make ~name:"multi-domain dispatch is semantically invisible" ~count:15
    arb_batched_case
    (fun case ->
      ignore (compare_serial_vs_domains 4 case);
      true)

let () =
  Alcotest.run "s4_equivalence"
    [
      ( "differential",
        [
          Alcotest.test_case "fixed sequence" `Quick test_fixed_sequence;
          Alcotest.test_case "sparse and grow" `Quick test_sparse_and_grow;
          qtest prop_four_systems_agree;
        ] );
      ( "traced",
        [
          Alcotest.test_case "tracing is free (single drive)" `Quick
            test_tracing_free_single_drive;
          Alcotest.test_case "tracing is free (3-shard array)" `Quick test_tracing_free_array;
        ] );
      ( "networked",
        [
          Alcotest.test_case "fixed sequence over loopback" `Quick test_networked_fixed;
          qtest prop_networked_agree;
        ] );
      ( "batched",
        [
          Alcotest.test_case "fixed split" `Quick test_batched_fixed;
          Alcotest.test_case "group commit pays one barrier" `Quick
            test_group_commit_single_barrier;
          Alcotest.test_case "trace checker over a batched workload" `Quick
            test_batched_trace_checker;
          qtest prop_batched_equals_sequential;
        ] );
      ( "readscale",
        [
          Alcotest.test_case "balanced mirrored array (fixed)" `Quick
            test_readscale_balanced_fixed;
          Alcotest.test_case "lease-cached client (fixed)" `Quick test_readscale_cached_fixed;
          qtest prop_readscale_balanced;
          qtest prop_readscale_cached;
        ] );
      ( "domains",
        [
          Alcotest.test_case "domains=1 bit-identical to serial" `Quick
            test_domains_pinned_bit_identical;
          Alcotest.test_case "domains=4 deterministic" `Quick test_domains_deterministic;
          Alcotest.test_case "domains=4 semantically invisible (fixed)" `Quick
            test_domains_semantics_fixed;
          qtest prop_domains_equals_serial;
        ] );
    ]
