(* Quickstart: format a self-securing drive, store an object, overwrite
   it, then read the old version back and restore it.

   Run with: dune exec examples/quickstart.exe *)

module Simclock = S4_util.Simclock
module Geometry = S4_disk.Geometry
module Sim_disk = S4_disk.Sim_disk
module Drive = S4.Drive
module Rpc = S4.Rpc

let ( => ) what resp =
  match resp with
  | Rpc.R_error e -> Format.kasprintf failwith "%s failed: %a" what Rpc.pp_error e
  | r -> r

let () =
  (* A simulated 64 MB disk with the paper's Cheetah mechanics, and a
     freshly formatted S4 drive on it. *)
  let clock = Simclock.create () in
  let disk =
    Sim_disk.create ~geometry:(Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(64 * 1024 * 1024)) clock
  in
  let drive = Drive.format disk in
  let alice = Rpc.user_cred ~user:1 ~client:1 in

  (* Create an object and write to it. *)
  let oid =
    match "create" => Drive.handle drive alice (Rpc.Create { acl = [] }) with
    | Rpc.R_oid oid -> oid
    | _ -> assert false
  in
  let write s =
    ignore
      ("write"
      => (Drive.submit drive alice ~sync:true
            [| Rpc.Write { oid; off = 0; len = String.length s; data = Some (Bytes.of_string s) } |]).(0))
  in
  write "The first version of my file.";
  let t_first = Simclock.now clock in
  Printf.printf "wrote v1 at t=%Ld\n" t_first;

  (* Time passes; the file is overwritten. Every modification makes a
     new version — the drive never destroys the old one. *)
  Simclock.advance clock (Simclock.of_seconds 60.0);
  write "Version two CLOBBERS the file.";

  let read ?at () =
    match "read" => Drive.handle drive alice (Rpc.Read { oid; off = 0; len = 64; at }) with
    | Rpc.R_data b -> Bytes.to_string b
    | _ -> assert false
  in
  Printf.printf "current contents : %S\n" (read ());
  Printf.printf "contents at t=%Ld: %S\n" t_first (read ~at:t_first ());

  (* Restore by copying the old version forward (a new version again:
     nothing is ever rolled back destructively). *)
  let old = read ~at:t_first () in
  ignore ("truncate" => Drive.handle drive alice (Rpc.Truncate { oid; size = 0 }));
  write old;
  Printf.printf "after restore    : %S\n" (read ());

  (* The whole story is in the audit log. *)
  (match "audit" => Drive.handle drive Rpc.admin_cred (Rpc.Read_audit { since = 0L; until = Int64.max_int }) with
   | Rpc.R_audit records ->
     Printf.printf "\naudit log (%d records):\n" (List.length records);
     List.iter
       (fun (r : S4.Audit.record) ->
         Printf.printf "  t=%-12Ld user=%d %-10s %s %s\n" r.S4.Audit.at r.S4.Audit.user r.S4.Audit.op
           r.S4.Audit.info
           (if r.S4.Audit.ok then "" else "(DENIED)"))
       records
   | _ -> assert false);
  Format.printf "\n%a@." Drive.pp_stats drive
