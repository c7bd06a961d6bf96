(* A development workload over the S4-backed NFS mount: exercise the
   Figure-1a configuration (client-side translator, S4 RPC over the
   network), then browse the version history the drive accumulated.

   Run with: dune exec examples/versioned_nfs.exe *)

module Simclock = S4_util.Simclock
module Geometry = S4_disk.Geometry
module Sim_disk = S4_disk.Sim_disk
module Net = S4_disk.Net
module Drive = S4.Drive
module Rpc = S4.Rpc
module N = S4_nfs.Nfs_types
module Translator = S4_nfs.Translator
module History = S4_tools.History

let write tr path s =
  match Translator.write_file tr path (Bytes.of_string s) with
  | Ok fh -> fh
  | Error e -> Format.kasprintf failwith "write %s: %a" path N.pp_error e

let () =
  let clock = Simclock.create () in
  let disk =
    Sim_disk.create ~geometry:(Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(128 * 1024 * 1024)) clock
  in
  let drive = Drive.format disk in
  let net = Net.create clock in
  let tr = Translator.mount (Translator.Backend (S4.Backend.over_net net (Drive.backend drive))) in

  (* Simulate a morning of editing: the same source file written over
     and over, the way editors and build systems actually behave. *)
  let snapshots = ref [] in
  for rev = 1 to 8 do
    let text =
      Printf.sprintf "(* revision %d *)\nlet version = %d\nlet rec fib n = if n < 2 then n else fib (n-1) + fib (n-2)\n%s"
        rev rev
        (String.concat "\n" (List.init rev (fun i -> Printf.sprintf "let helper_%d x = x + %d" i i)))
    in
    let fh = write tr "src/main.ml" text in
    snapshots := (rev, Simclock.now clock, fh) :: !snapshots;
    Simclock.advance clock (Simclock.of_seconds 300.0)
  done;
  let _, _, fh = List.hd !snapshots in

  Printf.printf "wrote 8 revisions of src/main.ml over a simulated morning\n";
  Printf.printf "NFS ops -> %d S4 RPCs; network moved %d bytes\n\n"
    (Translator.rpc_count tr)
    (Net.stats net).Net.bytes_sent;

  (* Every modification is a version: list the instants the drive can
     reproduce. *)
  let h = History.create drive in
  let times = History.version_times h fh in
  Printf.printf "the drive holds %d distinct version instants for that file\n" (List.length times);

  (* "Time-enhanced cat": reconstruct any revision. *)
  List.iter
    (fun (_rev, at, fh) ->
      match History.cat h ~at fh with
      | Ok b ->
        let first_line = List.hd (String.split_on_char '\n' (Bytes.to_string b)) in
        Printf.printf "  at t=%-13Ld %s (%d bytes)\n" at first_line (Bytes.length b)
      | Error m -> failwith m)
    (List.rev !snapshots);

  (* A user accidentally deletes the file; self-securing storage makes
     this a non-event. *)
  (match Translator.lookup_path tr "src" with
   | Ok (dir, _) -> ignore (Translator.handle tr (N.Remove { dir; name = "main.ml" }))
   | Error _ -> failwith "lookup src");
  Printf.printf "\nfile deleted by accident...\n";
  let last_good = List.hd !snapshots in
  let _, at, _ = last_good in
  (match History.cat h ~at fh with
   | Ok b ->
     ignore (write tr "src/main.ml" (Bytes.to_string b));
     Printf.printf "...and restored from the history pool (%d bytes)\n" (Bytes.length b)
   | Error m -> failwith m);

  Format.printf "\n%a@." Drive.pp_stats drive
