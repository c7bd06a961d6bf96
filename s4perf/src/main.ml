(* s4perf: one command, three workloads, eleven end-to-end metrics
   (ten printed as metrics; failures go in [attempted]/[failed]) and a
   per-layer ledger from a separate traced run.

   {v
   main.exe --workload nfs-smallfile|array-bulk|wire-deploy --seed N
            --seconds S --trace 0|1 [--out DIR] [--quick]
   main.exe serve ...   (the wire-deploy server process; internal)
   v}

   The last line of standard output is one JSON object:
   [{"correct", "attempted", "failed", "metrics"}]. Exit status 1 when
   an output check fails. *)

open S4perf

let workloads =
  [
    ("nfs-smallfile", Nfs_smallfile.run);
    ("array-bulk", Array_bulk.run);
    ("wire-deploy", Wire_deploy.run);
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload nfs-smallfile|array-bulk|wire-deploy --seed N --seconds S \
     --trace 0|1 [--out DIR] [--quick]";
  exit 2

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let () =
  match Array.to_list Sys.argv with
  | _ :: "serve" :: args -> Wire_deploy.serve args
  | _ :: args ->
    let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
    let out = ref ".s4perf" and quick = ref false in
    let rec parse = function
      | "--workload" :: w :: rest ->
        workload := Some w;
        parse rest
      | "--seed" :: n :: rest ->
        seed := int_of_string_opt n;
        parse rest
      | "--seconds" :: s :: rest ->
        seconds := float_of_string_opt s;
        parse rest
      | "--trace" :: t :: rest ->
        trace := (match t with "0" -> Some false | "1" -> Some true | _ -> usage ());
        parse rest
      | "--out" :: d :: rest ->
        out := d;
        parse rest
      | "--quick" :: rest ->
        quick := true;
        parse rest
      | [] -> ()
      | _ -> usage ()
    in
    parse args;
    let run, wname =
      match !workload with
      | Some w -> (
        match List.assoc_opt w workloads with Some r -> (r, w) | None -> usage ())
      | None -> usage ()
    in
    let seed = match !seed with Some s -> s | None -> usage () in
    let seconds = match !seconds with Some s when s >= 0.0 -> s | _ -> usage () in
    let trace = match !trace with Some t -> t | None -> usage () in
    let cfg = { Run.seed; seconds; trace; quick = !quick; out_dir = !out } in
    let steal0 = Host.steal_ticks () in
    let r = run cfg in
    let steal_ms = 10 * (Host.steal_ticks () - steal0) in
    let wanted = if trace then Ledger.per_layer else Ledger.end_to_end in
    let metrics =
      List.map
        (fun (name, unit, _) ->
          let v = match List.assoc_opt name r.Run.metrics with Some v -> v | None -> 0.0 in
          (name, v, unit))
        wanted
    in
    let host =
      [
        ("workload", wname);
        ("seed", string_of_int seed);
        ("trace", if trace then "1" else "0");
        ("nproc", string_of_int (Host.nproc ()));
        ("cpus", Host.cpus_allowed ());
        ("ocaml", Sys.ocaml_version);
        ("steal_ms", string_of_int steal_ms);
      ]
      @ r.Run.info
    in
    List.iter (fun p -> Printf.printf "problem: %s\n" p) r.Run.problems;
    Printf.printf "host: %s\n" (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) host));
    (* The run record and the spans stay in the checkout. *)
    mkdir_p !out;
    let stem =
      Filename.concat !out (Printf.sprintf "%s-seed%d-trace%d" wname seed (if trace then 1 else 0))
    in
    List.iter
      (fun (label, s) ->
        let oc = open_out (stem ^ "-" ^ label ^ ".spans.tsv") in
        Spans.write s oc;
        close_out oc)
      r.Run.spans;
    let metrics_json =
      String.concat ", "
        (List.map
           (fun (n, v, u) ->
             Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string n) (json_number v)
               (json_string u))
           metrics)
    in
    let line =
      Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
        r.Run.correct (max 1 r.Run.attempted) r.Run.failed metrics_json
    in
    let oc = open_out (stem ^ ".json") in
    Printf.fprintf oc "{\"host\": {%s},\n \"result\": %s}\n"
      (String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ json_string v) host))
      line;
    close_out oc;
    print_endline line;
    exit (if r.Run.correct then 0 else 1)
  | [] -> usage ()
