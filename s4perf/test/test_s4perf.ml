(* The benchmark's own tests: seeded op streams are reproducible, the
   deterministic metrics repeat exactly, and what the command prints
   matches what BENCHMARK.json declares. *)

open S4perf

(* ------------------------------------------------------------------ *)
(* A minimal JSON reader, enough for BENCHMARK.json and a result line  *)

type json =
  | Obj of (string * json) list
  | Arr of json list
  | Str of string
  | Num of float
  | Bool of bool
  | Null

let parse_json s =
  let pos = ref 0 in
  let peek () = if !pos < String.length s then s.[!pos] else '\000' in
  let rec skip () =
    match peek () with
    | ' ' | '\n' | '\t' | '\r' ->
      incr pos;
      skip ()
    | _ -> ()
  in
  let expect c =
    skip ();
    if peek () <> c then failwith (Printf.sprintf "json: expected %c at %d" c !pos);
    incr pos
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    while peek () <> '"' do
      if peek () = '\\' then incr pos;
      Buffer.add_char b (peek ());
      incr pos
    done;
    incr pos;
    Buffer.contents b
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
      incr pos;
      skip ();
      if peek () = '}' then (incr pos; Obj [])
      else begin
        let rec fields acc =
          let k = str () in
          expect ':';
          let v = value () in
          skip ();
          if peek () = ',' then (incr pos; fields ((k, v) :: acc))
          else (expect '}'; Obj (List.rev ((k, v) :: acc)))
        in
        fields []
      end
    | '[' ->
      incr pos;
      skip ();
      if peek () = ']' then (incr pos; Arr [])
      else begin
        let rec items acc =
          let v = value () in
          skip ();
          if peek () = ',' then (incr pos; items (v :: acc))
          else (expect ']'; Arr (List.rev (v :: acc)))
        in
        items []
      end
    | '"' -> Str (str ())
    | 't' -> pos := !pos + 4; Bool true
    | 'f' -> pos := !pos + 5; Bool false
    | 'n' -> pos := !pos + 4; Null
    | _ ->
      let start = !pos in
      while String.contains "+-0123456789.eE" (peek ()) do
        incr pos
      done;
      Num (float_of_string (String.sub s start (!pos - start)))
  in
  value ()

let field k = function Obj l -> List.assoc k l | _ -> failwith ("json: no field " ^ k)
let to_list = function Arr l -> l | _ -> failwith "json: not an array"
let to_str = function Str s -> s | _ -> failwith "json: not a string"
let to_num = function Num f -> f | _ -> failwith "json: not a number"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* ------------------------------------------------------------------ *)
(* Running the command                                                 *)

let exe = "../src/main.exe"

(* Run one quick workload; the parsed last line of its output. *)
let run ~workload ~seed ~trace =
  let out = Filename.temp_file "s4perf" ".out" in
  let cmd =
    Printf.sprintf "%s --workload %s --seed %d --seconds 0 --trace %d --quick --out s4perf-out > %s 2>&1"
      exe workload seed trace (Filename.quote out)
  in
  let rc = Sys.command cmd in
  let lines = String.split_on_char '\n' (String.trim (read_file out)) in
  Sys.remove out;
  if rc <> 0 then Alcotest.failf "%s exited %d:\n%s" workload rc (String.concat "\n" lines);
  parse_json (List.nth lines (List.length lines - 1))

let metrics result =
  match field "metrics" result with
  | Obj l -> List.map (fun (name, v) -> (name, to_num (field "value" v), to_str (field "unit" v))) l
  | _ -> failwith "metrics: not an object"

let workloads = [ "nfs-smallfile"; "array-bulk"; "wire-deploy" ]

(* ------------------------------------------------------------------ *)
(* Tests                                                               *)

let test_op_streams () =
  let same name a b = Alcotest.(check (list string)) name a b in
  let differ name a b = Alcotest.(check bool) name false (a = b) in
  same "nfs: same seed" (Nfs_smallfile.op_stream ~seed:7 ~files:50 400)
    (Nfs_smallfile.op_stream ~seed:7 ~files:50 400);
  differ "nfs: other seed" (Nfs_smallfile.op_stream ~seed:7 ~files:50 400)
    (Nfs_smallfile.op_stream ~seed:8 ~files:50 400);
  same "array: same seed" (Array_bulk.op_stream ~seed:7 100) (Array_bulk.op_stream ~seed:7 100);
  differ "array: other seed" (Array_bulk.op_stream ~seed:7 100) (Array_bulk.op_stream ~seed:8 100);
  for thread = 0 to 1 do
    same "wire: same seed" (Wire_deploy.op_stream ~seed:7 ~thread 400)
      (Wire_deploy.op_stream ~seed:7 ~thread 400);
    differ "wire: other seed" (Wire_deploy.op_stream ~seed:7 ~thread 400)
      (Wire_deploy.op_stream ~seed:8 ~thread 400)
  done

let deterministic = [ "sim_ops_per_s"; "sim_lat_p99_us"; "alloc_words_per_op"; "space_amp" ]

let test_repeatable workload () =
  let a = metrics (run ~workload ~seed:11 ~trace:0) in
  let b = metrics (run ~workload ~seed:11 ~trace:0) in
  List.iter
    (fun name ->
      let value m = match List.find_opt (fun (n, _, _) -> n = name) m with
        | Some (_, v, _) -> v
        | None -> Alcotest.failf "%s not printed" name
      in
      Alcotest.(check (float 0.0)) (workload ^ " " ^ name) (value a) (value b))
    deterministic

let test_declared () =
  let bench = parse_json (read_file "../../BENCHMARK.json") in
  let declared key =
    List.map
      (fun m -> (to_str (field "name" m), to_str (field "unit" m)))
      (to_list (field key bench))
  in
  let catalogue key l =
    Alcotest.(check (list (triple string string string)))
      (key ^ " matches the benchmark's catalogue")
      (List.map
         (fun m -> (to_str (field "name" m), to_str (field "unit" m), to_str (field "better" m)))
         (to_list (field key bench)))
      (List.map
         (fun (n, u, b) -> (n, u, match b with Ledger.Higher -> "higher" | Ledger.Lower -> "lower"))
         l)
  in
  catalogue "end_to_end" Ledger.end_to_end;
  catalogue "per_layer" Ledger.per_layer;
  Alcotest.(check (list string)) "workloads" workloads
    (List.map (fun w -> to_str (field "name" w)) (to_list (field "workloads" bench)));
  List.iter
    (fun workload ->
      List.iter
        (fun (trace, key) ->
          let printed = List.map (fun (n, _, u) -> (n, u)) (metrics (run ~workload ~seed:3 ~trace)) in
          Alcotest.(check (list (pair string string)))
            (Printf.sprintf "%s --trace %d prints exactly %s" workload trace key)
            (List.sort compare (declared key)) (List.sort compare printed))
        [ (0, "end_to_end"); (1, "per_layer") ])
    workloads

let () =
  Alcotest.run "s4perf"
    [
      ("generators", [ Alcotest.test_case "same seed, same op stream" `Quick test_op_streams ]);
      ( "determinism",
        [
          Alcotest.test_case "nfs-smallfile repeats its sim, alloc and space figures" `Quick
            (test_repeatable "nfs-smallfile");
          Alcotest.test_case "array-bulk repeats its sim, alloc and space figures" `Quick
            (test_repeatable "array-bulk");
        ] );
      ( "catalogue",
        [ Alcotest.test_case "printed metrics are the declared ones" `Quick test_declared ] );
    ]
